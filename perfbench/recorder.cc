#include "perfbench/recorder.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace perfbench {

int LatencyHistogram::BucketFor(uint64_t ns) {
  if (ns < static_cast<uint64_t>(kSub)) {
    return static_cast<int>(ns);
  }
  const int exp = std::min(63 - std::countl_zero(ns), kMaxExp);
  if (exp == kMaxExp && ns >= (uint64_t{1} << kMaxExp)) {
    return kBuckets - 1;
  }
  // mantissa in [kSub, 2 * kSub)
  const int mantissa = static_cast<int>(ns >> (exp - kSubBits));
  return (exp - kSubBits + 1) * kSub + (mantissa - kSub);
}

double LatencyHistogram::BucketLow(int bucket) {
  if (bucket < kSub) {
    return bucket;
  }
  const int exp = bucket / kSub - 1 + kSubBits;
  const int mantissa = bucket % kSub + kSub;
  return std::ldexp(static_cast<double>(mantissa), exp - kSubBits);
}

double LatencyHistogram::BucketWidth(int bucket) {
  if (bucket < kSub) {
    return 1.0;
  }
  return std::ldexp(1.0, bucket / kSub - 1);
}

void LatencyHistogram::Record(uint64_t ns) {
  counts_[BucketFor(ns)]++;
  count_++;
  sum_ns_ += ns;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; i++) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

int LatencyHistogram::BucketOfRank(double q) const {
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; i++) {
    seen += counts_[i];
    if (seen >= rank) {
      return i;
    }
  }
  return kBuckets - 1;
}

double LatencyHistogram::PercentileNs(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const int b = BucketOfRank(q);
  // Buckets below 64 ns hold one integer value each: report it exactly.
  return b < kSub ? b : BucketLow(b) + BucketWidth(b) / 2;
}

uint64_t LatencyHistogram::CountAbove(double q) const {
  if (count_ == 0) {
    return 0;
  }
  uint64_t above = 0;
  for (int i = BucketOfRank(q) + 1; i < kBuckets; i++) {
    above += counts_[i];
  }
  return above;
}

}  // namespace perfbench
