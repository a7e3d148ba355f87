// Latency recorder for the benchmark.
//
// Log-linear buckets: values below 64 ns get one bucket each; above that every
// power-of-two octave is split into 64 equal sub-buckets. A bucket is at most
// 1/64 of its lower bound wide and a percentile reports the bucket midpoint,
// so every reported value is within 1/128 (< 0.8 %) of a recorded sample.
// (The program's own src/common/histogram uses power-of-two buckets, whose
// midpoint can be off by up to 50 %: too coarse for a 10 % regression bound.)
//
// Not thread-safe: each load thread owns one recorder and the benchmark merges
// them after the threads are joined.

#ifndef PERFBENCH_RECORDER_H_
#define PERFBENCH_RECORDER_H_

#include <cstdint>
#include <vector>

namespace perfbench {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;  // 64 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxExp = 44;  // 2^44 ns ~ 4.9 h: beyond any call
  static constexpr int kBuckets = (kMaxExp - kSubBits + 1) * kSub + kSub;

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Record(uint64_t ns);
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  double MeanNs() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_ns_) / count_; }

  // Value at quantile q in (0, 1]: the midpoint of the bucket holding the
  // ceil(q * count)-th smallest sample; 0 when empty.
  double PercentileNs(double q) const;

  // Samples strictly above the q quantile's bucket: how many observations the
  // reported percentile rests on.
  uint64_t CountAbove(double q) const;


 private:
  static int BucketFor(uint64_t ns);
  static double BucketLow(int bucket);
  static double BucketWidth(int bucket);
  int BucketOfRank(double q) const;

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_RECORDER_H_
