#include "perfbench/timed_api.h"

#include <algorithm>

namespace perfbench {

void CallStats::Merge(const CallStats& other) {
  windows.resize(std::max(windows.size(), other.windows.size()));
  window_calls.resize(windows.size(), 0);
  for (size_t i = 0; i < kOpClasses; i++) {
    latency[i].Merge(other.latency[i]);
    for (size_t w = 0; w < other.windows.size(); w++) {
      windows[w][i].Merge(other.windows[w][i]);
    }
  }
  for (size_t w = 0; w < other.window_calls.size(); w++) {
    window_calls[w] += other.window_calls[w];
  }
  calls += other.calls;
  benign += other.benign;
  failed += other.failed;
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  for (const std::string& f : other.first_failures) {
    if (first_failures.size() < kKeptFailures) {
      first_failures.push_back(f);
    }
  }
}

void TimedApi::Classify(const hinfs::Status& st, std::string_view name) {
  if (st.ok()) {
    return;
  }
  const hinfs::ErrorCode code = st.code();
  if (code == hinfs::ErrorCode::kNotFound || code == hinfs::ErrorCode::kExists ||
      code == hinfs::ErrorCode::kIsDir) {
    stats_.benign++;
    return;
  }
  stats_.failed++;
  if (stats_.first_failures.size() < CallStats::kKeptFailures) {
    stats_.first_failures.push_back(std::string(name) + ": " + st.ToString());
  }
}

}  // namespace perfbench
