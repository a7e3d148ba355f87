// TimedApi: the benchmark's clock around the program. It wraps one load
// thread's FsApi (the in-process VfsApi, or a hinfsd server::Client), times
// every call from outside, files the latency under its class, and counts
// calls, failures and user bytes. In the traced run it also opens the FsApi
// span that FileSystem spans on the same thread nest under.

#ifndef PERFBENCH_TIMED_API_H_
#define PERFBENCH_TIMED_API_H_

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "perfbench/recorder.h"
#include "perfbench/trace.h"
#include "src/vfs/fs_api.h"

namespace perfbench {

// Latency classes of the end-to-end metrics.
enum class OpClass : uint8_t {
  kRead,   // Read, Pread
  kWrite,  // Write, Pwrite
  kFsync,  // Fsync, Fdatasync, Sync
  kMeta,   // Open, Close, Stat, Fstat, Exists, Unlink, Mkdir, Rmdir, Rename, ReadDir
  kOther,  // Seek, Ftruncate, SyncFs
  kCount,
};
inline constexpr size_t kOpClasses = static_cast<size_t>(OpClass::kCount);

struct CallStats {
  using ClassHistograms = std::array<LatencyHistogram, kOpClasses>;

  explicit CallStats(size_t n_windows = 1) : windows(n_windows) {}

  // Whole-run latency per class, and the same split into equal time windows
  // (by completion time) so percentiles can be taken per window.
  ClassHistograms latency;
  std::vector<ClassHistograms> windows;
  std::vector<uint64_t> window_calls;
  uint64_t calls = 0;
  // kNotFound/kExists/kIsDir: the personalities' own delete races, which
  // filebench tolerates. Counted, but not as failures.
  uint64_t benign = 0;
  uint64_t failed = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  std::vector<std::string> first_failures;  // at most kKeptFailures

  static constexpr size_t kKeptFailures = 4;
  void Merge(const CallStats& other);
};

class TimedApi final : public hinfs::FsApi {
 public:
  // `tracer` may be null (end-to-end run). Calls completing in
  // [start_ns + i * window_ns, start_ns + (i + 1) * window_ns) land in window
  // i of `windows`; later ones in the last window.
  TimedApi(hinfs::FsApi* inner, Tracer* tracer, uint64_t start_ns, uint64_t window_ns,
           size_t windows)
      : inner_(inner),
        tracer_(tracer),
        start_ns_(start_ns),
        window_ns_(window_ns),
        stats_(windows) {
    stats_.window_calls.assign(windows, 0);
  }

  const CallStats& stats() const { return stats_; }

  hinfs::Result<int> Open(std::string_view path, uint32_t flags) override {
    return Call(OpClass::kMeta, "api.open", [&] { return inner_->Open(path, flags); });
  }
  hinfs::Status Close(int fd) override {
    return Call(OpClass::kMeta, "api.close", [&] { return inner_->Close(fd); });
  }
  hinfs::Result<size_t> Read(int fd, void* dst, size_t len) override {
    return Bytes(&stats_.bytes_read,
                 Call(OpClass::kRead, "api.read", [&] { return inner_->Read(fd, dst, len); }));
  }
  hinfs::Result<size_t> Write(int fd, const void* src, size_t len) override {
    return Bytes(&stats_.bytes_written, Call(OpClass::kWrite, "api.write",
                                             [&] { return inner_->Write(fd, src, len); }));
  }
  hinfs::Result<size_t> Pread(int fd, void* dst, size_t len, uint64_t offset) override {
    return Bytes(&stats_.bytes_read, Call(OpClass::kRead, "api.pread", [&] {
                   return inner_->Pread(fd, dst, len, offset);
                 }));
  }
  hinfs::Result<size_t> Pwrite(int fd, const void* src, size_t len, uint64_t offset) override {
    return Bytes(&stats_.bytes_written, Call(OpClass::kWrite, "api.pwrite", [&] {
                   return inner_->Pwrite(fd, src, len, offset);
                 }));
  }
  hinfs::Result<uint64_t> Seek(int fd, uint64_t offset) override {
    return Call(OpClass::kOther, "api.seek", [&] { return inner_->Seek(fd, offset); });
  }
  hinfs::Status Fsync(int fd) override {
    return Call(OpClass::kFsync, "api.fsync", [&] { return inner_->Fsync(fd); });
  }
  hinfs::Status Fdatasync(int fd) override {
    return Call(OpClass::kFsync, "api.fdatasync", [&] { return inner_->Fdatasync(fd); });
  }
  hinfs::Status Sync(int fd, const hinfs::SyncOptions& options) override {
    return Call(OpClass::kFsync, "api.sync", [&] { return inner_->Sync(fd, options); });
  }
  hinfs::Status Ftruncate(int fd, uint64_t size) override {
    return Call(OpClass::kOther, "api.ftruncate", [&] { return inner_->Ftruncate(fd, size); });
  }
  hinfs::Result<hinfs::InodeAttr> Fstat(int fd) override {
    return Call(OpClass::kMeta, "api.fstat", [&] { return inner_->Fstat(fd); });
  }
  hinfs::Status Mkdir(std::string_view path) override {
    return Call(OpClass::kMeta, "api.mkdir", [&] { return inner_->Mkdir(path); });
  }
  hinfs::Status Rmdir(std::string_view path) override {
    return Call(OpClass::kMeta, "api.rmdir", [&] { return inner_->Rmdir(path); });
  }
  hinfs::Status Unlink(std::string_view path) override {
    return Call(OpClass::kMeta, "api.unlink", [&] { return inner_->Unlink(path); });
  }
  hinfs::Status Rename(std::string_view from, std::string_view to) override {
    return Call(OpClass::kMeta, "api.rename", [&] { return inner_->Rename(from, to); });
  }
  hinfs::Result<hinfs::InodeAttr> Stat(std::string_view path) override {
    return Call(OpClass::kMeta, "api.stat", [&] { return inner_->Stat(path); });
  }
  hinfs::Result<std::vector<hinfs::DirEntry>> ReadDir(std::string_view path) override {
    return Call(OpClass::kMeta, "api.readdir", [&] { return inner_->ReadDir(path); });
  }
  hinfs::Result<bool> Exists(std::string_view path) override {
    return Call(OpClass::kMeta, "api.exists", [&] { return inner_->Exists(path); });
  }
  hinfs::Status SyncFs() override {
    return Call(OpClass::kOther, "api.syncfs", [&] { return inner_->SyncFs(); });
  }

 private:
  static const hinfs::Status& StatusOf(const hinfs::Status& s) { return s; }
  template <typename T>
  static const hinfs::Status& StatusOf(const hinfs::Result<T>& r) {
    return r.status();
  }

  template <typename Fn>
  std::invoke_result_t<Fn> Call(OpClass cls, std::string_view name, Fn&& fn) {
    const bool trace = tracer_ != nullptr && tracer_->enabled();
    if (trace) {
      tracer_->BeginApi();
    }
    const uint64_t start = Tracer::NowNs();
    auto result = fn();
    const uint64_t end = Tracer::NowNs();
    if (trace) {
      tracer_->EndApi(name, start, end);
    }
    const size_t w = std::min<size_t>((end - std::min(end, start_ns_)) / window_ns_,
                                      stats_.windows.size() - 1);
    stats_.latency[static_cast<size_t>(cls)].Record(end - start);
    stats_.windows[w][static_cast<size_t>(cls)].Record(end - start);
    stats_.window_calls[w]++;
    stats_.calls++;
    Classify(StatusOf(result), name);
    return result;
  }

  void Classify(const hinfs::Status& st, std::string_view name);

  static hinfs::Result<size_t> Bytes(uint64_t* counter, hinfs::Result<size_t> r) {
    if (r.ok()) {
      *counter += *r;
    }
    return r;
  }

  hinfs::FsApi* inner_;
  Tracer* tracer_;
  uint64_t start_ns_;
  uint64_t window_ns_;
  CallStats stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_API_H_
