// Span tracing for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around the calls it makes
// into each layer: TimedApi (timed_api.h) opens one span per FsApi call, and
// TracingFs, a FileSystem decorator the benchmark mounts between Vfs and
// HinfsFs, opens one per FileSystem call. A FileSystem span that runs on the
// thread of an open FsApi span is its child and shares its call id; under the
// in-process hinfsd server the FileSystem calls run on server worker threads,
// so those spans have no parent and their layer's time is taken from totals.
//
// Each thread keeps its spans in memory (the first kMaxSpansPerThread of
// them) and its per-layer totals, which are exact because they are summed as
// every span closes: a parent's self time is its duration minus the
// durations of the child spans that closed inside it. WriteSpans() writes the
// kept spans out once the run is over.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "perfbench/recorder.h"
#include "src/vfs/file_system.h"

namespace perfbench {

// FileSystem entry points, as TracingFs names them.
enum class FsOp : uint8_t {
  kLookup,
  kCreate,
  kUnlink,
  kRename,
  kReadDir,
  kGetAttr,
  kRead,
  kWrite,
  kTruncate,
  kFsync,
  kSyncFs,
  kOther,
  kCount,
};
inline constexpr size_t kFsOps = static_cast<size_t>(FsOp::kCount);
const char* FsOpName(FsOp op);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::string_view name;  // points at a string literal
};

// Per-layer totals, summed over every thread that traced.
struct TraceTotals {
  uint64_t api_calls = 0;
  uint64_t api_ns = 0;
  uint64_t api_self_ns = 0;       // FsApi time not covered by a child FS span
  uint64_t fs_calls = 0;
  uint64_t orphan_fs_ns = 0;      // FS spans with no FsApi parent (server threads)
  std::array<uint64_t, kFsOps> fs_op_calls{};
  std::array<uint64_t, kFsOps> fs_op_ns{};
  LatencyHistogram fs_write;      // FileSystem::Write span durations
  uint64_t spans_kept = 0;
  uint64_t spans_dropped = 0;
};

class Tracer {
 public:
  static constexpr size_t kMaxSpansPerThread = 1 << 16;

  Tracer() : generation_(next_generation_.fetch_add(1) + 1) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Spans are recorded only while enabled.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  static uint64_t NowNs();

  // Opens an FsApi span on this thread, so FS spans can find their parent,
  // and closes it; `name` must be a string literal.
  void BeginApi();
  void EndApi(std::string_view name, uint64_t start_ns, uint64_t end_ns);
  // FileSystem span; parented to the thread's open FsApi span if any.
  void FsSpan(FsOp op, uint64_t start_ns, uint64_t end_ns);

  // Only valid once every thread that traced has been joined or stopped.
  TraceTotals Totals() const;
  // Writes kept spans as tab-separated lines: id, parent, thread, name,
  // start_ns, end_ns. Returns false on an I/O error.
  bool WriteSpans(const std::string& path) const;

 private:
  struct ThreadState {
    uint32_t index = 0;
    uint64_t next_seq = 1;
    uint64_t open_call = 0;  // id of the open FsApi span, 0 if none
    uint64_t open_child_ns = 0;
    std::vector<Span> spans;
    uint64_t dropped = 0;
    // Relaxed atomics: server worker threads keep updating their own state
    // while the server is still running; Totals() runs after they stop.
    std::atomic<uint64_t> api_calls{0}, api_ns{0}, api_self_ns{0};
    std::atomic<uint64_t> orphan_fs_ns{0};
    std::array<std::atomic<uint64_t>, kFsOps> fs_op_calls{}, fs_op_ns{};
    LatencyHistogram fs_write;
  };

  ThreadState& Local();
  uint64_t NextId(ThreadState& t) { return (uint64_t{t.index} << 40) | t.next_seq++; }
  static void Keep(ThreadState& t, const Span& s);

  // Distinguishes tracers for the thread-local state cache in Local().
  static inline std::atomic<uint64_t> next_generation_{0};
  const uint64_t generation_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

// FileSystem decorator that records a span per call and forwards to `inner`.
class TracingFs final : public hinfs::FileSystem {
 public:
  TracingFs(hinfs::FileSystem* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  std::string Name() const override { return inner_->Name(); }

  hinfs::Result<uint64_t> Lookup(uint64_t dir_ino, std::string_view name) override {
    return Traced(FsOp::kLookup, [&] { return inner_->Lookup(dir_ino, name); });
  }
  hinfs::Result<uint64_t> Create(uint64_t dir_ino, std::string_view name,
                                 hinfs::FileType type) override {
    return Traced(FsOp::kCreate, [&] { return inner_->Create(dir_ino, name, type); });
  }
  hinfs::Status Unlink(uint64_t dir_ino, std::string_view name) override {
    return Traced(FsOp::kUnlink, [&] { return inner_->Unlink(dir_ino, name); });
  }
  hinfs::Status Rename(uint64_t old_dir, std::string_view old_name, uint64_t new_dir,
                       std::string_view new_name) override {
    return Traced(FsOp::kRename,
                  [&] { return inner_->Rename(old_dir, old_name, new_dir, new_name); });
  }
  hinfs::Result<std::vector<hinfs::DirEntry>> ReadDir(uint64_t dir_ino) override {
    return Traced(FsOp::kReadDir, [&] { return inner_->ReadDir(dir_ino); });
  }
  hinfs::Result<hinfs::InodeAttr> GetAttr(uint64_t ino) override {
    return Traced(FsOp::kGetAttr, [&] { return inner_->GetAttr(ino); });
  }
  hinfs::Result<size_t> Read(uint64_t ino, uint64_t offset, void* dst, size_t len) override {
    return Traced(FsOp::kRead, [&] { return inner_->Read(ino, offset, dst, len); });
  }
  hinfs::Result<size_t> Write(uint64_t ino, uint64_t offset, const void* src, size_t len,
                              const hinfs::WriteOptions& options) override {
    return Traced(FsOp::kWrite, [&] { return inner_->Write(ino, offset, src, len, options); });
  }
  hinfs::Status Truncate(uint64_t ino, uint64_t new_size) override {
    return Traced(FsOp::kTruncate, [&] { return inner_->Truncate(ino, new_size); });
  }
  hinfs::Status Fsync(uint64_t ino, const hinfs::SyncOptions& options) override {
    return Traced(FsOp::kFsync, [&] { return inner_->Fsync(ino, options); });
  }
  using FileSystem::Fsync;
  hinfs::Status SyncFs() override {
    return Traced(FsOp::kSyncFs, [&] { return inner_->SyncFs(); });
  }
  hinfs::Status DropCaches() override {
    return Traced(FsOp::kOther, [&] { return inner_->DropCaches(); });
  }
  hinfs::Status Unmount() override { return inner_->Unmount(); }
  hinfs::Result<uint8_t*> Mmap(uint64_t ino, uint64_t offset, size_t len) override {
    return Traced(FsOp::kOther, [&] { return inner_->Mmap(ino, offset, len); });
  }
  hinfs::Status Munmap(uint64_t ino) override {
    return Traced(FsOp::kOther, [&] { return inner_->Munmap(ino); });
  }
  hinfs::Status Msync(uint64_t ino, uint64_t offset, size_t len) override {
    return Traced(FsOp::kOther, [&] { return inner_->Msync(ino, offset, len); });
  }
  bool SupportsLoggedDurability() const override { return inner_->SupportsLoggedDurability(); }

 private:
  template <typename Fn>
  std::invoke_result_t<Fn> Traced(FsOp op, Fn&& fn) {
    if (!tracer_->enabled()) {
      return fn();
    }
    const uint64_t start = Tracer::NowNs();
    auto result = fn();
    tracer_->FsSpan(op, start, Tracer::NowNs());
    return result;
  }

  hinfs::FileSystem* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
