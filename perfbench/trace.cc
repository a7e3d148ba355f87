#include "perfbench/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

const char* FsOpName(FsOp op) {
  switch (op) {
    case FsOp::kLookup:
      return "fs.lookup";
    case FsOp::kCreate:
      return "fs.create";
    case FsOp::kUnlink:
      return "fs.unlink";
    case FsOp::kRename:
      return "fs.rename";
    case FsOp::kReadDir:
      return "fs.readdir";
    case FsOp::kGetAttr:
      return "fs.getattr";
    case FsOp::kRead:
      return "fs.read";
    case FsOp::kWrite:
      return "fs.write";
    case FsOp::kTruncate:
      return "fs.truncate";
    case FsOp::kFsync:
      return "fs.fsync";
    case FsOp::kSyncFs:
      return "fs.syncfs";
    case FsOp::kOther:
    case FsOp::kCount:
      break;
  }
  return "fs.other";
}

uint64_t Tracer::NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

Tracer::ThreadState& Tracer::Local() {
  thread_local uint64_t owner = 0;
  thread_local ThreadState* state = nullptr;
  if (owner != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadState>());
    state = threads_.back().get();
    state->index = static_cast<uint32_t>(threads_.size());
    state->spans.reserve(1024);
    owner = generation_;
  }
  return *state;
}

void Tracer::Keep(ThreadState& t, const Span& s) {
  if (t.spans.size() < kMaxSpansPerThread) {
    t.spans.push_back(s);
  } else {
    t.dropped++;
  }
}

void Tracer::BeginApi() {
  ThreadState& t = Local();
  t.open_call = NextId(t);
  t.open_child_ns = 0;
}

void Tracer::EndApi(std::string_view name, uint64_t start_ns, uint64_t end_ns) {
  ThreadState& t = Local();
  const uint64_t dur = end_ns - start_ns;
  t.api_calls.fetch_add(1, std::memory_order_relaxed);
  t.api_ns.fetch_add(dur, std::memory_order_relaxed);
  t.api_self_ns.fetch_add(dur - std::min(dur, t.open_child_ns), std::memory_order_relaxed);
  Keep(t, Span{t.open_call, 0, start_ns, end_ns, name});
  t.open_call = 0;
}

void Tracer::FsSpan(FsOp op, uint64_t start_ns, uint64_t end_ns) {
  ThreadState& t = Local();
  const uint64_t dur = end_ns - start_ns;
  const size_t i = static_cast<size_t>(op);
  t.fs_op_calls[i].fetch_add(1, std::memory_order_relaxed);
  t.fs_op_ns[i].fetch_add(dur, std::memory_order_relaxed);
  if (op == FsOp::kWrite) {
    t.fs_write.Record(dur);
  }
  if (t.open_call != 0) {
    t.open_child_ns += dur;
  } else {
    t.orphan_fs_ns.fetch_add(dur, std::memory_order_relaxed);
  }
  Keep(t, Span{NextId(t), t.open_call, start_ns, end_ns, FsOpName(op)});
}

TraceTotals Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  TraceTotals out;
  for (const auto& t : threads_) {
    out.api_calls += t->api_calls.load(std::memory_order_relaxed);
    out.api_ns += t->api_ns.load(std::memory_order_relaxed);
    out.api_self_ns += t->api_self_ns.load(std::memory_order_relaxed);
    out.orphan_fs_ns += t->orphan_fs_ns.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kFsOps; i++) {
      const uint64_t calls = t->fs_op_calls[i].load(std::memory_order_relaxed);
      out.fs_op_calls[i] += calls;
      out.fs_op_ns[i] += t->fs_op_ns[i].load(std::memory_order_relaxed);
      out.fs_calls += calls;
    }
    out.fs_write.Merge(t->fs_write);
    out.spans_kept += t->spans.size();
    out.spans_dropped += t->dropped;
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id\tparent\tthread\tname\tstart_ns\tend_ns\n");
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    for (const Span& s : t->spans) {
      std::fprintf(f, "%llu\t%llu\t%u\t%.*s\t%llu\t%llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), t->index,
                   static_cast<int>(s.name.size()), s.name.data(),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
