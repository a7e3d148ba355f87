// hinfs_perfbench: the HiNFS benchmark program.
//
//   hinfs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>]
//   hinfs_perfbench --self-test
//
// Runs one closed-loop filebench workload with two load threads against
// HiNFS on the paper's emulator (200 ns spin per flushed cacheline, 1 GiB/s
// NVMM write bandwidth), checks that the file system came through intact,
// and prints one JSON result as the last line of stdout (perfbench/run.py
// builds this program and documents the metrics; perfbench/README.md maps
// each per-layer metric to the end-to-end metric it should move).
//
// --trace 0: the end-to-end run. The file system is set up kSetupRepeats
//   times (the median is setup_s), the last set-up is measured for
//   --seconds, and every FsApi call is timed from outside (TimedApi) into
//   time windows (see kWindows).
// --trace 1: the layer run. An untraced run and a traced run of --seconds/2
//   each, on fresh set-ups with the same seed. The traced run mounts
//   TracingFs between Vfs and HinfsFs, records spans, and snapshots the
//   public counters of the buffer, the NVMM device and the server; its
//   ops/s against the untraced run's gives trace.overhead_frac.
//
// Correctness, after every measured run: SyncFs, checksum every file through
// FsApi, stop the server, unmount, require a clean FsckPmfs, mount the same
// device again with HinfsFs::Mount and require identical checksums.

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/recorder.h"
#include "perfbench/timed_api.h"
#include "perfbench/trace.h"
#include "src/common/stats.h"
#include "src/fs/pmfs/fsck.h"
#include "src/hinfs/hinfs_fs.h"
#include "src/nvmm/nvmm_device.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/vfs/fs_api.h"
#include "src/vfs/vfs.h"
#include "src/workloads/filebench.h"

extern char** environ;

namespace perfbench {
namespace {

using hinfs::ErrorCode;
using hinfs::FsApi;
using hinfs::Personality;
using hinfs::Result;
using hinfs::Status;

constexpr size_t kKiB = 1024;
constexpr size_t kMiB = 1024 * 1024;
// Two closed-loop load threads (or blocking connections) on a 4-core host:
// the other cores stay free for background writeback and server workers.
constexpr int kLoadThreads = 2;
constexpr int kSetupRepeats = 5;
// A run is cut into kWindows equal windows, and only some of them count: not
// the first kWarmupWindows (the buffer still holds the freshly written
// fileset), and of the rest only those in which the VM lost no more CPU to
// the hypervisor (steal time) than in its kCleanWindows-th least-stolen
// window. On a shared host a few percent of steal in a window costs
// varmail-wire 10-40 % of that window's throughput; on a host without steal
// every window after the warm-up counts. Throughput is the median over the
// counted windows; latency percentiles are taken over the pooled samples of
// the counted windows.
constexpr size_t kWindows = 20;
constexpr size_t kWarmupWindows = 2;
constexpr size_t kCleanWindows = 3;

struct WorkloadSpec {
  const char* name;
  Personality personality;
  bool wire;  // behind an in-process hinfsd Server on a Unix socket
  size_t device_bytes;
  size_t buffer_bytes;
  size_t nfiles;
  size_t mean_file_size;
  size_t io_size;
};

const WorkloadSpec kWorkloads[] = {
    // ~64 MiB fileset, 4x the 16 MiB buffer: the buffer stays full, so
    // eviction, background writeback, CLFW and the NVMM flush path set
    // throughput. No fsync. Keep this size: it is where HiNFS falls below
    // PMFS, and later changes must be able to see that gap move.
    {"fileserver", Personality::kFileserver, false, 512 * kMiB, 16 * kMiB, 512, 128 * kKiB,
     64 * kKiB},
    // ~12 MiB fileset inside the default 64 MiB buffer; ten whole-file reads
    // per 4 KiB log append. Reads hit the fd table, dcache and lock-free
    // buffer LUT; the NVMM write path is nearly idle (the control for
    // write-path changes). The two logs only grow, by ~50 MB/s at ~350k
    // flowops/s, so the device leaves room for a 3x faster program over a
    // 10 s run.
    {"webserver", Personality::kWebserver, false, 1536 * kMiB, 64 * kMiB, 96, 128 * kKiB,
     64 * kKiB},
    // hinfsd with its shipped defaults (2 workers, auto backend, stall-hiding
    // interleave) and two blocking clients at depth 1; each 16 KiB append is
    // followed by fdatasync. The only workload on the server layer and the
    // fsync path.
    {"varmail-wire", Personality::kVarmail, true, 256 * kMiB, 64 * kMiB, 96, 128 * kKiB,
     16 * kKiB},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
  bool self_test = false;
};

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- host description -----------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string Kernel() {
  utsname u{};
  if (uname(&u) != 0) {
    return "unknown";
  }
  return std::string(u.sysname) + " " + u.release;
}

// Peak resident set of the process minus the emulated NVMM image, which is
// zero-filled (so wholly resident) when the device is built and is sized by
// the workload, not chosen by the program. At most one device is alive at a
// time.
double PeakRssMb(uint64_t device_bytes) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak = static_cast<double>(ru.ru_maxrss) * 1024.0;  // ru_maxrss is in KiB
  return (peak - static_cast<double>(device_bytes)) / static_cast<double>(kMiB);
}

// HinfsOptions::FromEnv and the server read HINFS_* variables; any of them
// would silently change the measured program.
bool RefuseHinfsEnv() {
  bool found = false;
  for (char** e = environ; *e != nullptr; e++) {
    if (std::strncmp(*e, "HINFS_", 6) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      found = true;
    }
  }
  return found;
}

// --- the system under test ---------------------------------------------------------

hinfs::FilebenchConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  hinfs::FilebenchConfig cfg;
  cfg.nfiles = spec.nfiles;
  cfg.dir_width = 16;
  cfg.mean_file_size = spec.mean_file_size;
  cfg.io_size = spec.io_size;
  cfg.threads = kLoadThreads;
  cfg.seed = seed;
  cfg.duration_ms = static_cast<uint64_t>(seconds * 1000);
  return cfg;
}

// One formatted HiNFS instance and the per-thread front-ends that load it.
// Members are destroyed bottom-up: clients, server, Vfs, file system, device.
struct Bed {
  hinfs::HinfsOptions hopts;
  std::unique_ptr<hinfs::NvmmDevice> nvmm;
  std::unique_ptr<hinfs::HinfsFs> hinfs;
  std::unique_ptr<TracingFs> tracing;  // traced run only
  std::unique_ptr<hinfs::Vfs> vfs;
  std::unique_ptr<hinfs::VfsApi> vfs_api;
  std::unique_ptr<hinfs::server::Server> server;
  std::vector<std::unique_ptr<hinfs::server::Client>> clients;
  std::vector<FsApi*> apis;  // one per load thread
  uint64_t setup_bytes_written = 0;  // the fileset, through FsApi
};

// The emulated NVMM stands in for the hardware: it is built before the
// set-up clock starts.
std::unique_ptr<hinfs::NvmmDevice> MakeDevice(const WorkloadSpec& spec) {
  hinfs::NvmmConfig ncfg;
  ncfg.size_bytes = spec.device_bytes;
  ncfg.latency_mode = hinfs::LatencyMode::kSpin;
  ncfg.write_latency_ns = 200;
  ncfg.write_bandwidth_bytes_per_sec = 1ull << 30;
  return std::make_unique<hinfs::NvmmDevice>(ncfg);
}

// Formats HiNFS on a fresh device, writes the fileset and starts the front-ends.
Result<std::unique_ptr<Bed>> Setup(std::unique_ptr<hinfs::NvmmDevice> nvmm,
                                   const WorkloadSpec& spec, const hinfs::FilebenchConfig& cfg,
                                   Tracer* tracer, const std::string& sock) {
  auto bed = std::make_unique<Bed>();
  bed->nvmm = std::move(nvmm);
  bed->hopts.buffer_bytes = spec.buffer_bytes;
  hinfs::PmfsOptions popts;
  popts.max_inodes = 1 << 14;
  HINFS_ASSIGN_OR_RETURN(bed->hinfs, hinfs::HinfsFs::Format(bed->nvmm.get(), bed->hopts, popts));
  hinfs::FileSystem* top = bed->hinfs.get();
  if (tracer != nullptr) {
    bed->tracing = std::make_unique<TracingFs>(top, tracer);
    top = bed->tracing.get();
  }
  bed->vfs = std::make_unique<hinfs::Vfs>(top);
  bed->vfs_api = std::make_unique<hinfs::VfsApi>(bed->vfs.get());

  // The fileset is written in-process, before any server starts: it is the
  // workload's input, not part of the measured path. It is left as written,
  // buffered in DRAM as far as it fits (webserver's reads are meant to hit
  // the buffer). A SyncFs of a fileset this size through hinfsd takes over a
  // minute: a server worker banks every bandwidth-limiter wait of the flush
  // as a separate stall.
  TimedApi prepare(bed->vfs_api.get(), nullptr, Tracer::NowNs(), UINT64_MAX / 2, 1);
  HINFS_RETURN_IF_ERROR(hinfs::PrepareFileset(&prepare, cfg));
  bed->setup_bytes_written = prepare.stats().bytes_written;

  if (spec.wire) {
    hinfs::server::ServerOptions so;  // hinfsd's defaults apart from the listener
    so.unix_path = sock;
    bed->server = std::make_unique<hinfs::server::Server>(bed->vfs.get(), so);
    HINFS_RETURN_IF_ERROR(bed->server->Start());
    for (int i = 0; i < kLoadThreads; i++) {
      HINFS_ASSIGN_OR_RETURN(auto client, hinfs::server::Client::ConnectUnix(sock));
      bed->apis.push_back(client.get());
      bed->clients.push_back(std::move(client));
    }
  } else {
    bed->apis.assign(kLoadThreads, bed->vfs_api.get());
  }
  return bed;
}

// Disconnects the clients and drains the server (joining its threads), then
// unmounts and drops the file-system objects; the device stays.
Status Unmount(Bed& bed) {
  bed.apis.clear();
  bed.clients.clear();
  if (bed.server != nullptr) {
    bed.server->Stop();
  }
  Status st = bed.vfs->Unmount();
  bed.vfs_api.reset();
  bed.vfs.reset();
  bed.tracing.reset();
  bed.hinfs.reset();
  return st;
}

// --- correctness ------------------------------------------------------------------

using FileSums = std::map<std::string, std::pair<uint64_t, uint64_t>>;  // path -> size, FNV-1a

Status ChecksumTree(FsApi* api, const std::string& dir, FileSums* out) {
  HINFS_ASSIGN_OR_RETURN(std::vector<hinfs::DirEntry> entries, api->ReadDir(dir));
  std::vector<uint8_t> buf(64 * kKiB);
  for (const hinfs::DirEntry& e : entries) {
    const std::string path = (dir == "/" ? "" : dir) + "/" + e.name;
    if (e.type == hinfs::FileType::kDirectory) {
      HINFS_RETURN_IF_ERROR(ChecksumTree(api, path, out));
      continue;
    }
    HINFS_ASSIGN_OR_RETURN(int fd, api->Open(path, hinfs::kRdOnly));
    uint64_t size = 0;
    uint64_t hash = 1469598103934665603ull;
    while (true) {
      Result<size_t> n = api->Read(fd, buf.data(), buf.size());
      if (!n.ok()) {
        (void)api->Close(fd);
        return n.status();
      }
      for (size_t i = 0; i < *n; i++) {
        hash = (hash ^ buf[i]) * 1099511628211ull;
      }
      size += *n;
      if (*n < buf.size()) {
        break;
      }
    }
    HINFS_RETURN_IF_ERROR(api->Close(fd));
    (*out)[path] = {size, hash};
  }
  return hinfs::OkStatus();
}

struct VerifyReport {
  uint64_t files = 0;
  uint64_t bytes = 0;
};

Result<VerifyReport> Verify(Bed& bed) {
  FileSums before;
  HINFS_RETURN_IF_ERROR(bed.apis[0]->SyncFs());
  HINFS_RETURN_IF_ERROR(ChecksumTree(bed.apis[0], "/", &before));
  HINFS_RETURN_IF_ERROR(Unmount(bed));

  HINFS_ASSIGN_OR_RETURN(hinfs::FsckReport fsck, hinfs::FsckPmfs(bed.nvmm.get()));
  if (!fsck.clean()) {
    return Status(ErrorCode::kCorrupt, "fsck after unmount: " + fsck.Summary());
  }
  if (fsck.regular_files != before.size()) {
    return Status(ErrorCode::kCorrupt, "fsck counts " + std::to_string(fsck.regular_files) +
                                           " files, checksummed " +
                                           std::to_string(before.size()));
  }

  HINFS_ASSIGN_OR_RETURN(auto remounted, hinfs::HinfsFs::Mount(bed.nvmm.get(), bed.hopts));
  hinfs::Vfs vfs(remounted.get());
  hinfs::VfsApi api(&vfs);
  FileSums after;
  Status st = ChecksumTree(&api, "/", &after);
  Status unmount = vfs.Unmount();
  HINFS_RETURN_IF_ERROR(st);
  HINFS_RETURN_IF_ERROR(unmount);
  if (after != before) {
    for (const auto& [path, sum] : before) {
      auto it = after.find(path);
      if (it == after.end() || it->second != sum) {
        return Status(ErrorCode::kCorrupt, "after remount " + path + " differs");
      }
    }
    return Status(ErrorCode::kCorrupt, "after remount the tree holds extra files");
  }
  VerifyReport report;
  report.files = before.size();
  for (const auto& [path, sum] : before) {
    report.bytes += sum.first;
  }
  return report;
}

// --- one measured run ---------------------------------------------------------------

// Public counters of the layers below Vfs, read before and after a run.
struct Counters {
  uint64_t flushed_bytes = 0, flushed_lines = 0, loaded_bytes = 0, fences = 0;
  uint64_t limiter_fast = 0, limiter_slow = 0, max_unfenced_lines = 0;
  uint64_t buf_hits = 0, buf_misses = 0, wb_blocks = 0, wb_lines = 0, fetched_lines = 0;
  uint64_t stalls = 0, lock_contended = 0, lockfree_hits = 0, lockfree_fallbacks = 0;
  uint64_t wb_dirty_runs = 0, wb_flush_calls = 0, promotions_batched = 0;
  uint64_t promotions_drained = 0, frames_stolen = 0, wb_spurious = 0;
  uint64_t eager_writes = 0, lazy_writes = 0;
  uint64_t srv_requests = 0, srv_parked = 0, srv_deferred_ns = 0, srv_chained = 0;
  uint64_t srv_backpressure = 0;
};

Counters Snapshot(Bed& bed) {
  Counters c;
  hinfs::NvmmDevice& n = *bed.nvmm;
  c.flushed_bytes = n.flushed_bytes();
  c.flushed_lines = n.flushed_lines();
  c.loaded_bytes = n.loaded_bytes();
  c.fences = n.fence_count();
  c.limiter_fast = n.bandwidth().fast_acquires();
  c.limiter_slow = n.bandwidth().slow_acquires();
  c.max_unfenced_lines = n.max_unfenced_lines();
  hinfs::DramBufferManager& b = bed.hinfs->buffer();
  c.buf_hits = b.buffer_hits();
  c.buf_misses = b.buffer_misses();
  c.wb_blocks = b.writeback_blocks();
  c.wb_lines = b.writeback_lines();
  c.fetched_lines = b.fetched_lines();
  c.stalls = b.stall_count();
  c.lock_contended = b.lock_contended();
  c.lockfree_hits = b.lockfree_read_hits();
  c.lockfree_fallbacks = b.lockfree_read_fallbacks();
  c.wb_dirty_runs = b.wb_dirty_runs();
  c.wb_flush_calls = b.wb_flush_calls();
  c.promotions_batched = b.promotions_batched();
  c.promotions_drained = b.promotions_drained();
  c.frames_stolen = b.frames_stolen();
  c.wb_spurious = b.worker_spurious_wakeups();
  c.eager_writes = bed.hinfs->stats().Get(hinfs::kStatEagerWrites);
  c.lazy_writes = bed.hinfs->stats().Get(hinfs::kStatLazyWrites);
  if (bed.server != nullptr) {
    hinfs::StatsRegistry& s = bed.server->stats();
    c.srv_requests = s.Get(hinfs::kStatSrvRequestsServed);
    c.srv_parked = s.Get("srv_parked_responses");
    c.srv_deferred_ns = s.Get("srv_deferred_stall_ns");
    c.srv_chained = s.Get("srv_fd_chain_defers");
    c.srv_backpressure = s.Get(hinfs::kStatSrvBackpressureStalls);
  }
  return c;
}

// The VM's cumulative steal time in USER_HZ ticks (field 8 of /proc/stat's
// "cpu" line), or 0 where the kernel does not report it.
uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) {
    in >> x;
  }
  return in && cpu == "cpu" ? v[7] : 0;
}

struct RunResult {
  Status status;
  hinfs::WorkloadResult flowops;
  CallStats calls;
  Counters before, after;
  uint64_t window_ns = 0;
  std::vector<uint64_t> window_steal;  // steal ticks per window
  // NVMM bytes flushed from format through the closing SyncFs, and the user
  // bytes written through FsApi in set-up and run.
  uint64_t nvmm_bytes = 0;
  uint64_t user_bytes = 0;
  std::string backend = "in-process";
  VerifyReport verify;

  // Windows whose figures are reported (see kWindows).
  std::vector<size_t> CountedWindows() const {
    const size_t n = std::min(window_steal.size(), calls.window_calls.size());
    if (n <= kWarmupWindows) {
      return {};
    }
    std::vector<uint64_t> steal(window_steal.begin() + kWarmupWindows, window_steal.begin() + n);
    std::sort(steal.begin(), steal.end());
    const uint64_t limit = steal[std::min(kCleanWindows, steal.size()) - 1];
    std::vector<size_t> out;
    for (size_t w = kWarmupWindows; w < n; w++) {
      if (window_steal[w] <= limit) {
        out.push_back(w);
      }
    }
    return out;
  }

  // Median over the counted windows of the FsApi call rate, in flowops/s
  // (scaled by the run's flowops per call; the last window runs to the end).
  double ops_per_s() const {
    const size_t n = calls.window_calls.size();
    if (calls.calls == 0 || flowops.seconds <= 0) {
      return flowops.OpsPerSec();
    }
    const double window_s = Seconds(window_ns);
    std::vector<double> rates;
    for (size_t w : CountedWindows()) {
      const double len = w + 1 < n ? window_s : flowops.seconds - window_s * (n - 1);
      if (len > 0) {
        rates.push_back(static_cast<double>(calls.window_calls[w]) / len);
      }
    }
    return Median(rates) * static_cast<double>(flowops.ops) / static_cast<double>(calls.calls);
  }

  // The class's q-quantile over the samples of the counted windows, in µs.
  double PercentileUs(OpClass c, double q) const {
    LatencyHistogram pooled;
    for (size_t w : CountedWindows()) {
      pooled.Merge(calls.windows[w][static_cast<size_t>(c)]);
    }
    return pooled.PercentileNs(q) / 1000.0;
  }
};

// Runs the workload on `bed` for cfg.duration_ms, then verifies it. The bed
// is unmounted afterwards.
RunResult MeasureAndVerify(Bed& bed, const WorkloadSpec& spec, const hinfs::FilebenchConfig& cfg,
                           Tracer* tracer) {
  RunResult out;
  if (bed.server != nullptr) {
    out.backend = bed.server->backend_name();
  }
  std::vector<std::unique_ptr<TimedApi>> timed;
  std::vector<FsApi*> per_thread;
  const uint64_t start_ns = Tracer::NowNs();
  out.window_ns = std::max<uint64_t>(1, cfg.duration_ms * 1'000'000 / kWindows);
  for (FsApi* api : bed.apis) {
    timed.push_back(std::make_unique<TimedApi>(api, tracer, start_ns, out.window_ns, kWindows));
    per_thread.push_back(timed.back().get());
  }
  const uint64_t setup_flushed = bed.nvmm->flushed_bytes();
  bed.nvmm->ResetCounters();
  out.before = Snapshot(bed);
  if (tracer != nullptr) {
    tracer->set_enabled(true);
  }
  // Samples steal time at every window boundary; ends with the run's last
  // window, so joining it costs nothing after a run that reached its end.
  std::jthread steal_sampler([&] {
    uint64_t prev = StealTicks();
    for (size_t w = 1; w <= kWindows; w++) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(start_ns + w * out.window_ns)));
      const uint64_t now = StealTicks();
      out.window_steal.push_back(now - std::min(now, prev));
      prev = now;
    }
  });
  Result<hinfs::WorkloadResult> r = hinfs::RunFilebench(per_thread, spec.personality, cfg);
  steal_sampler.join();
  if (tracer != nullptr) {
    tracer->set_enabled(false);
  }
  out.after = Snapshot(bed);
  for (const auto& t : timed) {
    out.calls.Merge(t->stats());
  }
  if (!r.ok()) {
    out.status = r.status();
    return out;
  }
  out.flowops = *r;
  out.status = bed.apis[0]->SyncFs();
  out.nvmm_bytes = setup_flushed + bed.nvmm->flushed_bytes() - out.before.flushed_bytes;
  out.user_bytes = bed.setup_bytes_written + out.calls.bytes_written;
  if (!out.status.ok()) {
    return out;
  }
  Result<VerifyReport> v = Verify(bed);
  if (!v.ok()) {
    out.status = Status(v.status().code(), "correctness check: " + v.status().ToString());
  } else {
    out.verify = *v;
  }
  return out;
}

// --- output -------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

const char* ClassName(OpClass c) {
  switch (c) {
    case OpClass::kRead:
      return "read";
    case OpClass::kWrite:
      return "write";
    case OpClass::kFsync:
      return "fsync";
    case OpClass::kMeta:
      return "meta";
    case OpClass::kOther:
    case OpClass::kCount:
      break;
  }
  return "other";
}

double Us(double ns) { return ns / 1000.0; }

// Per-class sample counts beside the percentiles, and the per-window figures
// behind the medians, for the report line.
std::string ClassReport(const RunResult& run) {
  const CallStats& calls = run.calls;
  auto list = [](const std::vector<std::string>& items) {
    std::string s = "[";
    for (size_t i = 0; i < items.size(); i++) {
      s += (i > 0 ? ", " : "") + items[i];
    }
    return s + "]";
  };
  std::string s = "{";
  for (size_t i = 0; i < kOpClasses; i++) {
    const OpClass c = static_cast<OpClass>(i);
    const LatencyHistogram& h = calls.latency[i];
    std::vector<std::string> n, above, p99;
    for (const CallStats::ClassHistograms& w : calls.windows) {
      n.push_back(std::to_string(w[i].count()));
      above.push_back(std::to_string(w[i].CountAbove(0.99)));
      p99.push_back(Num(Us(w[i].PercentileNs(0.99))));
    }
    s += "\"" + std::string(ClassName(c)) + "\": {\"n\": " + std::to_string(h.count()) +
         ", \"p50_us\": " + Num(run.PercentileUs(c, 0.5)) +
         ", \"p99_us\": " + Num(run.PercentileUs(c, 0.99)) +
         ", \"mean_us\": " + Num(Us(h.MeanNs())) + ", \"window_n\": " + list(n) +
         ", \"window_n_above_p99\": " + list(above) + ", \"window_p99_us\": " + list(p99) +
         "}, ";
  }
  std::vector<std::string> window_calls, steal, counted;
  for (uint64_t v : calls.window_calls) {
    window_calls.push_back(std::to_string(v));
  }
  for (uint64_t v : run.window_steal) {
    steal.push_back(std::to_string(v));
  }
  for (size_t w : run.CountedWindows()) {
    counted.push_back(std::to_string(w));
  }
  return s + "\"window_calls\": " + list(window_calls) + ", \"window_steal_ticks\": " +
         list(steal) + ", \"counted_windows\": " + list(counted) + "}";
}

// The gated metrics. Latency percentiles are not among them: on a shared
// 4-vCPU KVM guest (Intel Xeon, 2.1 GHz), fileserver's p50s and p99s moved by
// 35-75 % between host regimes lasting tens of minutes with no code change,
// beyond any bound a regression gate can use. They are reported on the line
// before the result and, as api.*, in the layer run.
std::vector<Metric> EndToEndMetrics(const RunResult& run, double setup_s,
                                    uint64_t device_bytes) {
  return {
      {"ops_per_s", run.ops_per_s(), "ops/s"},
      {"nvmm_bytes_per_user_byte",
       Ratio(static_cast<double>(run.nvmm_bytes), static_cast<double>(run.user_bytes)),
       "B/B"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(device_bytes), "MB"},
  };
}

std::vector<Metric> LayerMetrics(const RunResult& untraced, const RunResult& traced,
                                 const TraceTotals& t, bool wire) {
  const Counters& a = traced.before;
  const Counters& b = traced.after;
  auto d = [&](uint64_t Counters::*f) { return static_cast<double>(b.*f - a.*f); };
  const double calls = static_cast<double>(traced.calls.calls);
  const double kcalls = calls / 1000.0;
  const double secs = traced.flowops.seconds;
  const double fsyncs =
      static_cast<double>(traced.calls.latency[static_cast<size_t>(OpClass::kFsync)].count());
  const double api_calls = static_cast<double>(t.api_calls);
  auto fs_mean_us = [&](FsOp op) {
    const size_t i = static_cast<size_t>(op);
    return Us(Ratio(static_cast<double>(t.fs_op_ns[i]), static_cast<double>(t.fs_op_calls[i])));
  };
  const double requests = d(&Counters::srv_requests);

  auto api_us = [&](OpClass c, double q) { return untraced.PercentileUs(c, q); };
  return {
      // api: FsApi latency per class as the load threads see it, from the
      // untraced half (0 for a class the workload never calls).
      {"api.read_p50_us", api_us(OpClass::kRead, 0.5), "us"},
      {"api.read_p99_us", api_us(OpClass::kRead, 0.99), "us"},
      {"api.write_p50_us", api_us(OpClass::kWrite, 0.5), "us"},
      {"api.write_p99_us", api_us(OpClass::kWrite, 0.99), "us"},
      {"api.fsync_p50_us", api_us(OpClass::kFsync, 0.5), "us"},
      {"api.fsync_p99_us", api_us(OpClass::kFsync, 0.99), "us"},
      {"api.meta_p50_us", api_us(OpClass::kMeta, 0.5), "us"},
      {"api.meta_p99_us", api_us(OpClass::kMeta, 0.99), "us"},
      // server: wire only. Its self time is the client round trip minus the
      // FileSystem time spent on server threads (wire, decode, queue, park,
      // server-side Vfs).
      {"server.rpc_us", wire ? Us(Ratio(static_cast<double>(t.api_ns), api_calls)) : 0, "us"},
      {"server.self_us",
       wire ? Us(Ratio(static_cast<double>(t.api_ns) - static_cast<double>(t.orphan_fs_ns),
                       api_calls))
            : 0,
       "us"},
      {"server.parked_frac", Ratio(d(&Counters::srv_parked), requests), "ratio"},
      {"server.deferred_stall_us_per_op", Us(Ratio(d(&Counters::srv_deferred_ns), requests)),
       "us/op"},
      {"server.fd_chain_defers_per_kop", Ratio(d(&Counters::srv_chained), requests / 1000.0),
       "1/kop"},
      {"server.backpressure_stalls", d(&Counters::srv_backpressure), "count"},
      // vfs: FsApi span minus its FileSystem child spans (in-process only;
      // on the wire the Vfs runs on server threads, inside server.self_us).
      {"vfs.self_us", wire ? 0 : Us(Ratio(static_cast<double>(t.api_self_ns), api_calls)), "us"},
      {"vfs.fs_calls_per_call", Ratio(static_cast<double>(t.fs_calls), api_calls), "calls/call"},
      // hinfs: mean busy time per FileSystem call.
      {"hinfs.read_us", fs_mean_us(FsOp::kRead), "us"},
      {"hinfs.write_us", fs_mean_us(FsOp::kWrite), "us"},
      {"hinfs.fsync_us", fs_mean_us(FsOp::kFsync), "us"},
      {"hinfs.create_us", fs_mean_us(FsOp::kCreate), "us"},
      {"hinfs.unlink_us", fs_mean_us(FsOp::kUnlink), "us"},
      {"hinfs.lookup_us", fs_mean_us(FsOp::kLookup), "us"},
      {"hinfs.getattr_us", fs_mean_us(FsOp::kGetAttr), "us"},
      {"hinfs.truncate_us", fs_mean_us(FsOp::kTruncate), "us"},
      {"hinfs.write_p99_us", Us(t.fs_write.PercentileNs(0.99)), "us"},
      {"hinfs.eager_write_frac",
       Ratio(d(&Counters::eager_writes), d(&Counters::eager_writes) + d(&Counters::lazy_writes)),
       "ratio"},
      // hinfs.buffer (DramBufferManager); "kop" is 1000 FsApi calls.
      {"hinfs.buffer.hit_frac",
       Ratio(d(&Counters::buf_hits), d(&Counters::buf_hits) + d(&Counters::buf_misses)), "ratio"},
      {"hinfs.buffer.lockfree_read_frac",
       Ratio(d(&Counters::lockfree_hits),
             d(&Counters::lockfree_hits) + d(&Counters::lockfree_fallbacks)),
       "ratio"},
      {"hinfs.buffer.promotions_drained_frac",
       Ratio(d(&Counters::promotions_drained), d(&Counters::promotions_batched)), "ratio"},
      {"hinfs.buffer.stalls_per_kop", Ratio(d(&Counters::stalls), kcalls), "1/kop"},
      {"hinfs.buffer.frames_stolen_per_kop", Ratio(d(&Counters::frames_stolen), kcalls), "1/kop"},
      {"hinfs.buffer.lock_contended_per_kop", Ratio(d(&Counters::lock_contended), kcalls),
       "1/kop"},
      {"hinfs.buffer.writeback_blocks_per_s", Ratio(d(&Counters::wb_blocks), secs), "blocks/s"},
      {"hinfs.buffer.wb_coalesce_frac",
       d(&Counters::wb_dirty_runs) > 0
           ? 1.0 - Ratio(d(&Counters::wb_flush_calls), d(&Counters::wb_dirty_runs))
           : 0.0,
       "ratio"},
      {"hinfs.buffer.writeback_lines_per_block",
       Ratio(d(&Counters::wb_lines), d(&Counters::wb_blocks)), "lines/block"},
      {"hinfs.buffer.fetched_lines_per_kop", Ratio(d(&Counters::fetched_lines), kcalls),
       "lines/kop"},
      {"hinfs.buffer.wb_spurious_wakeups", d(&Counters::wb_spurious), "count"},
      // nvmm (NvmmDevice and its BandwidthLimiter), during the run.
      {"nvmm.flushed_lines_per_op", Ratio(d(&Counters::flushed_lines), calls), "lines/op"},
      {"nvmm.flushed_mb_per_s", Ratio(d(&Counters::flushed_bytes) / kMiB, secs), "MB/s"},
      {"nvmm.limiter_slow_frac",
       Ratio(d(&Counters::limiter_slow), d(&Counters::limiter_fast) + d(&Counters::limiter_slow)),
       "ratio"},
      {"nvmm.fences_per_fsync", Ratio(d(&Counters::fences), fsyncs), "fences/fsync"},
      {"nvmm.loaded_bytes_per_read_byte",
       Ratio(d(&Counters::loaded_bytes), static_cast<double>(traced.calls.bytes_read)), "B/B"},
      {"nvmm.max_unfenced_lines", static_cast<double>(b.max_unfenced_lines), "lines"},
      {"trace.overhead_frac", 1.0 - Ratio(traced.ops_per_s(), untraced.ops_per_s()), "ratio"},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); i++) {
    s += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}";
}

// --- entry point ----------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      o->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = v;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(v.c_str(), &end);
    } else if (arg == "--trace") {
      o->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (arg == "--out-dir") {
      o->out_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == v.c_str())) {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", arg.c_str(), v.c_str());
      return false;
    }
  }
  if (!o->self_test && (o->seconds <= 0 || (o->trace != 0 && o->trace != 1))) {
    std::fprintf(stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1\n");
    return false;
  }
  return true;
}

// Checks the recorder's stated accuracy: every percentile lands within
// 1/128 of a recorded value, across nine decades.
bool RecorderSelfTest() {
  for (uint64_t v = 1; v < (uint64_t{1} << 40); v = v * 3 / 2 + 1) {
    LatencyHistogram h;
    h.Record(v);
    const double got = h.PercentileNs(0.5);
    if (std::fabs(got - static_cast<double>(v)) > static_cast<double>(v) / 128.0) {
      std::fprintf(stderr, "recorder: %llu reads back as %.1f\n",
                   static_cast<unsigned long long>(v), got);
      return false;
    }
  }
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; v++) {
    h.Record(v * 1000);
  }
  const double p50 = h.PercentileNs(0.5), p99 = h.PercentileNs(0.99);
  if (std::fabs(p50 - 500e3) > 500e3 / 128 || std::fabs(p99 - 990e3) > 990e3 / 128 ||
      h.CountAbove(0.99) > 10) {
    std::fprintf(stderr, "recorder: p50 %.0f p99 %.0f above %llu\n", p50, p99,
                 static_cast<unsigned long long>(h.CountAbove(0.99)));
    return false;
  }
  std::printf("recorder self-test: ok\n");
  return true;
}

int Run(const Options& o) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (o.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string sock = o.out_dir + "/hinfsd-" + std::to_string(getpid()) + ".sock";

  std::vector<double> setup_samples;
  RunResult main_run, untraced;
  TraceTotals totals;
  std::string spans_file;
  bool setup_ok = true;
  Status setup_status;

  if (o.trace == 0) {
    const hinfs::FilebenchConfig cfg = MakeConfig(*spec, o.seed, o.seconds);
    std::unique_ptr<Bed> bed;
    for (int i = 0; i < kSetupRepeats && setup_ok; i++) {
      if (bed != nullptr) {
        setup_status = Unmount(*bed);
        bed.reset();
        setup_ok = setup_status.ok();
        if (!setup_ok) {
          break;
        }
      }
      std::unique_ptr<hinfs::NvmmDevice> nvmm = MakeDevice(*spec);
      const uint64_t t0 = Tracer::NowNs();
      Result<std::unique_ptr<Bed>> b = Setup(std::move(nvmm), *spec, cfg, nullptr, sock);
      setup_samples.push_back(Seconds(Tracer::NowNs() - t0));
      if (!b.ok()) {
        setup_status = b.status();
        setup_ok = false;
      } else {
        bed = std::move(*b);
      }
    }
    if (setup_ok) {
      main_run = MeasureAndVerify(*bed, *spec, cfg, nullptr);
    }
  } else {
    // Half the time untraced, half traced, each on a fresh set-up.
    const hinfs::FilebenchConfig cfg = MakeConfig(*spec, o.seed, o.seconds / 2);
    Result<std::unique_ptr<Bed>> plain = Setup(MakeDevice(*spec), *spec, cfg, nullptr, sock);
    if (!plain.ok()) {
      setup_status = plain.status();
      setup_ok = false;
    } else {
      untraced = MeasureAndVerify(**plain, *spec, cfg, nullptr);
      plain->reset();
    }
    Tracer tracer;
    if (setup_ok) {
      Result<std::unique_ptr<Bed>> traced = Setup(MakeDevice(*spec), *spec, cfg, &tracer, sock);
      if (!traced.ok()) {
        setup_status = traced.status();
        setup_ok = false;
      } else {
        main_run = MeasureAndVerify(**traced, *spec, cfg, &tracer);
        traced->reset();  // joins the server threads before the totals are read
        totals = tracer.Totals();
        spans_file = o.out_dir + "/spans-" + spec->name + "-seed" + std::to_string(o.seed) + ".tsv";
        if (!tracer.WriteSpans(spans_file)) {
          spans_file = "(write failed)";
        }
      }
    }
  }

  // Every run must finish without a failed call and pass the correctness
  // check, and the end-to-end classes must all have samples.
  std::vector<std::string> problems;
  if (!setup_ok) {
    problems.push_back("setup: " + setup_status.ToString());
  }
  for (const RunResult* r : {&untraced, &main_run}) {
    if (!r->status.ok()) {
      problems.push_back(r->status.ToString());
    }
    for (const std::string& f : r->calls.first_failures) {
      problems.push_back(f);
    }
  }
  const uint64_t attempted = main_run.calls.calls + untraced.calls.calls;
  const uint64_t failed = main_run.calls.failed + untraced.calls.failed;
  if (setup_ok && o.trace == 0) {
    for (OpClass c : {OpClass::kRead, OpClass::kWrite, OpClass::kMeta}) {
      if (main_run.calls.latency[static_cast<size_t>(c)].count() == 0) {
        problems.push_back(std::string("no ") + ClassName(c) + " calls were measured");
      }
    }
  }
  const bool correct = problems.empty() && failed == 0 && attempted > 0;

  std::vector<Metric> metrics;
  if (o.trace == 0) {
    std::vector<double> sorted = setup_samples;
    std::sort(sorted.begin(), sorted.end());
    metrics = EndToEndMetrics(main_run, sorted.empty() ? 0 : sorted[sorted.size() / 2],
                              spec->device_bytes);
  } else {
    metrics = LayerMetrics(untraced, main_run, totals, spec->wire);
  }

  // Self-description and the details behind the metrics, one line before the
  // result.
  const LatencyHistogram& fsync = main_run.calls.latency[static_cast<size_t>(OpClass::kFsync)];
  std::string setups = "[";
  for (size_t i = 0; i < setup_samples.size(); i++) {
    setups += (i > 0 ? ", " : "") + Num(setup_samples[i]);
  }
  setups += "]";
  std::string problem_list = "[";
  for (size_t i = 0; i < problems.size(); i++) {
    problem_list += (i > 0 ? ", \"" : "\"") + JsonEscape(problems[i]) + "\"";
  }
  problem_list += "]";
  std::printf(
      "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"host\": {\"nproc\": %u, \"cpu\": \"%s\", \"kernel\": \"%s\"}, "
      "\"server_backend\": \"%s\", "
      "\"config\": {\"threads\": %d, \"device_mb\": %zu, \"buffer_mb\": %zu, \"nfiles\": %zu, "
      "\"mean_file_kb\": %zu, \"io_kb\": %zu, \"nvmm_write_latency_ns\": 200, "
      "\"nvmm_write_mb_per_s\": 1024}, "
      "\"setup_s_samples\": %s, \"flowops\": %llu, \"run_s\": %s, \"calls\": %llu, "
      "\"benign_races\": %llu, \"op_error_frac\": %s, \"bytes_written\": %llu, "
      "\"bytes_read\": %llu, \"classes\": %s, \"fsync_p50_us\": %s, \"fsync_p99_us\": %s, "
      "\"verified_files\": %llu, \"verified_bytes\": %llu, \"spans\": \"%s\", "
      "\"spans_kept\": %llu, \"spans_dropped\": %llu, \"problems\": %s}}\n",
      spec->name, static_cast<unsigned long long>(o.seed), Num(o.seconds).c_str(), o.trace,
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      JsonEscape(Kernel()).c_str(), main_run.backend.c_str(), kLoadThreads,
      spec->device_bytes / kMiB, spec->buffer_bytes / kMiB, spec->nfiles,
      spec->mean_file_size / kKiB, spec->io_size / kKiB, setups.c_str(),
      static_cast<unsigned long long>(main_run.flowops.ops), Num(main_run.flowops.seconds).c_str(),
      static_cast<unsigned long long>(main_run.calls.calls),
      static_cast<unsigned long long>(main_run.calls.benign),
      Num(Ratio(static_cast<double>(failed), static_cast<double>(attempted))).c_str(),
      static_cast<unsigned long long>(main_run.calls.bytes_written),
      static_cast<unsigned long long>(main_run.calls.bytes_read),
      ClassReport(main_run).c_str(),
      fsync.count() > 0 ? Num(main_run.PercentileUs(OpClass::kFsync, 0.5)).c_str() : "null",
      fsync.count() > 0 ? Num(main_run.PercentileUs(OpClass::kFsync, 0.99)).c_str() : "null",
      static_cast<unsigned long long>(main_run.verify.files),
      static_cast<unsigned long long>(main_run.verify.bytes), JsonEscape(spans_file).c_str(),
      static_cast<unsigned long long>(totals.spans_kept),
      static_cast<unsigned long long>(totals.spans_dropped), problem_list.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (perfbench::RefuseHinfsEnv()) {
    return 2;
  }
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    return 2;
  }
  if (options.self_test) {
    return perfbench::RecorderSelfTest() ? 0 : 1;
  }
  return perfbench::Run(options);
}
