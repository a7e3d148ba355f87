#!/usr/bin/env python3
"""HiNFS benchmark: builds perfbench/ (with the repository's src/) and runs it.

    python3 perfbench/run.py --workload fileserver --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and compiles into
.bench_build/perfbench (about a minute on 4 cores); later runs only check that
the build is current. Workloads, metrics and what each per-layer metric should
move are described in perfbench/README.md and BENCHMARK.json.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end_to_end metric of BENCHMARK.json for --trace 0 and every
per_layer metric for --trace 1. The line before it describes the run (host,
config, server backend, p50/p99 of every latency class with its sample counts,
per-window figures, correctness details).

--self-test checks the recorder's accuracy, then runs every workload for one
second in both modes and requires the emitted metric names and units to match
BENCHMARK.json exactly, the run to be correct, every end-to-end value to be a
positive number, and every per-layer metric to be non-zero on the workload
that runs its layer (LAYER_WORKLOADS), so a renamed counter or a layer that is
no longer reached fails it.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hinfs_perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")  # relative: short socket paths
RUN_TIMEOUT_S = 170

# Where each per-layer metric must read non-zero (perfbench/README.md, column
# "on"). Counters are read by name and an unknown name reads 0.
LAYER_WORKLOADS = {
    "fileserver": [
        "hinfs.write_us", "hinfs.write_p99_us", "hinfs.create_us", "hinfs.unlink_us",
        "hinfs.lookup_us", "hinfs.getattr_us",
        "hinfs.buffer.stalls_per_kop", "hinfs.buffer.frames_stolen_per_kop",
        "hinfs.buffer.writeback_blocks_per_s",
        "hinfs.buffer.wb_coalesce_frac", "hinfs.buffer.writeback_lines_per_block",
        "hinfs.buffer.fetched_lines_per_kop",
        "nvmm.flushed_lines_per_op", "nvmm.flushed_mb_per_s", "nvmm.limiter_slow_frac",
        "nvmm.loaded_bytes_per_read_byte",
    ],
    "webserver": [
        "vfs.self_us", "vfs.fs_calls_per_call", "hinfs.read_us",
        "hinfs.buffer.hit_frac", "hinfs.buffer.lockfree_read_frac",
    ],
    "varmail-wire": [
        "api.fsync_p50_us", "api.fsync_p99_us",
        "server.rpc_us", "server.self_us", "server.parked_frac",
        "server.deferred_stall_us_per_op",
        "hinfs.fsync_us", "hinfs.eager_write_frac", "nvmm.fences_per_fsync",
    ],
}
LAYER_EVERYWHERE = [
    "api.read_p50_us", "api.read_p99_us", "api.write_p50_us", "api.write_p99_us",
    "api.meta_p50_us", "api.meta_p99_us", "nvmm.max_unfenced_lines",
]
# Metrics that may read 0 on every workload, with the reason.
LAYER_MAY_BE_ZERO = {
    "server.backpressure_stalls": "should stay 0",
    "hinfs.buffer.wb_spurious_wakeups": "should stay 0",
    "server.fd_chain_defers_per_kop": "blocking clients at depth 1 never queue a second "
                                      "request on a busy fd",
    "hinfs.buffer.promotions_drained_frac": "the default LRW replacement records no read touches",
    "hinfs.truncate_us": "no workload truncates a non-empty file (Vfs skips Truncate on an "
                         "empty one)",
    "hinfs.buffer.lock_contended_per_kop": "counts only shard-lock collisions, which a short "
                                           "fileserver run often has none of",
    "trace.overhead_frac": "a difference of two throughputs, may be 0 or negative",
}


def build():
    """Configures (once) and builds the benchmark program; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hinfs_perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_bench(args, capture=False):
    """Runs the benchmark program; returns (exit code, stdout or None)."""
    cmd = [BINARY] + args + ["--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    out = proc.stdout.decode() if capture else None
    return proc.returncode, out


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    code, _ = run_bench(["--self-test"])
    ok = code == 0
    mapped = set(LAYER_EVERYWHERE) | set(LAYER_MAY_BE_ZERO)
    for names in LAYER_WORKLOADS.values():
        mapped |= set(names)
    unmapped = sorted({m["name"] for m in spec["per_layer"]} ^ mapped)
    if unmapped:
        print("self-test: per-layer metrics not both in BENCHMARK.json and mapped to a "
              "workload: %s" % unmapped)
        ok = False
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s trace=%d" % (workload["name"], trace)
            code, out = run_bench(["--workload", workload["name"], "--seed", "1",
                                    "--seconds", "1", "--trace", str(trace)], capture=True)
            problems = []
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (AttributeError, IndexError, ValueError):
                result = None
                problems.append("no JSON result line (exit %d)" % code)
            if result is not None:
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append("result keys %s" % sorted(result))
                if code != 0 or result.get("correct") is not True:
                    problems.append("exit %d, correct=%s" % (code, result.get("correct")))
                if result.get("attempted", 0) < 1:
                    problems.append("attempted < 1")
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {n: m.get("unit") for n, m in result.get("metrics", {}).items()}
                if got != want:
                    problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                                    "unit mismatches %s" % (
                                        sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                                        sorted(n for n in want if n in got and got[n] != want[n])))
                for n, m in result.get("metrics", {}).items():
                    v = m.get("value")
                    if not isinstance(v, (int, float)) or not math.isfinite(v):
                        problems.append("%s is not a finite number" % n)
                    elif trace == 0 and v <= 0:
                        problems.append("%s = %s, not positive" % (n, v))
                if trace == 1:
                    metrics = result.get("metrics", {})
                    for n in LAYER_EVERYWHERE + LAYER_WORKLOADS.get(workload["name"], []):
                        if metrics.get(n, {}).get("value") == 0:
                            problems.append("%s = 0, its layer was not reached" % n)
            print("self-test %-26s %s" % (name, "ok" if not problems else "FAIL: " + "; ".join(problems)))
            ok = ok and not problems
    print("self-test: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    code, _ = run_bench(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
