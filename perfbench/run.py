#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload serve_dense --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library and the driver into .bench_build/ (CMake, Release); later runs
reuse that build. The workload's frozen configuration comes from
perfbench/workloads.json. The driver writes every measurement to
.bench_out/<workload>-s<seed>-t<trace>.json (and, with --trace 1, a
Chrome trace next to it); this script prints the metrics with their
units and, as the last line, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones. The exit code is 0 only when every
check passed.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_LIMIT_S = 170  # the driver run itself, after any build


def nproc():
    return len(os.sched_getaffinity(0))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", str(nproc())],
        check=True, stdout=sys.stderr)


def flag_value(v):
    if isinstance(v, list):
        return ",".join(str(x) for x in v)
    return str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in spec["workloads"]:
        log("unknown workload %r (known: %s)"
            % (args.workload, ", ".join(spec["workloads"])))
        return 2

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    out_path = os.path.join(OUT_DIR, stem + ".json")
    trace_path = os.path.join(OUT_DIR, stem + ".trace.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    config = dict(spec["prune"])
    config.update(spec["workloads"][args.workload]["config"])
    cmd = [BINARY,
           "--workload=%s" % args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds,
           "--trace=%d" % args.trace,
           "--out=%s" % out_path,
           "--trace-out=%s" % trace_path]
    cmd += ["--%s=%s" % (k, flag_value(v)) for k, v in sorted(config.items())]
    # The load generator runs in the same process: leave it one CPU, so
    # its threads do not preempt the pool's workers mid-request.
    env = dict(os.environ, HWP_THREADS=str(max(1, nproc() - 1)))
    env.pop("HWP_TRACE", None)
    env.pop("HWP_FAULTS", None)
    env.pop("HWP_EXEC", None)

    t0 = time.time()
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("driver did not finish within %d s" % RUN_LIMIT_S)
        return 3
    if not os.path.exists(out_path):
        log("driver exited with %d and wrote no result" % proc.returncode)
        return 3
    with open(out_path) as f:
        detail = json.load(f)

    section = "per_layer" if args.trace else "end_to_end"
    source = detail["layers"] if args.trace else detail["e2e"]
    metrics = {}
    for m in bench[section]:
        name = m["name"]
        if name not in source:
            log("driver did not measure %s" % name)
            return 3
        metrics[name] = {"value": source[name]["value"], "unit": m["unit"]}

    print("%s seed %d (%s, %d threads, %.1f s)"
          % (args.workload, args.seed,
             "traced" if args.trace else "untraced",
             detail["info"]["threads"], time.time() - t0))
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-32s %14d / %d" % ("failed / attempted", detail["failed"],
                                  detail["attempted"]))
    for p in detail["problems"]:
        print("  problem: %s" % p)
    print(json.dumps({"correct": bool(detail["correct"]),
                      "attempted": int(detail["attempted"]),
                      "failed": int(detail["failed"]),
                      "metrics": metrics}))
    return 0 if detail["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
