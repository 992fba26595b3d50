#!/usr/bin/env python3
"""Perf-regression guard for scripts/bench.sh --check.

Compares freshly written bench summaries (BENCH_kernels.json,
BENCH_serve.json) against the committed baselines in bench/baselines/
and exits non-zero when a guarded metric regressed by more than the
tolerance (default 15%).

Only *ratio* metrics are guarded — speedups of one configuration over
another measured in the same run (gemm-vs-naive, dispatched-vs-portable
SGEMM micro-kernel and int16 conv kernel, fast-vs-sim executor,
pruned-vs-dense, and the serving lanes' scaling efficiency against a
one-thread serial loop). Absolute clips/s or GFLOP/s depend on the host
CPU and would make the check fail on any machine other than the one
that recorded the baseline; ratios cancel the machine out.

Usage: bench_check.py [--tolerance 0.15] [--baseline-dir bench/baselines]
                      [--fresh-dir .]
"""

import argparse
import json
import os
import sys

# (file, dotted path into the JSON, human label, dotted paths of the
# context the ratio was measured in). All guarded metrics are
# higher-is-better ratios. A ratio is compared only when the fresh run
# has the baseline's context: an ISA-bound ratio needs the same vector
# ISA (on a host that runs the portable kernel there is nothing to
# guard, and another ISA has another expected ratio), and the lanes'
# scaling efficiency needs the same largest lane count (nproc). The
# gemm-vs-naive train-step ratio needs none: bench_kernels takes it on
# one thread whatever the pool size.
GUARDED = [
    ("BENCH_kernels.json", "train_step.speedup",
     "gemm vs naive train-step speedup", ()),
    ("BENCH_kernels.json", "sgemm.dispatched_vs_portable",
     "dispatched vs portable SGEMM micro-kernel", ("sgemm.isa",)),
    ("BENCH_kernels.json", "qconv.dispatched_vs_portable",
     "dispatched vs portable int16 conv kernel", ("qconv.isa",)),
    ("BENCH_serve.json", "executors.fast_vs_sim",
     "fast executor vs cycle simulator", ("executors.isa",)),
    ("BENCH_serve.json", "executors.pruned_vs_dense",
     "fast executor, 90% pruned vs dense", ("executors.isa",)),
    ("BENCH_serve.json", "lanes.efficiency",
     "serving lanes' scaling efficiency at the most lanes",
     ("lanes.max", "executors.isa")),
]


def lookup(doc, dotted, kinds=(int, float)):
    node = doc
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, kinds) else None


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench-check: cannot read {path}: {e}", file=sys.stderr)
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional regression (default 0.15)")
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--fresh-dir", default=".")
    args = ap.parse_args()

    checked = 0
    failures = []
    for fname, dotted, label, context_paths in GUARDED:
        base_path = os.path.join(args.baseline_dir, fname)
        fresh_path = os.path.join(args.fresh_dir, fname)
        if not os.path.exists(base_path):
            print(f"bench-check: SKIP {label}: no baseline {base_path}")
            continue
        if not os.path.exists(fresh_path):
            print(f"bench-check: SKIP {label}: no fresh result {fresh_path}")
            continue
        base_doc, fresh_doc = load(base_path), load(fresh_path)
        if base_doc is None or fresh_doc is None:
            failures.append(f"{label}: unreadable JSON")
            continue
        skip = None
        for path in context_paths:
            fresh_ctx = lookup(fresh_doc, path, (str, int))
            base_ctx = lookup(base_doc, path, (str, int))
            if path.endswith(".isa") and fresh_ctx in (None, "portable"):
                skip = "host runs the portable kernel"
            elif fresh_ctx != base_ctx:
                skip = (f"{path} is {fresh_ctx} here, baseline was "
                        f"measured with {base_ctx}")
            if skip:
                break
        if skip:
            print(f"bench-check: SKIP {label}: {skip}")
            continue
        base = lookup(base_doc, dotted)
        fresh = lookup(fresh_doc, dotted)
        if base is None:
            print(f"bench-check: SKIP {label}: {dotted} absent from baseline "
                  "(older format)")
            continue
        if fresh is None:
            failures.append(f"{label}: {dotted} missing from fresh result")
            continue
        checked += 1
        if base <= 0:
            print(f"bench-check: SKIP {label}: non-positive baseline {base}")
            continue
        ratio = fresh / base
        status = "OK"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSED"
            failures.append(
                f"{label}: {fresh:.3f} vs baseline {base:.3f} "
                f"({(1.0 - ratio) * 100.0:.1f}% worse, "
                f"tolerance {args.tolerance * 100.0:.0f}%)")
        print(f"bench-check: {status:9s} {label}: fresh {fresh:.3f} / "
              f"baseline {base:.3f} = {ratio:.3f}")

    if failures:
        print("bench-check: FAILED", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"bench-check: passed ({checked} metrics within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
