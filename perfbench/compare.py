#!/usr/bin/env python3
"""Collects benchmark runs and compares two sets of them.

Collect runs (each result line is saved as <out>/<workload>-s<seed>.json):

    python3 perfbench/compare.py collect --workload serve_dense \\
        --seeds 1-10 --out runs/parent [--repo PATH] [--trace 1]

  --repo runs the benchmark of another checkout (default: this one).
  Give --repo twice (parent first, then change) and two --out
  directories to run parent/change pairs, alternating which side runs
  first.

Spread of one set (median, quartiles, IQR as a share of the median,
against each metric's bound in BENCHMARK.json):

    python3 perfbench/compare.py spread runs/parent

Compare a change against its parent:

    python3 perfbench/compare.py compare runs/parent runs/change

For every workload and metric, prints each side's median and quartiles
and a verdict. "win": the change is better in at least 9/10 of the
seed-matched pairs (ties count for neither) and the medians differ by
more than the parent's interquartile distance. "regressed": the
change's median is worse than the parent's by more than the bound.
"unresolved": the parent's own spread exceeds the bound, so no claim
either way unless every change run beats every parent run.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {}
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            spec[m["name"]] = dict(m, section=section)
    return bench, spec


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(repo, workload, seed, trace):
    # Each side runs with the run length its own BENCHMARK.json fixes.
    bench, _ = load_bench(repo)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=repo, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d in %s), exit %d"
                 % (workload, seed, repo, proc.returncode))
    return lines[-1]


def collect(args):
    repos = args.repo or [ROOT]
    outs = args.out
    if len(repos) != len(outs):
        sys.exit("give one --out per --repo")
    seconds = {load_bench(r)[0]["run_seconds"] for r in repos}
    if len(seconds) != 1:
        sys.exit("the two sides fix different run_seconds: %s"
                 % sorted(seconds))
    for d in outs:
        os.makedirs(d, exist_ok=True)
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = list(range(len(repos)))
        if i % 2 == 1:
            order.reverse()  # alternate which side runs first
        for k in order:
            line = run_once(repos[k], args.workload, seed, args.trace)
            path = os.path.join(outs[k], "%s-s%d.json" % (args.workload, seed))
            with open(path, "w") as f:
                f.write(line + "\n")
            print("%s seed %d -> %s" % (args.workload, seed, path))


def load_runs(directory):
    """{workload: {seed: {metric: value}}} from saved result lines."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-s*.json"))):
        base = os.path.basename(path)[:-len(".json")]
        workload, seed = base.rsplit("-s", 1)
        with open(path) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        if not result.get("correct"):
            print("warning: %s is not a correct run" % path)
        runs.setdefault(workload, {})[int(seed)] = {
            k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    _, spec = load_bench()
    runs = load_runs(args.runs)
    worst = 0.0
    for workload, by_seed in sorted(runs.items()):
        print("%s (%d runs)" % (workload, len(by_seed)))
        print("  %-30s %12s %12s %12s %8s %6s" % (
            "metric", "q1", "median", "q3", "iqr/med", "bound"))
        names = sorted({m for r in by_seed.values() for m in r})
        for name in names:
            vals = [r[name] for r in by_seed.values() if name in r]
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / abs(med) if med else float("inf")
            bound = spec.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "OK" if rel <= bound / 3 else (
                    "wide" if rel <= bound else "OVER")
                worst = max(worst, rel / bound)
            print("  %-30s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
                name, q1, med, q3, rel,
                "" if bound is None else "%.2f" % bound, flag))
    print("worst spread / bound: %.3f" % worst)


def better(name, spec, a, b):
    """+1 if a is better than b for this metric, -1 if worse, 0 if tied."""
    if a == b:
        return 0
    higher = spec.get(name, {}).get("better", "lower") == "higher"
    return 1 if (a > b) == higher else -1


def compare(args):
    _, spec = load_bench()
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    for workload in sorted(set(parent) | set(change)):
        p_runs = parent.get(workload, {})
        c_runs = change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        print("%s (%d seed-matched pairs)" % (workload, len(seeds)))
        print("  %-30s %27s  %27s  %5s  %s" % (
            "metric", "parent q1 / median / q3", "change q1 / median / q3",
            "wins", "verdict"))
        names = sorted({m for r in p_runs.values() for m in r})
        for name in names:
            pv = [p_runs[s][name] for s in seeds if name in c_runs[s]]
            cv = [c_runs[s][name] for s in seeds if name in c_runs[s]]
            if not pv:
                continue
            pq = quartiles(pv)
            cq = quartiles(cv)
            wins = sum(1 for a, b in zip(cv, pv) if better(name, spec, a, b) > 0)
            bound = spec.get(name, {}).get("bound")
            p_iqr = pq[2] - pq[0]
            gap = cq[1] - pq[1]
            improved = better(name, spec, cq[1], pq[1]) > 0
            verdict = "same"
            if bound is not None and pq[1] and p_iqr / abs(pq[1]) > bound:
                all_better = all(better(name, spec, c, p) > 0
                                 for c in cv for p in pv)
                verdict = "win (every run)" if all_better else "unresolved"
            elif wins >= 0.9 * len(pv) and abs(gap) > p_iqr and improved:
                verdict = "win"
            elif (bound is not None and not improved and pq[1]
                  and abs(gap) / abs(pq[1]) > bound):
                verdict = "regressed"
            print("  %-30s %8.4g %8.4g %8.4g  %8.4g %8.4g %8.4g  %2d/%-2d  %s"
                  % (name, pq[0], pq[1], pq[2], cq[0], cq[1], cq[2],
                     wins, len(pv), verdict))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    c.add_argument("--out", action="append", required=True)
    c.add_argument("--repo", action="append")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("spread")
    s.add_argument("runs")
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args()
    {"collect": collect, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
