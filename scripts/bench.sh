#!/usr/bin/env bash
# Build the release config and run the kernel + serving benchmarks,
# writing machine-readable summaries (BENCH_kernels.json,
# BENCH_serve.json) in the repo root.
#
# Usage: scripts/bench.sh [-j N] [--check] [extra bench_kernels args...]
#   --check   after the run, compare the fresh summaries against the
#             committed baselines in bench/baselines/ and exit non-zero
#             on a >15% regression of a guarded ratio metric or any
#             growth of a guarded count (scripts/bench_check.py)
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
CHECK=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    -j)
      JOBS="$2"
      shift 2
      ;;
    --check)
      CHECK=1
      shift
      ;;
    *)
      break
      ;;
  esac
done

echo "==> configure (release)"
cmake --preset release
echo "==> build bench_kernels + bench_serve"
cmake --build --preset release -j "${JOBS}" --target bench_kernels bench_serve

echo "==> run bench_kernels"
"./build/bench/bench_kernels" --json-out=BENCH_kernels.json "$@"

echo "==> run bench_serve"
"./build/bench/bench_serve" --threads "${JOBS}" --json-out=BENCH_serve.json

echo "==> wrote BENCH_kernels.json BENCH_serve.json"

if [[ "${CHECK}" -eq 1 ]]; then
  echo "==> bench-check vs bench/baselines/"
  python3 scripts/bench_check.py
fi
