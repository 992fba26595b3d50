#!/usr/bin/env bash
# Full local gate: build + test the release config, then rebuild and
# re-run everything under ASan + UBSan. Usage: scripts/check.sh [-j N]
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
if [[ "${1:-}" == "-j" && -n "${2:-}" ]]; then
  JOBS="$2"
fi

for preset in release sanitize; do
  echo "==> configure (${preset})"
  cmake --preset "${preset}"
  echo "==> build (${preset})"
  cmake --build --preset "${preset}" -j "${JOBS}"
  echo "==> test (${preset})"
  ctest --preset "${preset}" -j "${JOBS}"
done

# Hammer the thread-pool tests under the sanitizers: pool bugs are
# timing-dependent, so repeat until-fail to shake out races. All pool
# workers are joinable (never detached), so sanitizer runs stay clean.
# The conv engine and the channel-parallel BatchNorm3d (nn_layers) run
# their samples and channels on the pool.
echo "==> thread-pool stress (sanitize)"
ctest --preset sanitize -R 'thread_pool|conv_engine_parity|nn_layers' \
  --repeat until-fail:3

# The int16 conv kernels on every ISA the CPU supports: UBSan traps any
# signed int32 overflow that a wrong exactness proof lets through the
# portable int32 kernel, ASan any read past an activation's slack.
echo "==> int16 conv kernel stress (sanitize)"
ctest --preset sanitize -R 'qconv_kernel' --repeat until-fail:3

# Same treatment for the serving layer: the lane threads, the MPMC
# queue, the promise hand-off, and the fault paths (retry, quarantine,
# watchdog kills) are all lifetime-sensitive, which is exactly what
# ASan/UBSan catch.
echo "==> serve + fault stress (sanitize)"
ctest --preset sanitize -R 'serve' --repeat until-fail:3

# ThreadSanitizer pass over the concurrent subsystems: the thread pool,
# the serving lanes/watchdog, the fault-injection paths where the
# watchdog and replica lanes race for request promises, the compiled
# model every serving lane calls concurrently, the int16 conv kernels
# with their per-participant panels, and the float training engine,
# whose convs run one sample per pool participant with per-participant
# halo scratch and per-sample dW partials, and whose BatchNorm3d runs
# one channel per task. Guarded by a probe because not every toolchain
# ships a working libtsan.
echo "==> thread sanitizer (serve + pool + fault paths + shared model + conv engines + BN)"
if printf 'int main(){return 0;}' \
    | c++ -fsanitize=thread -x c++ - -o /tmp/hwp_tsan_probe 2>/dev/null \
    && /tmp/hwp_tsan_probe 2>/dev/null; then
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" \
    --target serve_test serve_fault_test thread_pool_test \
    compiled_executor_test qconv_kernel_test conv_engine_parity_test \
    r2plus1d_block_test trainer_test sgemm_test nn_layers_test
  ctest --preset tsan \
    -R 'serve|thread_pool|compiled_executor|qconv_kernel|conv_engine_parity|r2plus1d_block|trainer|sgemm|nn_layers' \
    --repeat until-fail:2
  # The serving lanes are threads of their own that pull from one queue,
  # race the watchdog for promises and hand leftover work to each other:
  # hammer the serve tests under TSan as the sanitize stanza does.
  echo "==> serve lane stress (tsan)"
  ctest --preset tsan -R 'serve' --repeat until-fail:3
else
  echo "(ThreadSanitizer unavailable on this toolchain; skipping)"
fi

echo "==> all checks passed"
