// Conv/linear compute-engine selection.
//
// Two engines implement every dense layer contraction:
//   kNaive — the original 7-deep scalar loops with double accumulators.
//            Slow, but trivially auditable: it is the bit-exactness
//            reference the gemm engine is parity-tested against.
//   kGemm  — implicit GEMM: cache-blocked packed sgemm reading its B
//            operand in place from a zero-halo copy of each sample
//            through a per-tap offset table, no column matrix, on the
//            persistent thread pool (src/kernels/conv3d_gemm.h). The
//            default.
//
// The process runs kGemm; SetEngine is the hook parity tests and
// benches use to run kNaive beside it.
#pragma once

namespace hwp3d::kernels {

enum class Engine { kNaive, kGemm };

// Currently selected engine: kGemm unless SetEngine chose otherwise.
Engine CurrentEngine();

// Process-wide override, e.g. for parity tests and A/B benchmarks.
void SetEngine(Engine engine);

const char* EngineName(Engine engine);

}  // namespace hwp3d::kernels
