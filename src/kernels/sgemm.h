// Cache-blocked single-precision GEMM.
//
// Row-major  C[m×n] (+)= op(A)[m×k] · op(B)[k×n]  with optional
// transposes, organized BLIS-style: the k dimension is split into KC
// blocks, op(A) panels (MC×KC in MR-row micro-panels) and transposed
// op(B) panels (KC×NR) are packed into contiguous, zero-padded scratch
// so the MR×NR micro-kernel runs branch-free contiguous inner loops; a
// non-transposed B already has NR contiguous floats per panel row and
// is read in place (only a partial last panel is packed). Column
// micro-panels of one (MC, KC, NC) block are distributed over the
// persistent ThreadPool; every C tile is written by exactly one task and
// the KC blocks accumulate in a fixed order, so results are bitwise
// identical for any thread count.
//
// The micro-kernel comes in one portable and two explicit-vector
// variants (AVX2, AVX-512F), picked once at first use from CPUID. All
// variants keep the MR×NR accumulator block in registers and perform
// the same operations in the same order — one multiply, then one add,
// per (p, i, j), p ascending — and this file is compiled with FP
// contraction off (src/kernels/CMakeLists.txt), so no multiply-add is
// fused into an FMA. The variants therefore give bitwise the same C,
// and trained weights do not depend on the CPU.
#pragma once

#include <cstdint>

namespace hwp3d::kernels {

// Micro-tile: kMR×kNR float accumulators live in registers.
inline constexpr int64_t kMR = 6;
inline constexpr int64_t kNR = 16;
// Cache blocking: the KC×NR B panel targets L1, the MC×KC packed A
// block L2, the KC×NC packed B block the last-level cache.
inline constexpr int64_t kMC = 96;   // multiple of kMR
inline constexpr int64_t kKC = 256;
inline constexpr int64_t kNC = 1024; // multiple of kNR

// C[m×n] (+)= op(A)[m×k] · op(B)[k×n]; op transposes when trans_* is
// set. lda/ldb are the leading dimensions of the *stored* (untransposed)
// matrices. accumulate=false overwrites C, true adds into it.
void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           const float* a, int64_t lda, const float* b, int64_t ldb,
           float* c, int64_t ldc, bool accumulate);

// Instruction set of the micro-kernel variant.
enum class SgemmIsa { kPortable, kAvx2, kAvx512 };

// True when this build has the variant and the CPU can run it.
bool SgemmIsaSupported(SgemmIsa isa);

// The variant Sgemm uses: the widest supported one, unless SetSgemmIsa
// overrode it.
SgemmIsa ActiveSgemmIsa();

// Process-wide override for the ISA parity tests and the portable vs
// dispatched A/B in bench_kernels. `isa` must be supported.
void SetSgemmIsa(SgemmIsa isa);

const char* SgemmIsaName(SgemmIsa isa);

}  // namespace hwp3d::kernels
