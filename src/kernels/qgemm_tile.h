// Q7.8 fixed-point GEMM micro-kernels for the fast-path compiled
// executor (fpga::PackedConvLayer).
//
// The accelerator simulator accumulates int16 Q7.8 products in a wide
// DSP48-style accumulator (hwp3d::FixedAccum, an int64) and narrows to
// Q7.8 exactly once per output element. These kernels compute the same
// sums as an implicit GEMM per output-channel block:
//
//   acc[i][j] = Σ_p  w[p][i][0]·b[p][j][0] + w[p][i][1]·b[p][j][1]
//
// with M = the block's output channels, K = its surviving weight slots,
// interleaved in pairs (p) so one 32-bit lane of a packed multiply-add
// (vpmaddwd, vpdpwssd) takes a whole pair, and N = output columns.
//
// Exactness is proved, not assumed. Every input is an int16, so a
// partial sum of one output channel is bounded by Σ|w| × 32768 over the
// channel's surviving weights. Where that bound is below 2³¹
// (Int32AccumIsExact), every partial sum fits in int32, and int32
// accumulation gives the int64 sum in any order. The executor calls
// QGemmInt32 only on blocks whose every channel has the proof;
// QGemmInt64 keeps the int64 arithmetic for the rest. Both read the same
// packed operands.
//
// QGemmInt32 comes in a portable variant (the reference, whose int32
// arithmetic UBSan checks for overflow) and in AVX2 vpmaddwd, AVX-512BW
// vpmaddwd and AVX512-VNNI vpdpwssd variants, picked once from CPUID
// the way kernels::Sgemm picks its micro-kernel. The default build
// targets baseline x86-64, so the vector variants are compiled with
// per-function target attributes. Every variant yields the same int32
// sums, hence the same bytes.
#pragma once

#include <cstdint>

#include "fixed/fixed_point.h"

namespace hwp3d::kernels {

// Output channels per register block: packed weight rows are padded to
// a multiple of kQMR with zero weights.
inline constexpr int64_t kQMR = 4;
// Panel column granule: panel rows and accumulator rows are padded to a
// multiple of kQNR columns (one AVX-512 int32 vector).
inline constexpr int64_t kQNR = 16;

// True when int32 accumulation of int16 products is exact for a dot
// product whose partial sums are bounded in magnitude by `bound`.
constexpr bool Int32AccumIsExact(int64_t bound) {
  return bound < (int64_t{1} << 31);
}

// The bound for one output channel: Σ|w_raw| over its surviving
// weights times the largest int16 magnitude, 32768.
constexpr int64_t Int32AccumBound(int64_t abs_weight_sum) {
  return abs_weight_sum * 32768;
}

// A run of consecutive K-pairs of a panel: pairs [first, first + count).
struct QSegment {
  int64_t first = 0;
  int64_t count = 0;
};

// Packed operands of one output-channel block.
//  w:     the block's K-pairs in segment order; pair p at w + p * 2 * rows,
//         row i's two weights at +2i, +2i+1. `rows` is a multiple of kQMR.
//  panel: [pair][cols][2] int16; `cols` is a multiple of kQNR.
//  acc:   [rows][cols], overwritten (zero when there are no segments).
struct QGemmArgs {
  const int16_t* w = nullptr;
  int64_t rows = 0;
  const QSegment* segs = nullptr;
  int64_t num_segs = 0;
  const int16_t* panel = nullptr;
  int64_t cols = 0;
};

// The block's sums in int32. Every row must satisfy Int32AccumIsExact.
void QGemmInt32(const QGemmArgs& args, int32_t* acc);

// The block's sums in int64, for rows the proof does not cover.
void QGemmInt64(const QGemmArgs& args, int64_t* acc);

// Narrows and post-processes one accumulator row into the output:
//   v = narrow(acc[c]); if affine: v = v*scale + shift;
//   if shortcut: v = v + shortcut[c]; if relu: v = max(v, 0)
// in exactly the order and Q7.8 saturating arithmetic of the
// simulator's post-processing unit (FixedAccum::ToFixed16, Fixed16's
// operators). `shortcut` may be null. The int32 overload requires the
// row's proof: it narrows in int32, which Int32AccumIsExact makes safe.
void QPostProcessRow(const int32_t* acc, int64_t n, bool has_affine,
                     Fixed16 scale, Fixed16 shift, const Fixed16* shortcut,
                     bool relu, Fixed16* out);
void QPostProcessRow(const int64_t* acc, int64_t n, bool has_affine,
                     Fixed16 scale, Fixed16 shift, const Fixed16* shortcut,
                     bool relu, Fixed16* out);

// Instruction set of the QGemmInt32 variant.
enum class QIsa { kPortable, kAvx2, kAvx512Bw, kAvx512Vnni };

// True when this build has the variant and the CPU can run it.
bool QIsaSupported(QIsa isa);

// The variant QGemmInt32 uses: the widest supported one, unless SetQIsa
// overrode it.
QIsa ActiveQIsa();

// Process-wide override for the ISA parity tests and the portable vs
// dispatched A/B in bench_kernels. `isa` must be supported.
void SetQIsa(QIsa isa);

const char* QIsaName(QIsa isa);

}  // namespace hwp3d::kernels
