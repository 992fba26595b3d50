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
// B row p is any span of int16 pairs: it starts at b + 2·pair_off[p].
// The executor points the offsets either straight into a halo-padded,
// channel-pair-interleaved activation (the row is the tap of one input
// channel pair, read in place) or at the rows of a panel it gathered
// (for column-strided convs), so one kernel serves both.
//
// Exactness is proved, not assumed. Every input is an int16, so a
// partial sum of one output channel is bounded by Σ|w| × 32768 over the
// channel's surviving weights. Where that bound is below 2³¹
// (Int32AccumIsExact), every partial sum fits in int32, and int32
// accumulation gives the int64 sum in any order, whatever int16 values
// the B rows hold. The executor calls QGemmInt32 only on blocks whose
// every channel has the proof; QGemmInt64 keeps the int64 arithmetic for
// the rest. Both read the same packed operands.
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
// Column granule: a GEMM computes a multiple of kQNR columns (one
// AVX-512 int32 vector), so B rows are read up to that many pairs past
// the columns the caller keeps.
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

// Packed operands of one output-channel block.
//  w:        the block's K-pairs; pair p at w + p * 2 * rows, row i's two
//            weights at +2i, +2i+1. `rows` is a multiple of kQMR.
//  pair_off: B row p is the `cols` int16 pairs at b + 2 * pair_off[p].
//  cols:     a multiple of kQNR.
//  acc:      [rows][cols], overwritten (zero when there are no pairs).
struct QGemmArgs {
  const int16_t* w = nullptr;
  int64_t rows = 0;
  const int64_t* pair_off = nullptr;
  int64_t pairs = 0;
  const int16_t* b = nullptr;
  int64_t cols = 0;
};

// The block's sums in int32. Every row must satisfy Int32AccumIsExact.
void QGemmInt32(const QGemmArgs& args, int32_t* acc);

// The block's sums in int64, for rows the proof does not cover.
void QGemmInt64(const QGemmArgs& args, int64_t* acc);

// The post-processing unit's parameters for one output channel. Without
// an affine the unit's multiply by 1.0 (raw 256) and add of 0 are
// exact, as is adding a zero shortcut, so every channel takes one
// branch-free path.
struct QPostChannel {
  QPostChannel(bool has_affine, Fixed16 s, Fixed16 t, bool relu)
      : scale(has_affine ? s.raw() : Fixed16::kScale),
        shift(has_affine ? t.raw() : 0),
        relu_floor(relu ? 0 : Fixed16::kRawMin) {}
  int32_t scale, shift, relu_floor;
};

// A block of `rows` rows of `n` elements of one channel: row i's
// accumulators start i * acc_pitch values after row 0's, its shortcut
// and output pairs i * shortcut_pitch and i * out_pitch pairs after.
struct QPostRows {
  int64_t rows = 1, n = 0;
  int64_t acc_pitch = 0, shortcut_pitch = 0, out_pitch = 0;
};

// Narrows and post-processes accumulators into channel-pair interleaved
// raw Q7.8 (element c of the pair's channel h at out[2c + h]):
//   v = narrow(acc[c]); v = v*scale + shift;
//   if shortcut: v = v + shortcut[2c + h]; v = max(v, relu_floor)
// in exactly the order and Q7.8 saturating arithmetic of the
// simulator's post-processing unit (FixedAccum::ToFixed16, Fixed16's
// operators). `shortcut` (same interleaving as `out`) may be null. The
// int32 overloads require the rows' proof: they narrow in int32, which
// Int32AccumIsExact makes safe.
//
// QPostProcessPair writes both channels of a pair, acc0 to h = 0 and
// acc1 to h = 1.
void QPostProcessPair(const int32_t* acc0, const int32_t* acc1,
                      const QPostRows& rows, const QPostChannel& ch0,
                      const QPostChannel& ch1, const int16_t* shortcut,
                      int16_t* out);
void QPostProcessPair(const int64_t* acc0, const int64_t* acc1,
                      const QPostRows& rows, const QPostChannel& ch0,
                      const QPostChannel& ch1, const int16_t* shortcut,
                      int16_t* out);
// QPostProcessHalf writes one channel and leaves the other half of each
// pair untouched: `shortcut` and `out` point at the channel's half (its
// elements are 2 apart).
void QPostProcessHalf(const int32_t* acc, const QPostRows& rows,
                      const QPostChannel& ch, const int16_t* shortcut,
                      int16_t* out);
void QPostProcessHalf(const int64_t* acc, const QPostRows& rows,
                      const QPostChannel& ch, const int16_t* shortcut,
                      int16_t* out);

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
