// Implicit-GEMM Conv3d forward/backward (the kernels::Engine::kGemm path).
//
// Per sample:  forward   y  = W · X̂                [M×K]·[K×P]
//              weight    dW += dy · X̂ᵀ             [M×P]·[P×K]
//              input     dx = Ŵ · D̂Y               [N×K']·[K'×Pi]
// with K = N·Kd·Kh·Kw, P = Do·Ho·Wo, K' = M·Kd·Kh·Kw and
// Pi = Di·Hi·Wi.
// No column matrix is built. X̂ is read in place from a zero-halo copy
// of the sample (the halo is the conv's padding), made once by the
// forward and kept for the backward: its row for tap
// (n, kd, kh, kw) is the copy shifted by that tap, one entry of the
// SGEMM's B row-offset table (kernels::SgemmIndirect). D̂Y is the same
// over a zero-bordered copy of dy (zero-dilated by the stride), read
// with the kernel flipped: dx is the transposed convolution, and Ŵ is
// W regrouped as [N][M·Kd·Kh·Kw]. The paper's W[M][N][Kd][Kh][Kw]
// layout is the forward A operand as is, so the same weight tensor
// feeds the pruning core, the FPGA simulator, and this engine. Parity
// with the naive reference loops is asserted by
// tests/conv_engine_parity_test.cpp; the forward is bitwise equal to an
// explicit im2col + Sgemm (tests/testing/im2col_reference.h).
//
// Columns in place. With unit row and column strides, one output depth
// is one GEMM whose columns run along the operand's rows at its pitch:
// column j is output row j / pitch, column j % pitch, and the columns
// past the output width (the halo) are computed into a small M-row
// scratch and dropped. When the pitch equals the output width no
// columns are dropped and C is the output itself; when, in addition, an
// operand depth step equals an output plane, all depths are one GEMM.
// Convs strided in rows or columns gather while packing B instead,
// through a column-offset table over the whole sample.
//
// Each call opens one pool region over the samples; a sample's copies
// and GEMMs run on the participant that claimed it, with per-participant
// scratch that scales with one sample's activations, never with K × P.
// dW is summed from per-sample partials in sample order, so every
// result is bitwise independent of the pool size.
#pragma once

#include <cstdint>

namespace hwp3d::kernels {

// Static problem geometry of one Conv3d call.
struct Conv3dGeom {
  int64_t batch = 0;
  int64_t in_c = 0, out_c = 0;
  int64_t in_d = 0, in_h = 0, in_w = 0;
  int64_t k_d = 1, k_h = 1, k_w = 1;
  int64_t s_d = 1, s_h = 1, s_w = 1;
  int64_t p_d = 0, p_h = 0, p_w = 0;
  int64_t out_d = 0, out_h = 0, out_w = 0;

  int64_t k_vol() const { return k_d * k_h * k_w; }
  int64_t cols_rows() const { return in_c * k_vol(); }            // K
  int64_t cols_cols() const { return out_d * out_h * out_w; }     // P
  int64_t in_sample_size() const { return in_c * in_d * in_h * in_w; }
  int64_t out_sample_size() const { return out_c * cols_cols(); }
  bool padded() const { return p_d + p_h + p_w > 0; }
  // Floats of one sample's zero-halo copy [N][Di+2Pd][Hi+2Ph][Wi+2Pw].
  int64_t halo_sample_size() const {
    return in_c * (in_d + 2 * p_d) * (in_h + 2 * p_h) * (in_w + 2 * p_w);
  }
};

// y[B][M][Do][Ho][Wo] = conv(x, w) (+ bias if non-null). Overwrites y.
// When `halo` is non-null and the conv is padded, sample b's zero-halo
// copy is made at halo + b·halo_sample_size() (else in per-participant
// scratch), where Conv3dBackwardGemm can read it.
void Conv3dForwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                       const float* bias, float* y, float* halo = nullptr);

// Accumulates dw[M][K] (+=) and overwrites dx with the input gradient,
// from dy[B][M][Do][Ho][Wo]. `xh` is the input as the forward read it:
// x itself when the conv has no padding, else the forward's `halo`.
// Pass dx == nullptr to skip the input-gradient computation.
void Conv3dBackwardGemm(const Conv3dGeom& g, const float* xh, const float* w,
                        const float* dy, float* dw, float* dx);

}  // namespace hwp3d::kernels
