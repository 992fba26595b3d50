// GEMM-lowered Conv3d forward/backward (the kernels::Engine::kGemm path).
//
// Per sample:  forward   y = W·im2col(x)            [M×K]·[K×P]
//              weight    dW += dy·im2col(x)ᵀ        [M×P]·[P×K]
//              input     dx = col2im(Wᵀ·dy)         [K×M]·[M×P]
// with K = N·Kd·Kh·Kw and P = Do·Ho·Wo. The paper's W[M][N][Kd][Kh][Kw]
// layout flattens to the [M×K] GEMM operand with no repacking, so the
// same weight tensor feeds the pruning core, the FPGA simulator, and
// this engine. Parity with the naive reference loops is asserted by
// tests/conv_engine_parity_test.cpp.
//
// Each call opens one pool region over the samples; a sample is lowered
// and multiplied slab by slab (whole output-depth planes, ≤ 256 columns
// when a plane fits) on the participant that claimed it. dW is summed
// from per-sample partials in sample order, so every result is bitwise
// independent of the pool size.
#pragma once

#include "kernels/im2col.h"

namespace hwp3d::kernels {

// y[B][M][Do][Ho][Wo] = conv(x, w) (+ bias if non-null). Overwrites y.
void Conv3dForwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                       const float* bias, float* y);

// Accumulates dw[M][K] (+=) and scatter-adds dx (caller zero-fills dx
// beforehand) from dy[B][M][Do][Ho][Wo]. Pass dx == nullptr to skip the
// input-gradient computation.
void Conv3dBackwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                        const float* dy, float* dw, float* dx);

}  // namespace hwp3d::kernels
