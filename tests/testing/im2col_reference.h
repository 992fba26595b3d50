// Explicitly lowered conv forward, the reference the in-place engine is
// checked against bit for bit (conv_engine_parity_test): each sample is
// lowered to the column matrix cols[K][P],
//   cols[((n·Kd + kd)·Kh + kh)·Kw + kw][(od·Ho + oh)·Wo + ow]
//     = x[n][od·Sd + kd − Pd][oh·Sh + kh − Ph][ow·Sw + kw − Pw]
// (0 where that index is in the padding)
// and multiplied by the [M × K] weight with one kernels::Sgemm. The
// engine reads the same rows in place, in the same K order and KC
// blocks, so the bits must match.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "kernels/conv3d_gemm.h"
#include "kernels/sgemm.h"

namespace hwp3d::testing {

// cols[K][P] of sample x[N][Di][Hi][Wi].
inline std::vector<float> Im2colReference(const kernels::Conv3dGeom& g,
                                          const float* x) {
  const int64_t P = g.cols_cols();
  std::vector<float> cols(static_cast<size_t>(g.cols_rows() * P), 0.0f);
  int64_t r = 0;
  for (int64_t n = 0; n < g.in_c; ++n)
    for (int64_t kd = 0; kd < g.k_d; ++kd)
      for (int64_t kh = 0; kh < g.k_h; ++kh)
        for (int64_t kw = 0; kw < g.k_w; ++kw, ++r) {
          int64_t j = 0;
          for (int64_t od = 0; od < g.out_d; ++od)
            for (int64_t oh = 0; oh < g.out_h; ++oh)
              for (int64_t ow = 0; ow < g.out_w; ++ow, ++j) {
                const int64_t id = od * g.s_d + kd - g.p_d;
                const int64_t ih = oh * g.s_h + kh - g.p_h;
                const int64_t iw = ow * g.s_w + kw - g.p_w;
                if (id < 0 || id >= g.in_d || ih < 0 || ih >= g.in_h ||
                    iw < 0 || iw >= g.in_w) {
                  continue;
                }
                cols[static_cast<size_t>(r * P + j)] =
                    x[((n * g.in_d + id) * g.in_h + ih) * g.in_w + iw];
              }
        }
  return cols;
}

// y[B][M][Do][Ho][Wo] = W · im2col(x) (+ bias seeded first, as the
// engine does).
inline void ConvForwardReference(const kernels::Conv3dGeom& g, const float* x,
                                 const float* w, const float* bias, float* y) {
  const int64_t K = g.cols_rows(), P = g.cols_cols();
  for (int64_t b = 0; b < g.batch; ++b) {
    const std::vector<float> cols =
        Im2colReference(g, x + b * g.in_sample_size());
    float* yb = y + b * g.out_sample_size();
    if (bias != nullptr) {
      for (int64_t m = 0; m < g.out_c; ++m) {
        std::fill(yb + m * P, yb + (m + 1) * P, bias[m]);
      }
    }
    kernels::Sgemm(/*trans_a=*/false, /*trans_b=*/false, g.out_c, P, K, w, K,
                   cols.data(), P, yb, P, /*accumulate=*/bias != nullptr);
  }
}

}  // namespace hwp3d::testing
