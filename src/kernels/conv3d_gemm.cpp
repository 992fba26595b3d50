#include "kernels/conv3d_gemm.h"

#include <algorithm>

#include "kernels/scratch.h"
#include "kernels/sgemm.h"
#include "kernels/thread_pool.h"
#include "obs/trace.h"

namespace hwp3d::kernels {
namespace {

// Column budget of one im2col slab. A slab holds whole output-depth
// planes, at least one, so a participant's scratch is K × slab floats.
constexpr int64_t kSlabCols = 256;

int64_t SlabPlanes(const Conv3dGeom& g) {
  const int64_t plane = g.out_h * g.out_w;
  return std::clamp<int64_t>(kSlabCols / plane, 1, g.out_d);
}

// Per-participant slab scratch, shared by the forward and backward
// passes (a participant runs one sample at a time).
thread_local ScratchBuffer<float> t_cols;
thread_local ScratchBuffer<float> t_dcols;

}  // namespace

// Samples fan out over one pool region; each sample's im2col, GEMMs and
// col2im run on the participant that claimed it (nested For runs
// inline). A batch of one runs on the caller outside any region, so its
// GEMMs still fan out internally.
void Conv3dForwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                       const float* bias, float* y) {
  HWP_TRACE_SCOPE("kernels/conv3d_forward_gemm");
  const int64_t K = g.cols_rows();
  const int64_t P = g.cols_cols();
  const int64_t plane = g.out_h * g.out_w;
  const int64_t slab = SlabPlanes(g);
  ThreadPool::Get().For(0, g.batch, [&](int64_t b) {
    float* cols = t_cols.Resize(static_cast<size_t>(K * slab * plane));
    const float* xb = x + b * g.in_sample_size();
    float* yb = y + b * g.out_sample_size();
    if (bias != nullptr) {
      // Seed each output row with its bias, then accumulate the GEMMs.
      for (int64_t m = 0; m < g.out_c; ++m) {
        std::fill(yb + m * P, yb + (m + 1) * P, bias[m]);
      }
    }
    for (int64_t od = 0; od < g.out_d; od += slab) {
      const int64_t od_end = std::min(g.out_d, od + slab);
      const int64_t n = (od_end - od) * plane;
      Im2col3d(g, xb, od, od_end, cols);
      Sgemm(/*trans_a=*/false, /*trans_b=*/false, g.out_c, n, K, w, K, cols,
            n, yb + od * plane, P, /*accumulate=*/bias != nullptr);
    }
  });
}

void Conv3dBackwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                        const float* dy, float* dw, float* dx) {
  HWP_TRACE_SCOPE("kernels/conv3d_backward_gemm");
  const int64_t K = g.cols_rows();
  const int64_t P = g.cols_cols();
  const int64_t MK = g.out_c * K;
  const int64_t plane = g.out_h * g.out_w;
  const int64_t slab = SlabPlanes(g);
  // One dW partial per sample, summed below in sample order, so dW is
  // bitwise the same whichever participant ran which sample.
  thread_local ScratchBuffer<float> partial_scratch;
  float* partials = partial_scratch.Resize(static_cast<size_t>(g.batch * MK));
  ThreadPool::Get().For(0, g.batch, [&](int64_t b) {
    float* cols = t_cols.Resize(static_cast<size_t>(K * slab * plane));
    float* dcols = dx != nullptr
                       ? t_dcols.Resize(static_cast<size_t>(K * slab * plane))
                       : nullptr;
    const float* dyb = dy + b * g.out_sample_size();
    float* dwb = partials + b * MK;
    for (int64_t od = 0; od < g.out_d; od += slab) {
      const int64_t od_end = std::min(g.out_d, od + slab);
      const int64_t n = (od_end - od) * plane;
      const float* dy_slab = dyb + od * plane;
      Im2col3d(g, x + b * g.in_sample_size(), od, od_end, cols);
      // dW_b[M×K] (+)= dy_slab[M×n] · colsᵀ[n×K]
      Sgemm(/*trans_a=*/false, /*trans_b=*/true, g.out_c, K, n, dy_slab, P,
            cols, n, dwb, K, /*accumulate=*/od > 0);
      if (dx != nullptr) {
        // dcols[K×n] = Wᵀ[K×M] · dy_slab[M×n], then scatter back to dx_b.
        Sgemm(/*trans_a=*/true, /*trans_b=*/false, K, n, g.out_c, w, K,
              dy_slab, P, dcols, n, /*accumulate=*/false);
        Col2im3d(g, dcols, od, od_end, dx + b * g.in_sample_size());
      }
    }
  });
  for (int64_t b = 0; b < g.batch; ++b) {
    const float* dwb = partials + b * MK;
    for (int64_t i = 0; i < MK; ++i) dw[i] += dwb[i];
  }
}

}  // namespace hwp3d::kernels
