#include "kernels/conv3d_gemm.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "kernels/scratch.h"
#include "kernels/sgemm.h"
#include "kernels/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwp3d::kernels {
namespace {

using Dims = std::array<int64_t, 3>;  // depth, rows, columns

int64_t Volume(const Dims& e) { return e[0] * e[1] * e[2]; }

// Time spent copying operands into GEMM layouts: the forward and dW
// side (zero-halo inputs, widened dy rows, dropped halo columns) counts
// as kernels.im2col.us, the dX side (zero-bordered dy, dropped columns)
// as kernels.col2im.us.
obs::Counter& ForwardLayoutUs() {
  static obs::Counter& c =
      obs::MetricsRegistry::Get().GetCounter("kernels.im2col.us");
  return c;
}
obs::Counter& InputGradLayoutUs() {
  static obs::Counter& c =
      obs::MetricsRegistry::Get().GetCounter("kernels.col2im.us");
  return c;
}

template <typename Fn>
void Timed(obs::Counter& us, Fn&& fn) {
  const double t0 = obs::NowUs();
  fn();
  us.Add(static_cast<int64_t>(obs::NowUs() - t0));
}

// Zero-fills dst[channels][dst_ext] and places src[channels][src_ext]
// in it: source element (i, j, k) lands at
// (lo[0] + i·step[0], lo[1] + j·step[1], lo[2] + k·step[2]); elements
// that land past the destination's extent are dropped.
void Place(const float* src, int64_t channels, const Dims& src_ext,
           float* dst, const Dims& dst_ext, const Dims& lo,
           const Dims& step) {
  std::fill(dst, dst + channels * Volume(dst_ext), 0.0f);
  Dims fit;
  for (size_t a = 0; a < 3; ++a) {
    fit[a] = std::clamp<int64_t>(
        (dst_ext[a] - lo[a] + step[a] - 1) / step[a], 0, src_ext[a]);
  }
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t i = 0; i < fit[0]; ++i) {
      for (int64_t j = 0; j < fit[1]; ++j) {
        const float* s =
            src + ((c * src_ext[0] + i) * src_ext[1] + j) * src_ext[2];
        float* d = dst +
                   ((c * dst_ext[0] + lo[0] + i * step[0]) * dst_ext[1] +
                    lo[1] + j * step[1]) *
                       dst_ext[2] +
                   lo[2];
        if (step[2] == 1) {
          std::memcpy(d, s, sizeof(float) * static_cast<size_t>(fit[2]));
        } else {
          for (int64_t k = 0; k < fit[2]; ++k) d[k * step[2]] = s[k];
        }
      }
    }
  }
}

// How one sample's output columns map onto GEMMs over an operand
// layout: `groups` GEMMs of `n` columns; group g reads the operand from
// offset g·in_step and writes the output from offset g·out_step. In
// place, column j of a group is output row j / pitch, column j % pitch,
// and the columns at width..pitch-1 of a row are dropped (wide). A
// gathered plan has one group of compact columns, read through col_off.
struct ColumnPlan {
  int64_t groups = 1;
  int64_t n = 0;
  int64_t in_step = 0;
  int64_t out_step = 0;
  int64_t rows = 0;   // output rows per group
  int64_t width = 0;  // output row width
  int64_t pitch = 0;  // GEMM columns per output row
  const int64_t* col_off = nullptr;

  bool wide() const { return pitch != width; }
};

// Unit row/column strides: output depth d reads the operand (rows of
// `pitch`) from d·depth_step. Depths merge into one GEMM when nothing
// is dropped and an operand depth step is an output plane.
ColumnPlan InPlacePlan(const Dims& out, int64_t pitch, int64_t depth_step) {
  ColumnPlan c;
  c.width = out[2];
  c.pitch = pitch;
  if (pitch == out[2] && depth_step == out[1] * out[2]) {
    c.n = Volume(out);
    c.rows = out[0] * out[1];
    return c;
  }
  c.groups = out[0];
  c.n = (out[1] - 1) * pitch + out[2];
  c.rows = out[1];
  c.in_step = depth_step;
  c.out_step = out[1] * out[2];
  return c;
}

// Copies the kept columns of the wide GEMM result c[rows_m][plan.n]
// into out (channel stride ld) at the group's offset.
void DropHaloColumns(const ColumnPlan& plan, int64_t rows_m, const float* c,
                     float* out, int64_t ld) {
  for (int64_t m = 0; m < rows_m; ++m) {
    for (int64_t r = 0; r < plan.rows; ++r) {
      std::memcpy(out + m * ld + r * plan.width,
                  c + m * plan.n + r * plan.pitch,
                  sizeof(float) * static_cast<size_t>(plan.width));
    }
  }
}

// The inverse: dy rows of the group (channel stride ld) spread to the
// plan's pitch in wide (channel stride ldw), the dropped columns zero,
// so they add nothing to dW.
void WidenRows(const ColumnPlan& plan, int64_t rows_m, const float* in,
               int64_t ld, float* wide, int64_t ldw) {
  for (int64_t m = 0; m < rows_m; ++m) {
    float* dst = wide + m * ldw;
    for (int64_t r = 0; r < plan.rows; ++r) {
      std::memcpy(dst + r * plan.pitch, in + m * ld + r * plan.width,
                  sizeof(float) * static_cast<size_t>(plan.width));
      if (r + 1 < plan.rows) {
        std::fill(dst + r * plan.pitch + plan.width,
                  dst + (r + 1) * plan.pitch, 0.0f);
      }
    }
  }
}

// The forward/dW operand: the input sample with a zero halo of the
// conv's padding, and its GEMM plan over the output.
struct InputOperand {
  Dims ext;  // halo extent
  ColumnPlan plan;
};

InputOperand MakeInputOperand(const Conv3dGeom& g, int64_t* row_off,
                              int64_t* col_off) {
  InputOperand op;
  op.ext = {g.in_d + 2 * g.p_d, g.in_h + 2 * g.p_h, g.in_w + 2 * g.p_w};
  const int64_t hw = op.ext[1] * op.ext[2];
  // Row (n, kd, kh, kw) of the implicit column matrix: the halo copy
  // shifted by the tap.
  int64_t r = 0;
  for (int64_t n = 0; n < g.in_c; ++n)
    for (int64_t kd = 0; kd < g.k_d; ++kd)
      for (int64_t kh = 0; kh < g.k_h; ++kh)
        for (int64_t kw = 0; kw < g.k_w; ++kw)
          row_off[r++] = n * Volume(op.ext) + kd * hw + kh * op.ext[2] + kw;
  const Dims out = {g.out_d, g.out_h, g.out_w};
  if (g.s_h == 1 && g.s_w == 1) {
    op.plan = InPlacePlan(out, op.ext[2], g.s_d * hw);
    return op;
  }
  // Strided rows or columns: gather every output column while packing.
  int64_t j = 0;
  for (int64_t od = 0; od < g.out_d; ++od)
    for (int64_t oh = 0; oh < g.out_h; ++oh)
      for (int64_t ow = 0; ow < g.out_w; ++ow)
        col_off[j++] = od * g.s_d * hw + oh * g.s_h * op.ext[2] + ow * g.s_w;
  op.plan.n = Volume(out);
  op.plan.rows = g.out_d * g.out_h;
  op.plan.width = op.plan.pitch = g.out_w;
  op.plan.col_off = col_off;
  return op;
}

// Per-participant scratch: one sample's operand copies plus the M- or
// N-row GEMM results whose halo columns are dropped.
thread_local ScratchBuffer<float> t_halo;
thread_local ScratchBuffer<float> t_wide;
thread_local ScratchBuffer<float> t_dy_border;

}  // namespace

// Samples fan out over one pool region; each sample's copies and GEMMs
// run on the participant that claimed it (nested For runs inline). A
// batch of one runs on the caller outside any region, so its GEMMs
// still fan out internally.
void Conv3dForwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                       const float* bias, float* y, float* halo) {
  HWP_TRACE_SCOPE("kernels/conv3d_forward_gemm");
  const int64_t K = g.cols_rows();
  const int64_t P = g.cols_cols();
  thread_local ScratchBuffer<int64_t> row_scratch, col_scratch;
  int64_t* row_off = row_scratch.Resize(static_cast<size_t>(K));
  const InputOperand op = MakeInputOperand(
      g, row_off, col_scratch.Resize(static_cast<size_t>(P)));
  const ColumnPlan& plan = op.plan;
  const PackedA wpack(/*trans=*/false, g.out_c, K, w, K);
  ThreadPool::Get().For(0, g.batch, [&](int64_t b) {
    // The operand: x itself without padding, else its zero-halo copy.
    const float* xh = x + b * g.in_sample_size();
    if (g.padded()) {
      float* copy =
          halo != nullptr
              ? halo + b * g.halo_sample_size()
              : t_halo.Resize(static_cast<size_t>(g.halo_sample_size()));
      Timed(ForwardLayoutUs(), [&] {
        Place(xh, g.in_c, {g.in_d, g.in_h, g.in_w}, copy, op.ext,
              {g.p_d, g.p_h, g.p_w}, {1, 1, 1});
      });
      xh = copy;
    }
    float* yb = y + b * g.out_sample_size();
    for (int64_t grp = 0; grp < plan.groups; ++grp) {
      const IndirectB operand{xh + grp * plan.in_step, row_off, plan.col_off};
      float* c = yb + grp * plan.out_step;
      int64_t ldc = P;
      if (plan.wide()) {
        c = t_wide.Resize(static_cast<size_t>(g.out_c * plan.n));
        ldc = plan.n;
      }
      if (bias != nullptr) {
        // Seed each output row with its bias, then accumulate the GEMM.
        for (int64_t m = 0; m < g.out_c; ++m) {
          std::fill(c + m * ldc, c + m * ldc + plan.n, bias[m]);
        }
      }
      SgemmIndirect(wpack, plan.n, operand, c, ldc,
                    /*accumulate=*/bias != nullptr);
      if (plan.wide()) {
        Timed(ForwardLayoutUs(), [&] {
          DropHaloColumns(plan, g.out_c, c, yb + grp * plan.out_step, P);
        });
      }
    }
  });
}

void Conv3dBackwardGemm(const Conv3dGeom& g, const float* xh, const float* w,
                        const float* dy, float* dw, float* dx) {
  HWP_TRACE_SCOPE("kernels/conv3d_backward_gemm");
  const int64_t K = g.cols_rows();
  const int64_t P = g.cols_cols();
  const int64_t MK = g.out_c * K;
  const int64_t kvol = g.k_vol();
  thread_local ScratchBuffer<int64_t> row_scratch, col_scratch;
  int64_t* row_off = row_scratch.Resize(static_cast<size_t>(K));
  const InputOperand op = MakeInputOperand(
      g, row_off, col_scratch.Resize(static_cast<size_t>(P)));
  const ColumnPlan& plan = op.plan;

  // dx is the stride-1 transposed conv of dy, zero-dilated by the stride
  // and zero-bordered so every read of a flipped tap stays inside: along
  // an axis, dy element o sits at lo + o·s of an extent of in + p + lo,
  // with lo = max(k - 1 - p, 0), and input position i reads tap k at
  // i + max(k - 1, p) - k.
  const Dims in = {g.in_d, g.in_h, g.in_w};
  const Dims out = {g.out_d, g.out_h, g.out_w};
  const Dims kernel = {g.k_d, g.k_h, g.k_w};
  const Dims pad = {g.p_d, g.p_h, g.p_w};
  const Dims stride = {g.s_d, g.s_h, g.s_w};
  Dims lo, border, reach;
  for (size_t a = 0; a < 3; ++a) {
    lo[a] = std::max<int64_t>(kernel[a] - 1 - pad[a], 0);
    border[a] = in[a] + pad[a] + lo[a];
    reach[a] = pad[a] + lo[a];
  }
  const int64_t KT = g.out_c * kvol;  // K' of the dX GEMM
  const int64_t Pi = Volume(in);
  thread_local ScratchBuffer<int64_t> dx_row_scratch;
  thread_local ScratchBuffer<float> wt_scratch;
  int64_t* dx_row_off = nullptr;
  float* wt = nullptr;
  ColumnPlan dx_plan;
  std::optional<PackedA> wt_pack;
  if (dx != nullptr) {
    // Row (m, kd, kh, kw) of D̂Y is the bordered dy shifted back by the
    // tap, and Ŵ[n][(m, tap)] = W[m][n][tap].
    dx_row_off = dx_row_scratch.Resize(static_cast<size_t>(KT));
    wt = wt_scratch.Resize(static_cast<size_t>(g.in_c * KT));
    const int64_t hw = border[1] * border[2];
    for (int64_t m = 0; m < g.out_c; ++m) {
      int64_t t = 0;
      for (int64_t kd = 0; kd < g.k_d; ++kd)
        for (int64_t kh = 0; kh < g.k_h; ++kh)
          for (int64_t kw = 0; kw < g.k_w; ++kw, ++t)
            dx_row_off[m * kvol + t] = m * Volume(border) +
                                       (reach[0] - kd) * hw +
                                       (reach[1] - kh) * border[2] +
                                       (reach[2] - kw);
      for (int64_t n = 0; n < g.in_c; ++n) {
        std::memcpy(wt + n * KT + m * kvol, w + (m * g.in_c + n) * kvol,
                    sizeof(float) * static_cast<size_t>(kvol));
      }
    }
    dx_plan = InPlacePlan(in, border[2], hw);
    wt_pack.emplace(/*trans=*/false, g.in_c, KT, wt, KT);
  }

  // One dW partial per sample, summed below in sample order, so dW is
  // bitwise the same whichever participant ran which sample.
  thread_local ScratchBuffer<float> partial_scratch;
  float* partials = partial_scratch.Resize(static_cast<size_t>(g.batch * MK));
  ThreadPool::Get().For(0, g.batch, [&](int64_t b) {
    const float* dyb = dy + b * g.out_sample_size();
    float* dwb = partials + b * MK;
    const float* xb = xh + b * g.halo_sample_size();
    // dW_b[M×K] = Σ_g dy_g[M×n] · X̂_gᵀ[n×K]
    if (plan.col_off != nullptr) {
      SgemmIndirect(/*trans_a=*/false, /*trans_b=*/true, g.out_c, K, plan.n,
                    dyb, P, {xb, row_off, plan.col_off}, dwb, K,
                    /*accumulate=*/false);
    } else {
      const float* a = dyb;
      int64_t lda = P, a_step = plan.out_step;
      if (plan.wide()) {
        lda = plan.groups * plan.n;
        a_step = plan.n;
        float* widened = t_wide.Resize(static_cast<size_t>(g.out_c * lda));
        Timed(ForwardLayoutUs(), [&] {
          for (int64_t grp = 0; grp < plan.groups; ++grp) {
            WidenRows(plan, g.out_c, dyb + grp * plan.out_step, P,
                      widened + grp * plan.n, lda);
          }
        });
        a = widened;
      }
      SgemmDot(g.out_c, K, plan.n, plan.groups, a, lda, a_step,
               {xb, row_off}, plan.in_step, dwb, K, /*accumulate=*/false);
    }
    if (dx == nullptr) return;
    float* dyz =
        t_dy_border.Resize(static_cast<size_t>(g.out_c * Volume(border)));
    Timed(InputGradLayoutUs(),
          [&] { Place(dyb, g.out_c, out, dyz, border, lo, stride); });
    float* dxb = dx + b * g.in_sample_size();
    for (int64_t grp = 0; grp < dx_plan.groups; ++grp) {
      // dx_g[N×n] = Ŵ[N×K'] · D̂Y_g[K'×n]
      float* c = dxb + grp * dx_plan.out_step;
      int64_t ldc = Pi;
      if (dx_plan.wide()) {
        c = t_wide.Resize(static_cast<size_t>(g.in_c * dx_plan.n));
        ldc = dx_plan.n;
      }
      SgemmIndirect(*wt_pack, dx_plan.n,
                    {dyz + grp * dx_plan.in_step, dx_row_off}, c, ldc,
                    /*accumulate=*/false);
      if (dx_plan.wide()) {
        Timed(InputGradLayoutUs(), [&] {
          DropHaloColumns(dx_plan, g.in_c, c, dxb + grp * dx_plan.out_step,
                          Pi);
        });
      }
    }
  });
  for (int64_t b = 0; b < g.batch; ++b) {
    const float* dwb = partials + b * MK;
    for (int64_t i = 0; i < MK; ++i) dw[i] += dwb[i];
  }
}

}  // namespace hwp3d::kernels
