#include "kernels/im2col.h"

#include <algorithm>
#include <cstring>

#include "kernels/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwp3d::kernels {
namespace {

// Valid output range [lo, hi) along one axis: the ow with
// 0 <= ow·s + shift < extent, clamped to [0, out).
inline void ValidRange(int64_t out, int64_t s, int64_t shift, int64_t extent,
                       int64_t* lo, int64_t* hi) {
  *lo = shift < 0 ? (-shift + s - 1) / s : 0;
  *hi = extent > shift ? (extent - shift + s - 1) / s : 0;
  *lo = std::min(*lo, out);
  *hi = std::clamp(*hi, *lo, out);
}

}  // namespace

void Im2col3d(const Conv3dGeom& g, const float* x, int64_t od_begin,
              int64_t od_end, float* cols) {
  HWP_TRACE_SCOPE("kernels/im2col");
  static obs::Counter& us_total =
      obs::MetricsRegistry::Get().GetCounter("kernels.im2col.us");
  const double t0 = obs::NowUs();

  const int64_t K = g.cols_rows();
  const int64_t S = (od_end - od_begin) * g.out_h * g.out_w;
  const int64_t khw = g.k_h * g.k_w;
  const int64_t kdhw = g.k_d * khw;
  // With unit h/w strides and out_w == in_w, a row of cols and a row of
  // x have the same length, so a plane's valid rows are one copy.
  const bool contiguous = g.s_h == 1 && g.s_w == 1 && g.out_w == g.in_w;
  ThreadPool::Get().For(0, K, [&](int64_t r) {
    const int64_t n = r / kdhw;
    const int64_t kd = (r / khw) % g.k_d;
    const int64_t kh = (r / g.k_w) % g.k_h;
    const int64_t kw = r % g.k_w;
    const int64_t sd = kd - g.p_d, sh = kh - g.p_h, sw = kw - g.p_w;
    int64_t ow_lo, ow_hi;
    ValidRange(g.out_w, g.s_w, sw, g.in_w, &ow_lo, &ow_hi);

    int64_t oh_lo, oh_hi;
    ValidRange(g.out_h, g.s_h, sh, g.in_h, &oh_lo, &oh_hi);
    const int64_t plane = g.out_h * g.out_w;

    float* dst = cols + r * S;
    const float* src_n = x + n * g.in_d * g.in_h * g.in_w;
    for (int64_t od = od_begin; od < od_end; ++od, dst += plane) {
      const int64_t id = od * g.s_d + sd;
      if (id < 0 || id >= g.in_d) {
        std::fill(dst, dst + plane, 0.0f);
        continue;
      }
      const float* src_d = src_n + id * g.in_h * g.in_w;
      std::fill(dst, dst + oh_lo * g.out_w, 0.0f);
      std::fill(dst + oh_hi * g.out_w, dst + plane, 0.0f);
      if (contiguous) {
        // Output rows [oh_lo, oh_hi) read one run of the input plane,
        // shifted by sh·W + sw. Clip the run to the plane; what the
        // clip drops, and what wrapped into a neighbouring row, lies in
        // the padded columns zeroed below.
        const int64_t W = g.out_w;
        const int64_t shift = sh * W + sw;
        const int64_t lo = std::max(oh_lo * W, -shift);
        const int64_t hi = std::min(oh_hi * W, g.in_h * W - shift);
        if (hi > lo) {
          std::memcpy(dst + lo, src_d + lo + shift,
                      sizeof(float) * static_cast<size_t>(hi - lo));
        }
        for (int64_t oh = oh_lo; oh < oh_hi; ++oh) {
          float* drow = dst + oh * W;
          for (int64_t ow = 0; ow < ow_lo; ++ow) drow[ow] = 0.0f;
          for (int64_t ow = ow_hi; ow < W; ++ow) drow[ow] = 0.0f;
        }
        continue;
      }
      for (int64_t oh = oh_lo; oh < oh_hi; ++oh) {
        const float* row = src_d + (oh * g.s_h + sh) * g.in_w + sw;
        float* drow = dst + oh * g.out_w;
        for (int64_t ow = 0; ow < ow_lo; ++ow) drow[ow] = 0.0f;
        if (g.s_w == 1) {
          std::copy(row + ow_lo, row + ow_hi, drow + ow_lo);
        } else {
          for (int64_t ow = ow_lo; ow < ow_hi; ++ow) drow[ow] = row[ow * g.s_w];
        }
        for (int64_t ow = ow_hi; ow < g.out_w; ++ow) drow[ow] = 0.0f;
      }
    }
  });

  us_total.Add(static_cast<int64_t>(obs::NowUs() - t0));
}

void Col2im3d(const Conv3dGeom& g, const float* cols, int64_t od_begin,
              int64_t od_end, float* dx) {
  HWP_TRACE_SCOPE("kernels/col2im");
  static obs::Counter& us_total =
      obs::MetricsRegistry::Get().GetCounter("kernels.col2im.us");
  const double t0 = obs::NowUs();

  const int64_t S = (od_end - od_begin) * g.out_h * g.out_w;
  // Each channel n owns a disjoint slice of dx, so the scatter-add is
  // race-free when parallelized over channels.
  ThreadPool::Get().For(0, g.in_c, [&](int64_t n) {
    float* dx_n = dx + n * g.in_d * g.in_h * g.in_w;
    for (int64_t kd = 0; kd < g.k_d; ++kd) {
      for (int64_t kh = 0; kh < g.k_h; ++kh) {
        for (int64_t kw = 0; kw < g.k_w; ++kw) {
          const int64_t r = ((n * g.k_d + kd) * g.k_h + kh) * g.k_w + kw;
          const float* src = cols + r * S;
          const int64_t sd = kd - g.p_d, sh = kh - g.p_h, sw = kw - g.p_w;
          int64_t ow_lo, ow_hi;
          ValidRange(g.out_w, g.s_w, sw, g.in_w, &ow_lo, &ow_hi);
          for (int64_t od = od_begin; od < od_end; ++od) {
            const int64_t id = od * g.s_d + sd;
            if (id < 0 || id >= g.in_d) continue;
            for (int64_t oh = 0; oh < g.out_h; ++oh) {
              const int64_t ih = oh * g.s_h + sh;
              if (ih < 0 || ih >= g.in_h) continue;
              float* drow = dx_n + (id * g.in_h + ih) * g.in_w + sw;
              const float* srow =
                  src + ((od - od_begin) * g.out_h + oh) * g.out_w;
              if (g.s_w == 1) {
                for (int64_t ow = ow_lo; ow < ow_hi; ++ow) drow[ow] += srow[ow];
              } else {
                for (int64_t ow = ow_lo; ow < ow_hi; ++ow) {
                  drow[ow * g.s_w] += srow[ow];
                }
              }
            }
          }
        }
      }
    }
  });

  us_total.Add(static_cast<int64_t>(obs::NowUs() - t0));
}

}  // namespace hwp3d::kernels
