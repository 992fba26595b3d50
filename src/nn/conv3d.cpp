#include "nn/conv3d.h"

#include "kernels/conv3d_gemm.h"
#include "kernels/engine.h"
#include "kernels/thread_pool.h"
#include "obs/trace.h"
#include "tensor/init.h"

namespace hwp3d::nn {
namespace {

kernels::Conv3dGeom MakeGeom(const Conv3dConfig& cfg, const Shape& x,
                             int64_t out_d, int64_t out_h, int64_t out_w) {
  kernels::Conv3dGeom g;
  g.batch = x.dim(0);
  g.in_c = cfg.in_channels;
  g.out_c = cfg.out_channels;
  g.in_d = x.dim(2);
  g.in_h = x.dim(3);
  g.in_w = x.dim(4);
  g.k_d = cfg.kernel[0];
  g.k_h = cfg.kernel[1];
  g.k_w = cfg.kernel[2];
  g.s_d = cfg.stride[0];
  g.s_h = cfg.stride[1];
  g.s_w = cfg.stride[2];
  g.p_d = cfg.padding[0];
  g.p_h = cfg.padding[1];
  g.p_w = cfg.padding[2];
  g.out_d = out_d;
  g.out_h = out_h;
  g.out_w = out_w;
  return g;
}

}  // namespace

Conv3d::Conv3d(Conv3dConfig cfg, Rng& rng, std::string name)
    : cfg_(cfg),
      name_(std::move(name)),
      weight_(name_ + ".weight",
              Shape{cfg.out_channels, cfg.in_channels, cfg.kernel[0],
                    cfg.kernel[1], cfg.kernel[2]}),
      bias_(name_ + ".bias", Shape{cfg.out_channels}) {
  HWP_CHECK_MSG(cfg.in_channels > 0 && cfg.out_channels > 0,
                "Conv3d needs positive channel counts");
  for (int a = 0; a < 3; ++a) {
    HWP_CHECK_MSG(cfg.kernel[static_cast<size_t>(a)] > 0 &&
                      cfg.stride[static_cast<size_t>(a)] > 0 &&
                      cfg.padding[static_cast<size_t>(a)] >= 0,
                  "Conv3d invalid kernel/stride/padding on axis " << a);
  }
  const int64_t fan_in =
      cfg.in_channels * cfg.kernel[0] * cfg.kernel[1] * cfg.kernel[2];
  FillKaiming(weight_.value, rng, fan_in);
  bias_.value.Fill(0.0f);
}

TensorF Conv3d::Forward(const TensorF& x, bool train) {
  HWP_SHAPE_CHECK_MSG(x.rank() == 5, name_ << ": input must be rank-5, got "
                                           << x.shape().ToString());
  HWP_SHAPE_CHECK_MSG(x.dim(1) == cfg_.in_channels,
                      name_ << ": expected " << cfg_.in_channels
                            << " input channels, got " << x.dim(1));
  const int64_t B = x.dim(0), N = cfg_.in_channels, M = cfg_.out_channels;
  const int64_t Di = x.dim(2), Hi = x.dim(3), Wi = x.dim(4);
  const auto [Kd, Kh, Kw] = cfg_.kernel;
  const auto [Sd, Sh, Sw] = cfg_.stride;
  const auto [Pd, Ph, Pw] = cfg_.padding;
  const int64_t Do = OutExtent(Di, Kd, Sd, Pd);
  const int64_t Ho = OutExtent(Hi, Kh, Sh, Ph);
  const int64_t Wo = OutExtent(Wi, Kw, Sw, Pw);
  HWP_SHAPE_CHECK_MSG(Do > 0 && Ho > 0 && Wo > 0,
                      name_ << ": empty output for input "
                            << x.shape().ToString());

  TensorF y = TensorF::Uninitialized(Shape{B, M, Do, Ho, Wo});
  const TensorF& w = weight_.value;
  const TensorF& bias = bias_.value;
  const bool has_bias = cfg_.bias;

  const kernels::Engine engine = kernels::CurrentEngine();
  obs::TraceScope span("nn/conv3d_forward");
  if (span.active()) {
    span.SetName("nn/" + name_ + "/forward");
    span.AddArg("engine", kernels::EngineName(engine));
  }

  // What Backward reads: the gemm engine's zero-halo copies of a padded
  // input (made once, by this forward), else the input itself.
  bool keep_input = train;
  if (engine == kernels::Engine::kGemm) {
    const kernels::Conv3dGeom g = MakeGeom(cfg_, x.shape(), Do, Ho, Wo);
    float* halo = nullptr;
    if (train && g.padded()) {
      const int64_t n = g.batch * g.halo_sample_size();
      if (cached_halo_.numel() != n) cached_halo_ = TensorF(Shape{n});
      halo = cached_halo_.data();
      keep_input = false;
    }
    kernels::Conv3dForwardGemm(g, x.data(), w.data(),
                               has_bias ? bias.data() : nullptr, y.data(),
                               halo);
  } else {
    // Naive reference: direct 7-deep loop, double accumulation.
    ThreadPool::Get().For(0, B * M, [&](int64_t bm) {
      const int64_t b = bm / M;
      const int64_t m = bm % M;
      for (int64_t od = 0; od < Do; ++od) {
        for (int64_t oh = 0; oh < Ho; ++oh) {
          for (int64_t ow = 0; ow < Wo; ++ow) {
            double acc = has_bias ? bias[m] : 0.0;
            for (int64_t n = 0; n < N; ++n) {
              for (int64_t kd = 0; kd < Kd; ++kd) {
                const int64_t id = od * Sd + kd - Pd;
                if (id < 0 || id >= Di) continue;
                for (int64_t kh = 0; kh < Kh; ++kh) {
                  const int64_t ih = oh * Sh + kh - Ph;
                  if (ih < 0 || ih >= Hi) continue;
                  for (int64_t kw = 0; kw < Kw; ++kw) {
                    const int64_t iw = ow * Sw + kw - Pw;
                    if (iw < 0 || iw >= Wi) continue;
                    acc += static_cast<double>(w(m, n, kd, kh, kw)) *
                           x(b, n, id, ih, iw);
                  }
                }
              }
            }
            y(b, m, od, oh, ow) = static_cast<float>(acc);
          }
        }
      }
    });
  }

  if (train) {
    cached_engine_ = engine;
    cached_shape_ = x.shape();
    if (keep_input) cached_input_ = x;
  }
  return y;
}

TensorF Conv3d::Backward(const TensorF& dy) {
  const Shape& in = cached_shape_;
  HWP_CHECK_MSG(in.rank() == 5,
                name_ << ": Backward before Forward(train=true)");
  const int64_t B = in.dim(0), N = cfg_.in_channels, M = cfg_.out_channels;
  const int64_t Di = in.dim(2), Hi = in.dim(3), Wi = in.dim(4);
  const auto [Kd, Kh, Kw] = cfg_.kernel;
  const auto [Sd, Sh, Sw] = cfg_.stride;
  const auto [Pd, Ph, Pw] = cfg_.padding;
  const int64_t Do = dy.dim(2), Ho = dy.dim(3), Wo = dy.dim(4);
  HWP_SHAPE_CHECK_MSG(dy.dim(0) == B && dy.dim(1) == M,
                      name_ << ": bad grad shape " << dy.shape().ToString());

  const TensorF& w = weight_.value;
  TensorF& dw = weight_.grad;
  const kernels::Engine engine = cached_engine_;
  // The gemm engine writes every element of dx; the naive loops add.
  TensorF dx = engine == kernels::Engine::kGemm ? TensorF::Uninitialized(in)
                                                : TensorF(in);
  obs::TraceScope span("nn/conv3d_backward");
  if (span.active()) {
    span.SetName("nn/" + name_ + "/backward");
    span.AddArg("engine", kernels::EngineName(engine));
  }

  if (engine == kernels::Engine::kGemm) {
    const kernels::Conv3dGeom g = MakeGeom(cfg_, in, Do, Ho, Wo);
    kernels::Conv3dBackwardGemm(
        g, g.padded() ? cached_halo_.data() : cached_input_.data(), w.data(),
        dy.data(), dw.data(), dx.data());
  } else {
    const TensorF& x = cached_input_;
    // dW: parallel over output channel m — each m owns a disjoint slice of dW.
    ThreadPool::Get().For(0, M, [&](int64_t m) {
      for (int64_t n = 0; n < N; ++n) {
        for (int64_t kd = 0; kd < Kd; ++kd) {
          for (int64_t kh = 0; kh < Kh; ++kh) {
            for (int64_t kw = 0; kw < Kw; ++kw) {
              double acc = 0.0;
              for (int64_t b = 0; b < B; ++b) {
                for (int64_t od = 0; od < Do; ++od) {
                  const int64_t id = od * Sd + kd - Pd;
                  if (id < 0 || id >= Di) continue;
                  for (int64_t oh = 0; oh < Ho; ++oh) {
                    const int64_t ih = oh * Sh + kh - Ph;
                    if (ih < 0 || ih >= Hi) continue;
                    for (int64_t ow = 0; ow < Wo; ++ow) {
                      const int64_t iw = ow * Sw + kw - Pw;
                      if (iw < 0 || iw >= Wi) continue;
                      acc += static_cast<double>(dy(b, m, od, oh, ow)) *
                             x(b, n, id, ih, iw);
                    }
                  }
                }
              }
              dw(m, n, kd, kh, kw) += static_cast<float>(acc);
            }
          }
        }
      }
    });

    // dX: parallel over batch — each b owns a disjoint slice of dx.
    ThreadPool::Get().For(0, B, [&](int64_t b) {
      for (int64_t m = 0; m < M; ++m) {
        for (int64_t od = 0; od < Do; ++od) {
          for (int64_t oh = 0; oh < Ho; ++oh) {
            for (int64_t ow = 0; ow < Wo; ++ow) {
              const float g = dy(b, m, od, oh, ow);
              if (g == 0.0f) continue;
              for (int64_t n = 0; n < N; ++n) {
                for (int64_t kd = 0; kd < Kd; ++kd) {
                  const int64_t id = od * Sd + kd - Pd;
                  if (id < 0 || id >= Di) continue;
                  for (int64_t kh = 0; kh < Kh; ++kh) {
                    const int64_t ih = oh * Sh + kh - Ph;
                    if (ih < 0 || ih >= Hi) continue;
                    for (int64_t kw = 0; kw < Kw; ++kw) {
                      const int64_t iw = ow * Sw + kw - Pw;
                      if (iw < 0 || iw >= Wi) continue;
                      dx(b, n, id, ih, iw) += g * w(m, n, kd, kh, kw);
                    }
                  }
                }
              }
            }
          }
        }
      }
    });
  }

  if (cfg_.bias) {
    // Bias gradient: parallel over m — each m reduces its own dy rows.
    TensorF& db = bias_.grad;
    const float* dyp = dy.data();
    const int64_t plane = Do * Ho * Wo;
    ThreadPool::Get().For(0, M, [&](int64_t m) {
      double acc = 0.0;
      for (int64_t b = 0; b < B; ++b) {
        const float* row = dyp + (b * M + m) * plane;
        for (int64_t p = 0; p < plane; ++p) acc += row[p];
      }
      db[m] += static_cast<float>(acc);
    });
  }

  return dx;
}

void Conv3d::CollectParams(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (cfg_.bias) out.push_back(&bias_);
}

}  // namespace hwp3d::nn
