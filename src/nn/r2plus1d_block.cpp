#include "nn/r2plus1d_block.h"

#include <utility>

#include "obs/trace.h"

namespace hwp3d::nn {

int64_t R2Plus1dMidChannels(int64_t in_channels, int64_t out_channels,
                            int64_t temporal_k, int64_t spatial_k) {
  const int64_t d2 = spatial_k * spatial_k;
  const int64_t numer = temporal_k * d2 * in_channels * out_channels;
  const int64_t denom = d2 * in_channels + temporal_k * out_channels;
  HWP_CHECK_MSG(denom > 0, "invalid (2+1)D factorization parameters");
  const int64_t mid = numer / denom;
  return mid > 0 ? mid : 1;
}

Conv2Plus1d::Conv2Plus1d(Conv2Plus1dConfig cfg, Rng& rng, std::string name)
    : Sequential(std::move(name)) {
  HWP_CHECK_MSG(cfg.in_channels > 0 && cfg.out_channels > 0,
                this->name() << ": channels must be positive");
  mid_channels_ =
      cfg.mid_channels > 0
          ? cfg.mid_channels
          : R2Plus1dMidChannels(cfg.in_channels, cfg.out_channels,
                                cfg.temporal_kernel, cfg.spatial_kernel);

  Conv3dConfig sp;
  sp.in_channels = cfg.in_channels;
  sp.out_channels = mid_channels_;
  sp.kernel = {1, cfg.spatial_kernel, cfg.spatial_kernel};
  sp.stride = {1, cfg.spatial_stride, cfg.spatial_stride};
  sp.padding = {0, cfg.spatial_kernel / 2, cfg.spatial_kernel / 2};
  sp.bias = false;  // followed by BN
  spatial_ = Emplace<Conv3d>(sp, rng, this->name() + ".spatial");

  bn_mid_ = Emplace<BatchNorm3d>(mid_channels_, this->name() + ".bn_mid");
  Emplace<ReLU>(this->name() + ".relu_mid");

  Conv3dConfig tp;
  tp.in_channels = mid_channels_;
  tp.out_channels = cfg.out_channels;
  tp.kernel = {cfg.temporal_kernel, 1, 1};
  tp.stride = {cfg.temporal_stride, 1, 1};
  tp.padding = {cfg.temporal_kernel / 2, 0, 0};
  tp.bias = false;
  temporal_ = Emplace<Conv3d>(tp, rng, this->name() + ".temporal");
}

ResidualBlock::ResidualBlock(ResidualBlockConfig cfg, Rng& rng,
                             std::string name)
    : cfg_(cfg), name_(std::move(name)) {
  Conv2Plus1dConfig c1;
  c1.in_channels = cfg.in_channels;
  c1.out_channels = cfg.out_channels;
  c1.spatial_kernel = cfg.spatial_kernel;
  c1.temporal_kernel = cfg.temporal_kernel;
  c1.spatial_stride = cfg.spatial_stride;
  c1.temporal_stride = cfg.temporal_stride;
  conv1_ = main_.Emplace<Conv2Plus1d>(c1, rng, name_ + ".conv1");
  bn1_ = main_.Emplace<BatchNorm3d>(cfg.out_channels, name_ + ".bn1");
  main_.Emplace<ReLU>(name_ + ".relu1");

  Conv2Plus1dConfig c2 = c1;
  c2.in_channels = cfg.out_channels;
  c2.spatial_stride = 1;
  c2.temporal_stride = 1;
  conv2_ = main_.Emplace<Conv2Plus1d>(c2, rng, name_ + ".conv2");
  bn2_ = main_.Emplace<BatchNorm3d>(cfg.out_channels, name_ + ".bn2");

  const bool needs_projection = cfg.in_channels != cfg.out_channels ||
                                cfg.spatial_stride != 1 ||
                                cfg.temporal_stride != 1;
  if (needs_projection) {
    Conv3dConfig sc;
    sc.in_channels = cfg.in_channels;
    sc.out_channels = cfg.out_channels;
    sc.kernel = {1, 1, 1};
    sc.stride = {cfg.temporal_stride, cfg.spatial_stride, cfg.spatial_stride};
    sc.padding = {0, 0, 0};
    sc.bias = false;
    shortcut_conv_ = shortcut_.Emplace<Conv3d>(sc, rng, name_ + ".shortcut");
    shortcut_bn_ = shortcut_.Emplace<BatchNorm3d>(cfg.out_channels,
                                                  name_ + ".shortcut_bn");
  }
}

TensorF ResidualBlock::Forward(const TensorF& x, bool train) {
  HWP_TRACE_SCOPE("nn/residual_block_forward");
  TensorF h = main_.Forward(x, train);
  if (!has_projection()) return Join(std::move(h), x, train);
  const TensorF projected = shortcut_.Forward(x, train);
  return Join(std::move(h), projected, train);
}

TensorF ResidualBlock::Forward(TensorF&& x, bool train) {
  HWP_TRACE_SCOPE("nn/residual_block_forward");
  TensorF h = main_.Forward(std::as_const(x), train);
  if (!has_projection()) return Join(std::move(h), x, train);
  // The shortcut is the last reader of x.
  const TensorF projected = shortcut_.Forward(std::move(x), train);
  return Join(std::move(h), projected, train);
}

TensorF ResidualBlock::Join(TensorF h, const TensorF& shortcut, bool train) {
  HWP_SHAPE_CHECK_MSG(h.shape() == shortcut.shape(),
                      name_ << ": residual shape mismatch "
                            << h.shape().ToString() << " vs "
                            << shortcut.shape().ToString());
  float* p = h.data();
  const float* s = shortcut.data();
  const int64_t n = h.numel();
  for (int64_t i = 0; i < n; ++i) p[i] += s[i];
  if (train) {
    cached_positive_ = Tensor<uint8_t>::Uninitialized(h.shape());
    uint8_t* positive = cached_positive_.data();
    for (int64_t i = 0; i < n; ++i) positive[i] = p[i] > 0.0f;
  }
  for (int64_t i = 0; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
  return h;
}

TensorF ResidualBlock::Backward(const TensorF& dy) {
  return Backward(TensorF(dy));
}

TensorF ResidualBlock::Backward(TensorF&& dy) {
  HWP_TRACE_SCOPE("nn/residual_block_backward");
  // Consumes the forward's mask: freed when this returns.
  const Tensor<uint8_t> positive = std::exchange(cached_positive_, {});
  HWP_CHECK_MSG(!positive.empty(),
                name_ << ": Backward without a Forward(train=true) since "
                         "the last Backward");
  HWP_SHAPE_CHECK_MSG(dy.shape() == positive.shape(),
                      name_ << ": grad shape mismatch");
  // Through the final ReLU, in place (a select, not a branch).
  TensorF g = std::move(dy);
  float* gp = g.data();
  const uint8_t* pos = positive.data();
  for (int64_t i = 0; i < g.numel(); ++i) gp[i] = pos[i] != 0 ? gp[i] : 0.0f;

  // Main path first; g is still the shortcut's.
  TensorF dx = main_.Backward(std::as_const(g));
  // Shortcut path, added into the main path's dx.
  const TensorF gs =
      has_projection() ? shortcut_.Backward(std::move(g)) : std::move(g);
  HWP_SHAPE_CHECK_MSG(dx.shape() == gs.shape(),
                      name_ << ": residual grad shape mismatch");
  float* p = dx.data();
  const float* s = gs.data();
  for (int64_t i = 0; i < dx.numel(); ++i) p[i] += s[i];
  return dx;
}

}  // namespace hwp3d::nn
