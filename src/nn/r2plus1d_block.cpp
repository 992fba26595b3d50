#include "nn/r2plus1d_block.h"

#include "obs/trace.h"
#include "tensor/tensor_ops.h"

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
    : name_(std::move(name)) {
  HWP_CHECK_MSG(cfg.in_channels > 0 && cfg.out_channels > 0,
                name_ << ": channels must be positive");
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
  spatial_ = std::make_unique<Conv3d>(sp, rng, name_ + ".spatial");

  bn_mid_ = std::make_unique<BatchNorm3d>(mid_channels_, name_ + ".bn_mid");
  relu_mid_ = std::make_unique<ReLU>(name_ + ".relu_mid");

  Conv3dConfig tp;
  tp.in_channels = mid_channels_;
  tp.out_channels = cfg.out_channels;
  tp.kernel = {cfg.temporal_kernel, 1, 1};
  tp.stride = {cfg.temporal_stride, 1, 1};
  tp.padding = {cfg.temporal_kernel / 2, 0, 0};
  tp.bias = false;
  temporal_ = std::make_unique<Conv3d>(tp, rng, name_ + ".temporal");
}

TensorF Conv2Plus1d::Forward(const TensorF& x, bool train) {
  HWP_TRACE_SCOPE("nn/conv2plus1d_forward");
  TensorF h = spatial_->Forward(x, train);
  h = bn_mid_->Forward(h, train);
  h = relu_mid_->Forward(h, train);
  return temporal_->Forward(h, train);
}

TensorF Conv2Plus1d::Backward(const TensorF& dy) {
  HWP_TRACE_SCOPE("nn/conv2plus1d_backward");
  TensorF g = temporal_->Backward(dy);
  g = relu_mid_->Backward(g);
  g = bn_mid_->Backward(g);
  return spatial_->Backward(g);
}

void Conv2Plus1d::CollectParams(std::vector<Param*>& out) {
  spatial_->CollectParams(out);
  bn_mid_->CollectParams(out);
  temporal_->CollectParams(out);
}

void Conv2Plus1d::CollectBuffers(std::vector<NamedBuffer>& out) {
  spatial_->CollectBuffers(out);
  bn_mid_->CollectBuffers(out);
  temporal_->CollectBuffers(out);
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
  conv1_ = std::make_unique<Conv2Plus1d>(c1, rng, name_ + ".conv1");
  bn1_ = std::make_unique<BatchNorm3d>(cfg.out_channels, name_ + ".bn1");
  relu1_ = std::make_unique<ReLU>(name_ + ".relu1");

  Conv2Plus1dConfig c2 = c1;
  c2.in_channels = cfg.out_channels;
  c2.spatial_stride = 1;
  c2.temporal_stride = 1;
  conv2_ = std::make_unique<Conv2Plus1d>(c2, rng, name_ + ".conv2");
  bn2_ = std::make_unique<BatchNorm3d>(cfg.out_channels, name_ + ".bn2");

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
    shortcut_conv_ = std::make_unique<Conv3d>(sc, rng, name_ + ".shortcut");
    shortcut_bn_ =
        std::make_unique<BatchNorm3d>(cfg.out_channels, name_ + ".shortcut_bn");
  }
}

TensorF ResidualBlock::Forward(const TensorF& x, bool train) {
  HWP_TRACE_SCOPE("nn/residual_block_forward");
  TensorF h = conv1_->Forward(x, train);
  h = bn1_->Forward(h, train);
  h = relu1_->Forward(h, train);
  h = conv2_->Forward(h, train);
  h = bn2_->Forward(h, train);

  TensorF sc = x;
  if (shortcut_conv_ != nullptr) {
    sc = shortcut_conv_->Forward(x, train);
    sc = shortcut_bn_->Forward(sc, train);
  }
  HWP_SHAPE_CHECK_MSG(h.shape() == sc.shape(),
                      name_ << ": residual shape mismatch "
                            << h.shape().ToString() << " vs "
                            << sc.shape().ToString());
  TensorF sum = Add(h, sc);
  // Final ReLU.
  TensorF y(sum.shape());
  for (int64_t i = 0; i < sum.numel(); ++i)
    y[i] = sum[i] > 0.0f ? sum[i] : 0.0f;
  if (train) {
    cached_shape_ = sum.shape();
    cached_positive_.resize(static_cast<size_t>(sum.numel()));
    for (int64_t i = 0; i < sum.numel(); ++i) {
      cached_positive_[static_cast<size_t>(i)] = sum[i] > 0.0f;
    }
  }
  return y;
}

TensorF ResidualBlock::Backward(const TensorF& dy) {
  HWP_TRACE_SCOPE("nn/residual_block_backward");
  HWP_CHECK_MSG(cached_shape_.rank() > 0,
                name_ << ": Backward before Forward(train=true)");
  HWP_SHAPE_CHECK_MSG(dy.shape() == cached_shape_,
                      name_ << ": grad shape mismatch");
  // Through the final ReLU.
  TensorF g(dy.shape());
  for (int64_t i = 0; i < dy.numel(); ++i) {
    const float gy = dy[i];  // unconditional load: a select, not a branch
    g[i] = cached_positive_[static_cast<size_t>(i)] != 0 ? gy : 0.0f;
  }

  // Main path.
  TensorF gm = bn2_->Backward(g);
  gm = conv2_->Backward(gm);
  gm = relu1_->Backward(gm);
  gm = bn1_->Backward(gm);
  gm = conv1_->Backward(gm);

  // Shortcut path.
  TensorF gs = g;
  if (shortcut_conv_ != nullptr) {
    gs = shortcut_bn_->Backward(gs);
    gs = shortcut_conv_->Backward(gs);
  }
  return Add(gm, gs);
}

void ResidualBlock::CollectParams(std::vector<Param*>& out) {
  conv1_->CollectParams(out);
  bn1_->CollectParams(out);
  conv2_->CollectParams(out);
  bn2_->CollectParams(out);
  if (shortcut_conv_ != nullptr) {
    shortcut_conv_->CollectParams(out);
    shortcut_bn_->CollectParams(out);
  }
}

void ResidualBlock::CollectBuffers(std::vector<NamedBuffer>& out) {
  conv1_->CollectBuffers(out);
  bn1_->CollectBuffers(out);
  conv2_->CollectBuffers(out);
  bn2_->CollectBuffers(out);
  if (shortcut_conv_ != nullptr) {
    shortcut_conv_->CollectBuffers(out);
    shortcut_bn_->CollectBuffers(out);
  }
}

}  // namespace hwp3d::nn
