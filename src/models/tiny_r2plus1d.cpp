#include "models/tiny_r2plus1d.h"

#include <utility>

namespace hwp3d::models {

TinyR2Plus1d::TinyR2Plus1d(TinyR2Plus1dConfig cfg, Rng& rng) : cfg_(cfg) {
  nn::Conv2Plus1dConfig stem;
  stem.in_channels = cfg.in_channels;
  stem.out_channels = cfg.stem_channels;
  stem.spatial_kernel = 3;
  stem.temporal_kernel = 3;
  // Fix the stem's mid width explicitly; the parameter-matching formula
  // degenerates for single-channel input.
  stem.mid_channels = cfg.stem_channels;
  stem_ = std::make_unique<nn::Conv2Plus1d>(stem, rng, "stem");
  stem_bn_ = std::make_unique<nn::BatchNorm3d>(cfg.stem_channels, "stem_bn");
  stem_relu_ = std::make_unique<nn::ReLU>("stem_relu");

  nn::ResidualBlockConfig s1;
  s1.in_channels = cfg.stem_channels;
  s1.out_channels = cfg.stage1_channels;
  s1.spatial_stride = 1;
  s1.temporal_stride = 1;
  stage1_ = std::make_unique<nn::ResidualBlock>(s1, rng, "stage1");

  nn::ResidualBlockConfig s2;
  s2.in_channels = cfg.stage1_channels;
  s2.out_channels = cfg.stage2_channels;
  s2.spatial_stride = 2;
  s2.temporal_stride = 2;
  stage2_ = std::make_unique<nn::ResidualBlock>(s2, rng, "stage2");

  gap_ = std::make_unique<nn::GlobalAvgPool3d>("gap");
  fc_ = std::make_unique<nn::Linear>(cfg.stage2_channels, cfg.num_classes,
                                     rng, "fc");
}

TensorF TinyR2Plus1d::Forward(const TensorF& x, bool train) {
  // The clip is read, never kept (the stem's spatial conv is padded);
  // every activation after it is handed on by move.
  TensorF h = stem_->Forward(x, train);
  h = stem_bn_->Forward(std::move(h), train);
  h = stem_relu_->Forward(std::move(h), train);
  h = stage1_->Forward(std::move(h), train);
  h = stage2_->Forward(std::move(h), train);
  h = gap_->Forward(std::move(h), train);
  return fc_->Forward(std::move(h), train);
}

TensorF TinyR2Plus1d::Backward(const TensorF& dy) {
  TensorF g = fc_->Backward(dy);
  g = gap_->Backward(std::move(g));
  g = stage2_->Backward(std::move(g));
  g = stage1_->Backward(std::move(g));
  g = stem_relu_->Backward(std::move(g));
  g = stem_bn_->Backward(std::move(g));
  return stem_->Backward(std::move(g));
}

void TinyR2Plus1d::CollectParams(std::vector<nn::Param*>& out) {
  stem_->CollectParams(out);
  stem_bn_->CollectParams(out);
  stage1_->CollectParams(out);
  stage2_->CollectParams(out);
  fc_->CollectParams(out);
}

void TinyR2Plus1d::CollectBuffers(std::vector<nn::NamedBuffer>& out) {
  stem_->CollectBuffers(out);
  stem_bn_->CollectBuffers(out);
  stage1_->CollectBuffers(out);
  stage2_->CollectBuffers(out);
  fc_->CollectBuffers(out);
}

std::vector<nn::Conv3d*> TinyR2Plus1d::PrunableConvs() {
  return {
      &stage1_->conv1().spatial(), &stage1_->conv1().temporal(),
      &stage1_->conv2().spatial(), &stage1_->conv2().temporal(),
      &stage2_->conv1().spatial(), &stage2_->conv1().temporal(),
      &stage2_->conv2().spatial(), &stage2_->conv2().temporal(),
  };
}

}  // namespace hwp3d::models
