#include "models/tiny_r2plus1d.h"

namespace hwp3d::models {

TinyR2Plus1d::TinyR2Plus1d(TinyR2Plus1dConfig cfg, Rng& rng)
    : nn::Sequential("tiny_r2plus1d"), cfg_(cfg) {
  nn::Conv2Plus1dConfig stem;
  stem.in_channels = cfg.in_channels;
  stem.out_channels = cfg.stem_channels;
  stem.spatial_kernel = 3;
  stem.temporal_kernel = 3;
  // Fix the stem's mid width explicitly; the parameter-matching formula
  // degenerates for single-channel input.
  stem.mid_channels = cfg.stem_channels;
  stem_ = Emplace<nn::Conv2Plus1d>(stem, rng, "stem");
  Emplace<nn::BatchNorm3d>(cfg.stem_channels, "stem_bn");
  Emplace<nn::ReLU>("stem_relu");

  nn::ResidualBlockConfig s1;
  s1.in_channels = cfg.stem_channels;
  s1.out_channels = cfg.stage1_channels;
  s1.spatial_stride = 1;
  s1.temporal_stride = 1;
  stage1_ = Emplace<nn::ResidualBlock>(s1, rng, "stage1");

  nn::ResidualBlockConfig s2;
  s2.in_channels = cfg.stage1_channels;
  s2.out_channels = cfg.stage2_channels;
  s2.spatial_stride = 2;
  s2.temporal_stride = 2;
  stage2_ = Emplace<nn::ResidualBlock>(s2, rng, "stage2");

  Emplace<nn::GlobalAvgPool3d>("gap");
  Emplace<nn::Linear>(cfg.stage2_channels, cfg.num_classes, rng, "fc");
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
