// Trainable scaled-down R(2+1)D for the accuracy experiments.
//
// The full Table I network (33M parameters, Kinetics pretraining) is not
// trainable in this repo's offline environment, so the accuracy claims of
// Section V are reproduced on this faithful miniature: same topology
// family (factorized (2+1)D convs, BN, residual stages with projection
// shortcuts, global average pooling + FC head), trained on the synthetic
// motion dataset. The prunable layers are exposed so the ADMM pruner can
// target the middle residual stages, mirroring the paper's choice of
// pruning conv2_x and conv3_x.
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/pool3d.h"
#include "nn/r2plus1d_block.h"

namespace hwp3d::models {

struct TinyR2Plus1dConfig {
  int64_t in_channels = 1;
  int64_t num_classes = 10;
  int64_t stem_channels = 8;
  int64_t stage1_channels = 16;
  int64_t stage2_channels = 32;
};

// stem (2+1)D conv -> BN -> ReLU -> stage1 -> stage2 -> global average
// pool -> FC, as one chain.
class TinyR2Plus1d : public nn::Sequential {
 public:
  TinyR2Plus1d(TinyR2Plus1dConfig cfg, Rng& rng);

  // Convolutions targeted by pruning (the two residual stages), i.e. the
  // analogue of the paper pruning conv2_x/conv3_x but not the stem.
  std::vector<nn::Conv3d*> PrunableConvs();

  // Structural access for mapping the trained model onto the FPGA
  // accelerator simulator (BN folding, residual wiring).
  nn::Conv2Plus1d& stem() { return *stem_; }
  nn::BatchNorm3d& stem_bn() { return *stem_bn_; }
  nn::ResidualBlock& stage1() { return *stage1_; }
  nn::ResidualBlock& stage2() { return *stage2_; }
  nn::Linear& fc() { return *fc_; }

  const TinyR2Plus1dConfig& config() const { return cfg_; }

 private:
  TinyR2Plus1dConfig cfg_;
  nn::Conv2Plus1d* stem_ = nullptr;
  nn::BatchNorm3d* stem_bn_ = nullptr;
  nn::ResidualBlock* stage1_ = nullptr;
  nn::ResidualBlock* stage2_ = nullptr;
  nn::Linear* fc_ = nullptr;
};

}  // namespace hwp3d::models
