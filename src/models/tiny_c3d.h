// Trainable scaled-down C3D (standard 3D CNN baseline).
//
// The paper's motivation for choosing R(2+1)D is that it reaches higher
// accuracy with far fewer parameters than C3D. This miniature mirrors
// TinyR2Plus1d's capacity budget with full 3x3x3 convolutions and no
// factorization, so the motivation experiment (R(2+1)D vs C3D at equal
// parameter budget on motion classification) is reproducible.
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/batchnorm3d.h"
#include "nn/conv3d.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/pool3d.h"

namespace hwp3d::models {

struct TinyC3dConfig {
  int64_t in_channels = 1;
  int64_t num_classes = 10;
  int64_t conv1_channels = 8;
  int64_t conv2_channels = 16;
  int64_t conv3_channels = 32;
  bool batch_norm = true;  // classic C3D has none; on by default for parity
};

// Three stages of 3x3x3 conv -> [BN] -> ReLU -> [max pool], then global
// average pool -> FC, as one chain.
class TinyC3d : public nn::Sequential {
 public:
  TinyC3d(TinyC3dConfig cfg, Rng& rng);

  // Convolutions targeted by pruning: all of them (the paper notes its
  // scheme also supports C3D).
  std::vector<nn::Conv3d*> PrunableConvs() { return convs_; }

  int64_t TotalParams();

  const TinyC3dConfig& config() const { return cfg_; }

 private:
  TinyC3dConfig cfg_;
  std::vector<nn::Conv3d*> convs_;
};

}  // namespace hwp3d::models
