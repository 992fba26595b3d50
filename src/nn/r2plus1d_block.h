// R(2+1)D building blocks.
//
// A (2+1)D convolution factorizes a t x d x d 3D convolution into a
// 1 x d x d spatial convolution into `mid` channels followed by a
// t x 1 x 1 temporal convolution, with BN + ReLU in between (Tran et al.,
// CVPR'18, as adopted by the paper's Table I). The mid-channel count
// follows the parameter-matching formula
//     mid = floor(t d^2 N M / (d^2 N + t M)).
#pragma once

#include "nn/activations.h"
#include "nn/batchnorm3d.h"
#include "nn/conv3d.h"
#include "nn/module.h"

namespace hwp3d::nn {

// Parameter-matching mid-channel count for a (2+1)D factorization of a
// t x d x d kernel from N input to M output channels.
int64_t R2Plus1dMidChannels(int64_t in_channels, int64_t out_channels,
                            int64_t temporal_k, int64_t spatial_k);

struct Conv2Plus1dConfig {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t spatial_kernel = 3;    // d
  int64_t temporal_kernel = 3;   // t
  // Strides applied to the factorized pair: the spatial conv carries the
  // spatial stride, the temporal conv the temporal stride.
  int64_t spatial_stride = 1;
  int64_t temporal_stride = 1;
  // 0 = use the parameter-matching formula.
  int64_t mid_channels = 0;
};

// spatial conv -> BN -> ReLU -> temporal conv, as one chain.
class Conv2Plus1d : public Sequential {
 public:
  Conv2Plus1d(Conv2Plus1dConfig cfg, Rng& rng, std::string name = "conv2p1");

  Conv3d& spatial() { return *spatial_; }
  Conv3d& temporal() { return *temporal_; }
  int64_t mid_channels() const { return mid_channels_; }

 private:
  int64_t mid_channels_ = 0;
  Conv3d* spatial_ = nullptr;
  Conv3d* temporal_ = nullptr;
};

struct ResidualBlockConfig {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  // Stride of the first (2+1)D conv; used by the first block of conv3_x..
  // conv5_x to halve D/R/C.
  int64_t spatial_stride = 1;
  int64_t temporal_stride = 1;
  int64_t spatial_kernel = 3;
  int64_t temporal_kernel = 3;
};

// Standard two-conv residual block with (2+1)D convolutions:
//   y = ReLU( BN(conv2(ReLU(BN(conv1(x))))) + shortcut(x) )
// The shortcut is identity when shapes match, otherwise a strided 1x1x1
// convolution + BN (the "shortcut with 2 layers" the paper counts). Both
// paths are nn::Sequential chains; the block adds the add and the ReLU.
class ResidualBlock : public Module {
 public:
  ResidualBlock(ResidualBlockConfig cfg, Rng& rng,
                std::string name = "resblock");

  // Reads x: the identity shortcut adds it without a copy.
  TensorF Forward(const TensorF& x, bool train) override;
  // Hands x on by move to the projection shortcut, whose 1x1x1 conv
  // keeps it for Backward.
  TensorF Forward(TensorF&& x, bool train) override;
  // The rvalue overload gates dy through the final ReLU in place.
  TensorF Backward(const TensorF& dy) override;
  TensorF Backward(TensorF&& dy) override;
  void CollectParams(std::vector<Param*>& out) override {
    main_.CollectParams(out);
    shortcut_.CollectParams(out);
  }
  void CollectBuffers(std::vector<NamedBuffer>& out) override {
    main_.CollectBuffers(out);
    shortcut_.CollectBuffers(out);
  }
  std::string name() const override { return name_; }

  bool has_projection() const { return shortcut_conv_ != nullptr; }
  // The two chains the block joins: y = ReLU(main(x) + shortcut(x)).
  Sequential& main() { return main_; }
  Sequential& shortcut() { return shortcut_; }
  Conv2Plus1d& conv1() { return *conv1_; }
  Conv2Plus1d& conv2() { return *conv2_; }
  Conv3d* shortcut_conv() { return shortcut_conv_; }
  const ResidualBlockConfig& config() const { return cfg_; }

 private:
  // ReLU(h + shortcut), in place in h; with `train`, keeps its mask.
  TensorF Join(TensorF h, const TensorF& shortcut, bool train);

  ResidualBlockConfig cfg_;
  std::string name_;
  Sequential main_;      // conv1, bn1, relu1, conv2, bn2
  Sequential shortcut_;  // empty => identity, else projection conv, bn
  Conv2Plus1d* conv1_ = nullptr;
  Conv2Plus1d* conv2_ = nullptr;
  Conv3d* shortcut_conv_ = nullptr;

  // Kept by Forward(train=true) for the backward of the final add +
  // ReLU, freed by Backward: sum > 0, one byte per element.
  Tensor<uint8_t> cached_positive_;
};

}  // namespace hwp3d::nn
