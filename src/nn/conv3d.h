// Conv3d: 3D convolution with per-dimension kernel/stride/padding.
//
// Weight layout is the paper's 5-D tensor W[M][N][Kd][Kr][Kc] (output
// channels, input channels, temporal depth, height, width). This layout is
// shared verbatim with the pruning core (blockwise partition over M x N)
// and the FPGA tile simulator, so a pruned nn::Conv3d weight can be handed
// to the accelerator without any transposition.
#pragma once

#include <array>

#include "common/rng.h"
#include "kernels/engine.h"
#include "nn/module.h"

namespace hwp3d::nn {

struct Conv3dConfig {
  int64_t in_channels = 0;   // N
  int64_t out_channels = 0;  // M
  std::array<int64_t, 3> kernel = {1, 1, 1};   // Kd, Kr, Kc
  std::array<int64_t, 3> stride = {1, 1, 1};   // Sd, Sr, Sc
  std::array<int64_t, 3> padding = {0, 0, 0};  // Pd, Pr, Pc
  bool bias = true;
};

class Conv3d : public Module {
 public:
  Conv3d(Conv3dConfig cfg, Rng& rng, std::string name = "conv3d");

  TensorF Forward(const TensorF& x, bool train) override;
  // Keeps x by move where Backward reads the input itself (no padding,
  // or the naive engine).
  TensorF Forward(TensorF&& x, bool train) override;
  TensorF Backward(const TensorF& dy) override;
  void CollectParams(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }

  const Conv3dConfig& config() const { return cfg_; }
  Param& weight() { return weight_; }
  Param* bias() { return cfg_.bias ? &bias_ : nullptr; }

  // Output spatial extents for a given input extent along one axis.
  static int64_t OutExtent(int64_t in, int64_t k, int64_t s, int64_t p) {
    return (in + 2 * p - k) / s + 1;
  }

 private:
  // The output; with `train`, also every cache but the input itself,
  // which the Forward overloads keep (copied or moved) when
  // BackwardReadsInput.
  TensorF Run(const TensorF& x, bool train);
  // Whether the last Forward(train=true)'s Backward reads its input,
  // rather than the zero-halo copies.
  bool BackwardReadsInput() const {
    return cached_engine_ != kernels::Engine::kGemm ||
           cfg_.padding == std::array<int64_t, 3>{0, 0, 0};
  }

  Conv3dConfig cfg_;
  std::string name_;
  Param weight_;  // [M][N][Kd][Kr][Kc]
  Param bias_;    // [M]
  // Kept by Forward(train=true), freed by Backward: the engine and input
  // shape, and the input itself, or (gemm engine, padded conv) the
  // engine's zero-halo copies of it, made by the forward, instead.
  kernels::Engine cached_engine_ = kernels::Engine::kGemm;
  Shape cached_shape_;
  TensorF cached_input_;
  TensorF cached_halo_;
};

}  // namespace hwp3d::nn
