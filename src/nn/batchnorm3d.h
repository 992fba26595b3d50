// BatchNorm3d: per-channel normalization over (B, D, H, W).
//
// R(2+1)D interleaves batch normalization between the spatial and temporal
// convolutions of every factorized block; on the accelerator BN folds into
// the post-processing unit (scale + shift per channel).
#pragma once

#include "nn/module.h"

namespace hwp3d::nn {

class BatchNorm3d : public Module {
 public:
  BatchNorm3d(int64_t channels, std::string name = "bn",
              float eps = 1e-5f, float momentum = 0.1f);

  TensorF Forward(const TensorF& x, bool train) override;
  // Keeps the x it normalizes (by move) for Backward.
  TensorF Forward(TensorF&& x, bool train) override;
  // Writes dx over a copy of dy; the rvalue overload over dy itself.
  TensorF Backward(const TensorF& dy) override;
  TensorF Backward(TensorF&& dy) override;
  void CollectParams(std::vector<Param*>& out) override;
  void CollectBuffers(std::vector<NamedBuffer>& out) override;
  std::string name() const override { return name_; }

  int64_t channels() const { return channels_; }
  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  const TensorF& running_mean() const { return running_mean_; }
  const TensorF& running_var() const { return running_var_; }

  // Folded inference-time affine transform y = scale*x + shift, as
  // materialized into the FPGA post-processing unit.
  void FoldedAffine(TensorF& scale, TensorF& shift) const;

 private:
  // The output; with `train`, also updates the running statistics and
  // keeps the batch's, which the Forward overloads join with x.
  TensorF Normalize(const TensorF& x, bool train);

  int64_t channels_;
  std::string name_;
  float eps_;
  float momentum_;
  Param gamma_;  // [C]
  Param beta_;   // [C]
  TensorF running_mean_;
  TensorF running_var_;

  // Kept by Forward(train=true), freed by Backward: its input, and the
  // batch mean and 1/std it normalized with.
  TensorF cached_input_;
  TensorF batch_mean_;
  TensorF batch_inv_std_;
};

}  // namespace hwp3d::nn
