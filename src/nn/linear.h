// Linear (fully-connected) layer: y = x W^T + b, x is [B][in].
#pragma once

#include "common/rng.h"
#include "nn/module.h"

namespace hwp3d::nn {

class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         std::string name = "fc");

  TensorF Forward(const TensorF& x, bool train) override;
  // Keeps x by move for Backward.
  TensorF Forward(TensorF&& x, bool train) override;
  TensorF Backward(const TensorF& dy) override;
  void CollectParams(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }

  Param& weight() { return weight_; }  // [out][in]
  Param& bias() { return bias_; }      // [out]

 private:
  TensorF Affine(const TensorF& x) const;  // x W^T + b

  int64_t in_features_;
  int64_t out_features_;
  std::string name_;
  Param weight_;
  Param bias_;
  TensorF cached_input_;  // kept by Forward(train=true), freed by Backward
};

}  // namespace hwp3d::nn
