// Element-wise activation layers.
#pragma once

#include <cstdint>

#include "nn/module.h"

namespace hwp3d::nn {

// Rectified linear unit. Works on tensors of any rank.
class ReLU : public Module {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}

  // Run on a copy of x (dy); the rvalue overloads rewrite it in place.
  TensorF Forward(const TensorF& x, bool train) override;
  TensorF Forward(TensorF&& x, bool train) override;
  TensorF Backward(const TensorF& dy) override;
  TensorF Backward(TensorF&& dy) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  // Forward(train=true)'s x > 0, one byte per element, freed by
  // Backward: all it needs, at a quarter of a copy of x.
  Tensor<uint8_t> cached_positive_;
};

}  // namespace hwp3d::nn
