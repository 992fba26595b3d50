// Element-wise activation layers.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.h"

namespace hwp3d::nn {

// Rectified linear unit. Works on tensors of any rank.
class ReLU : public Module {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}

  TensorF Forward(const TensorF& x, bool train) override;
  TensorF Backward(const TensorF& dy) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  // Forward(train=true)'s x > 0, one byte per element: all Backward
  // needs, at a quarter of a copy of x.
  Shape cached_shape_;
  std::vector<uint8_t> cached_positive_;
};

}  // namespace hwp3d::nn
