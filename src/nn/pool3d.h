// 3D pooling layers: max, average, and global spatio-temporal average.
#pragma once

#include <array>

#include "nn/module.h"

namespace hwp3d::nn {

struct Pool3dConfig {
  std::array<int64_t, 3> kernel = {2, 2, 2};
  std::array<int64_t, 3> stride = {2, 2, 2};
};

class MaxPool3d : public Module {
 public:
  explicit MaxPool3d(Pool3dConfig cfg, std::string name = "maxpool");

  TensorF Forward(const TensorF& x, bool train) override;
  TensorF Backward(const TensorF& dy) override;
  std::string name() const override { return name_; }

  const Pool3dConfig& config() const { return cfg_; }

 private:
  Pool3dConfig cfg_;
  std::string name_;
  // Kept by Forward(train=true), freed by Backward: the input shape,
  // and per output cell the linear index into the input of its max.
  Shape in_shape_;
  Tensor<int64_t> argmax_;
};

class AvgPool3d : public Module {
 public:
  explicit AvgPool3d(Pool3dConfig cfg, std::string name = "avgpool");

  TensorF Forward(const TensorF& x, bool train) override;
  TensorF Backward(const TensorF& dy) override;
  std::string name() const override { return name_; }

 private:
  Pool3dConfig cfg_;
  std::string name_;
  Shape in_shape_;
};

// Averages over (D, H, W): [B][C][D][H][W] -> [B][C].
class GlobalAvgPool3d : public Module {
 public:
  explicit GlobalAvgPool3d(std::string name = "gap") : name_(std::move(name)) {}

  TensorF Forward(const TensorF& x, bool train) override;
  TensorF Backward(const TensorF& dy) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Shape in_shape_;
};

}  // namespace hwp3d::nn
