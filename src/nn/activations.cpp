#include "nn/activations.h"

namespace hwp3d::nn {

TensorF ReLU::Forward(const TensorF& x, bool train) {
  TensorF y(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  if (train) cached_input_ = x;
  return y;
}

TensorF ReLU::Backward(const TensorF& dy) {
  const TensorF& x = cached_input_;
  HWP_CHECK_MSG(!x.empty(), name_ << ": Backward before Forward(train=true)");
  HWP_SHAPE_CHECK_MSG(dy.shape() == x.shape(),
                      name_ << ": grad shape mismatch");
  TensorF dx(x.shape());
  // Load dy unconditionally so the select vectorizes instead of
  // branching on the sign of x.
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float g = dy[i];
    dx[i] = x[i] > 0.0f ? g : 0.0f;
  }
  return dx;
}

}  // namespace hwp3d::nn
