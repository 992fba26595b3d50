#include "nn/activations.h"

namespace hwp3d::nn {

TensorF ReLU::Forward(const TensorF& x, bool train) {
  TensorF y = TensorF::Uninitialized(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  if (train) {
    cached_shape_ = x.shape();
    cached_positive_.resize(static_cast<size_t>(x.numel()));
    for (int64_t i = 0; i < x.numel(); ++i) {
      cached_positive_[static_cast<size_t>(i)] = x[i] > 0.0f;
    }
  }
  return y;
}

TensorF ReLU::Backward(const TensorF& dy) {
  HWP_CHECK_MSG(cached_shape_.rank() > 0,
                name_ << ": Backward before Forward(train=true)");
  HWP_SHAPE_CHECK_MSG(dy.shape() == cached_shape_,
                      name_ << ": grad shape mismatch");
  TensorF dx = TensorF::Uninitialized(cached_shape_);
  // Load dy unconditionally so the select vectorizes instead of
  // branching on the sign of x.
  for (int64_t i = 0; i < dx.numel(); ++i) {
    const float g = dy[i];
    dx[i] = cached_positive_[static_cast<size_t>(i)] != 0 ? g : 0.0f;
  }
  return dx;
}

}  // namespace hwp3d::nn
