#include "nn/activations.h"

#include <utility>

namespace hwp3d::nn {

TensorF ReLU::Forward(const TensorF& x, bool train) {
  return Forward(TensorF(x), train);
}

TensorF ReLU::Forward(TensorF&& x, bool train) {
  float* p = x.data();
  const int64_t n = x.numel();
  if (train) {
    cached_positive_ = Tensor<uint8_t>::Uninitialized(x.shape());
    uint8_t* positive = cached_positive_.data();
    for (int64_t i = 0; i < n; ++i) positive[i] = p[i] > 0.0f;
  }
  for (int64_t i = 0; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
  return std::move(x);
}

TensorF ReLU::Backward(const TensorF& dy) { return Backward(TensorF(dy)); }

TensorF ReLU::Backward(TensorF&& dy) {
  // Consumes the forward's mask: freed when this returns.
  const Tensor<uint8_t> positive = std::exchange(cached_positive_, {});
  HWP_CHECK_MSG(!positive.empty(), name_ << ": Backward without a Forward("
                                            "train=true) since the last "
                                            "Backward");
  HWP_SHAPE_CHECK_MSG(dy.shape() == positive.shape(),
                      name_ << ": grad shape mismatch");
  // A select, not a branch on the sign of x, so the loop vectorizes.
  float* g = dy.data();
  const uint8_t* pos = positive.data();
  for (int64_t i = 0; i < dy.numel(); ++i) g[i] = pos[i] != 0 ? g[i] : 0.0f;
  return std::move(dy);
}

}  // namespace hwp3d::nn
