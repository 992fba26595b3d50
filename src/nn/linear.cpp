#include "nn/linear.h"

#include <cstring>
#include <utility>

#include "kernels/engine.h"
#include "kernels/sgemm.h"
#include "kernels/thread_pool.h"
#include "obs/trace.h"
#include "tensor/init.h"

namespace hwp3d::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng,
               std::string name)
    : in_features_(in_features),
      out_features_(out_features),
      name_(std::move(name)),
      weight_(name_ + ".weight", Shape{out_features, in_features}),
      bias_(name_ + ".bias", Shape{out_features}) {
  HWP_CHECK_MSG(in_features > 0 && out_features > 0,
                "Linear needs positive feature counts");
  FillXavier(weight_.value, rng, in_features, out_features);
  bias_.value.Fill(0.0f);
}

TensorF Linear::Forward(const TensorF& x, bool train) {
  TensorF y = Affine(x);
  if (train) cached_input_ = x;
  return y;
}

TensorF Linear::Forward(TensorF&& x, bool train) {
  TensorF y = Affine(x);
  if (train) cached_input_ = std::move(x);
  return y;
}

TensorF Linear::Affine(const TensorF& x) const {
  HWP_SHAPE_CHECK_MSG(x.rank() == 2 && x.dim(1) == in_features_,
                      name_ << ": bad input " << x.shape().ToString());
  const int64_t B = x.dim(0);
  TensorF y(Shape{B, out_features_});
  HWP_TRACE_SCOPE("nn/linear_forward");
  if (kernels::CurrentEngine() == kernels::Engine::kGemm) {
    // Seed every row with the bias, then y += x · Wᵀ.
    for (int64_t b = 0; b < B; ++b) {
      std::memcpy(y.data() + b * out_features_, bias_.value.data(),
                  sizeof(float) * static_cast<size_t>(out_features_));
    }
    kernels::Sgemm(/*trans_a=*/false, /*trans_b=*/true, B, out_features_,
                   in_features_, x.data(), in_features_, weight_.value.data(),
                   in_features_, y.data(), out_features_, /*accumulate=*/true);
  } else {
    for (int64_t b = 0; b < B; ++b)
      for (int64_t o = 0; o < out_features_; ++o) {
        double acc = bias_.value[o];
        for (int64_t i = 0; i < in_features_; ++i)
          acc += static_cast<double>(weight_.value(o, i)) * x(b, i);
        y(b, o) = static_cast<float>(acc);
      }
  }
  return y;
}

TensorF Linear::Backward(const TensorF& dy) {
  // Consumes the forward's input: freed when this returns.
  const TensorF x = std::exchange(cached_input_, TensorF());
  HWP_CHECK_MSG(!x.empty(), name_ << ": Backward without a Forward(train="
                                     "true) since the last Backward");
  const int64_t B = x.dim(0);
  HWP_SHAPE_CHECK_MSG(dy.rank() == 2 && dy.dim(0) == B &&
                          dy.dim(1) == out_features_,
                      name_ << ": bad grad shape " << dy.shape().ToString());
  HWP_TRACE_SCOPE("nn/linear_backward");
  TensorF dx(x.shape());
  if (kernels::CurrentEngine() == kernels::Engine::kGemm) {
    // db: parallel column reduction of dy.
    const float* dyp = dy.data();
    float* db = bias_.grad.data();
    ThreadPool::Get().For(0, out_features_, [&](int64_t o) {
      double acc = 0.0;
      for (int64_t b = 0; b < B; ++b) acc += dyp[b * out_features_ + o];
      db[o] += static_cast<float>(acc);
    });
    // dW[out×in] += dyᵀ[out×B] · x[B×in]
    kernels::Sgemm(/*trans_a=*/true, /*trans_b=*/false, out_features_,
                   in_features_, B, dy.data(), out_features_, x.data(),
                   in_features_, weight_.grad.data(), in_features_,
                   /*accumulate=*/true);
    // dx[B×in] = dy[B×out] · W[out×in]
    kernels::Sgemm(/*trans_a=*/false, /*trans_b=*/false, B, in_features_,
                   out_features_, dy.data(), out_features_,
                   weight_.value.data(), in_features_, dx.data(), in_features_,
                   /*accumulate=*/false);
  } else {
    for (int64_t o = 0; o < out_features_; ++o) {
      double db = 0.0;
      for (int64_t b = 0; b < B; ++b) db += dy(b, o);
      bias_.grad[o] += static_cast<float>(db);
      for (int64_t i = 0; i < in_features_; ++i) {
        double dw = 0.0;
        for (int64_t b = 0; b < B; ++b)
          dw += static_cast<double>(dy(b, o)) * x(b, i);
        weight_.grad(o, i) += static_cast<float>(dw);
      }
    }
    for (int64_t b = 0; b < B; ++b)
      for (int64_t i = 0; i < in_features_; ++i) {
        double acc = 0.0;
        for (int64_t o = 0; o < out_features_; ++o)
          acc += static_cast<double>(dy(b, o)) * weight_.value(o, i);
        dx(b, i) = static_cast<float>(acc);
      }
  }
  return dx;
}

void Linear::CollectParams(std::vector<Param*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

}  // namespace hwp3d::nn
