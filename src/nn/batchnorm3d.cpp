#include "nn/batchnorm3d.h"

#include <cmath>
#include <utility>

#include "kernels/thread_pool.h"

namespace hwp3d::nn {

BatchNorm3d::BatchNorm3d(int64_t channels, std::string name, float eps,
                         float momentum)
    : channels_(channels),
      name_(std::move(name)),
      eps_(eps),
      momentum_(momentum),
      gamma_(name_ + ".gamma", Shape{channels}),
      beta_(name_ + ".beta", Shape{channels}),
      running_mean_(Shape{channels}, 0.0f),
      running_var_(Shape{channels}, 1.0f) {
  HWP_CHECK_MSG(channels > 0, "BatchNorm3d needs positive channel count");
  gamma_.value.Fill(1.0f);
  beta_.value.Fill(0.0f);
}

// Every loop below walks contiguous (b, c) planes of D·H·W elements, in
// the order of the rank-5 reference loops, with the same float/double
// arithmetic, so outputs and gradients are bitwise the same. A channel
// is one pool task, its double chains run in order on the participant
// that claimed it, so the results do not depend on the pool size either.
TensorF BatchNorm3d::Forward(const TensorF& x, bool train) {
  TensorF y = Normalize(x, train);
  if (train) cached_input_ = x;
  return y;
}

TensorF BatchNorm3d::Forward(TensorF&& x, bool train) {
  TensorF y = Normalize(x, train);
  if (train) cached_input_ = std::move(x);
  return y;
}

TensorF BatchNorm3d::Normalize(const TensorF& x, bool train) {
  HWP_SHAPE_CHECK_MSG(x.rank() == 5 && x.dim(1) == channels_,
                      name_ << ": bad input " << x.shape().ToString());
  const int64_t B = x.dim(0), C = channels_;
  const int64_t plane = x.dim(2) * x.dim(3) * x.dim(4);
  const int64_t per_channel = B * plane;
  const float* xp = x.data();

  TensorF mean(Shape{C});
  TensorF inv_std(Shape{C});
  TensorF y = TensorF::Uninitialized(x.shape());
  float* yp = y.data();
  ThreadPool::Get().For(0, C, [&](int64_t c) {
    if (train) {
      double s = 0.0;
      for (int64_t b = 0; b < B; ++b) {
        const float* xc = xp + (b * C + c) * plane;
        for (int64_t i = 0; i < plane; ++i) s += xc[i];
      }
      const float mu = static_cast<float>(s / per_channel);
      s = 0.0;
      for (int64_t b = 0; b < B; ++b) {
        const float* xc = xp + (b * C + c) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          const double dev = xc[i] - mu;
          s += dev * dev;
        }
      }
      const float var = static_cast<float>(s / per_channel);
      mean[c] = mu;
      inv_std[c] = 1.0f / std::sqrt(var + eps_);
      running_mean_[c] =
          (1.0f - momentum_) * running_mean_[c] + momentum_ * mu;
      running_var_[c] = (1.0f - momentum_) * running_var_[c] + momentum_ * var;
    } else {
      mean[c] = running_mean_[c];
      inv_std[c] = 1.0f / std::sqrt(running_var_[c] + eps_);
    }
    const float g = gamma_.value[c], bt = beta_.value[c];
    const float mu = mean[c], is = inv_std[c];
    for (int64_t b = 0; b < B; ++b) {
      const int64_t off = (b * C + c) * plane;
      for (int64_t i = 0; i < plane; ++i)
        yp[off + i] = g * (xp[off + i] - mu) * is + bt;
    }
  });

  if (train) {
    batch_mean_ = std::move(mean);
    batch_inv_std_ = std::move(inv_std);
  }
  return y;
}

TensorF BatchNorm3d::Backward(const TensorF& dy) {
  return Backward(TensorF(dy));
}

TensorF BatchNorm3d::Backward(TensorF&& dy) {
  // Consumes the forward's caches: they are freed when this returns.
  const TensorF x = std::exchange(cached_input_, TensorF());
  const TensorF batch_mean = std::exchange(batch_mean_, TensorF());
  const TensorF batch_inv_std = std::exchange(batch_inv_std_, TensorF());
  HWP_CHECK_MSG(!x.empty(), name_ << ": Backward without a Forward(train="
                                     "true) since the last Backward");
  HWP_SHAPE_CHECK_MSG(dy.shape() == x.shape(),
                      name_ << ": bad grad shape " << dy.shape().ToString());
  const int64_t B = x.dim(0), C = channels_;
  const int64_t plane = x.dim(2) * x.dim(3) * x.dim(4);
  const double n = static_cast<double>(B * plane);
  const float* xp = x.data();
  // dx overwrites dy: each element is read, then written, in place.
  float* dyp = dy.data();
  ThreadPool::Get().For(0, C, [&](int64_t c) {
    const float mu = batch_mean[c];
    const float is = batch_inv_std[c];
    const float g = gamma_.value[c];
    // Reductions: sum dy, sum dy*xhat.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int64_t b = 0; b < B; ++b) {
      const int64_t off = (b * C + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        const float xhat = (xp[off + i] - mu) * is;
        const float gy = dyp[off + i];
        sum_dy += gy;
        sum_dy_xhat += static_cast<double>(gy) * xhat;
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad[c] += static_cast<float>(sum_dy);

    // dx = (g*is/n) * (n*dy - sum_dy - xhat * sum_dy_xhat)
    const double k = static_cast<double>(g) * is / n;
    for (int64_t b = 0; b < B; ++b) {
      const int64_t off = (b * C + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        const float xhat = (xp[off + i] - mu) * is;
        dyp[off + i] = static_cast<float>(
            k * (n * dyp[off + i] - sum_dy - xhat * sum_dy_xhat));
      }
    }
  });
  return std::move(dy);
}

void BatchNorm3d::CollectParams(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm3d::CollectBuffers(std::vector<NamedBuffer>& out) {
  out.push_back({name_ + ".running_mean", &running_mean_});
  out.push_back({name_ + ".running_var", &running_var_});
}

void BatchNorm3d::FoldedAffine(TensorF& scale, TensorF& shift) const {
  scale = TensorF(Shape{channels_});
  shift = TensorF(Shape{channels_});
  for (int64_t c = 0; c < channels_; ++c) {
    const float is = 1.0f / std::sqrt(running_var_[c] + eps_);
    scale[c] = gamma_.value[c] * is;
    shift[c] = beta_.value[c] - gamma_.value[c] * running_mean_[c] * is;
  }
}

}  // namespace hwp3d::nn
