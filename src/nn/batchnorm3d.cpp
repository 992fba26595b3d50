#include "nn/batchnorm3d.h"

#include <cmath>

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
// arithmetic, so outputs and gradients are bitwise the same.
TensorF BatchNorm3d::Forward(const TensorF& x, bool train) {
  HWP_SHAPE_CHECK_MSG(x.rank() == 5 && x.dim(1) == channels_,
                      name_ << ": bad input " << x.shape().ToString());
  const int64_t B = x.dim(0), C = channels_;
  const int64_t plane = x.dim(2) * x.dim(3) * x.dim(4);
  const int64_t per_channel = B * plane;
  const float* xp = x.data();

  TensorF mean(Shape{C});
  TensorF inv_std(Shape{C});
  if (train) {
    for (int64_t c = 0; c < C; ++c) {
      double s = 0.0;
      for (int64_t b = 0; b < B; ++b) {
        const float* xc = xp + (b * C + c) * plane;
        for (int64_t i = 0; i < plane; ++i) s += xc[i];
      }
      mean[c] = static_cast<float>(s / per_channel);
    }
    for (int64_t c = 0; c < C; ++c) {
      const float mu = mean[c];
      double s = 0.0;
      for (int64_t b = 0; b < B; ++b) {
        const float* xc = xp + (b * C + c) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          const double dev = xc[i] - mu;
          s += dev * dev;
        }
      }
      const float var = static_cast<float>(s / per_channel);
      inv_std[c] = 1.0f / std::sqrt(var + eps_);
      running_mean_[c] =
          (1.0f - momentum_) * running_mean_[c] + momentum_ * mean[c];
      running_var_[c] =
          (1.0f - momentum_) * running_var_[c] + momentum_ * var;
    }
  } else {
    for (int64_t c = 0; c < C; ++c) {
      mean[c] = running_mean_[c];
      inv_std[c] = 1.0f / std::sqrt(running_var_[c] + eps_);
    }
  }

  TensorF y(x.shape());
  float* yp = y.data();
  for (int64_t b = 0; b < B; ++b)
    for (int64_t c = 0; c < C; ++c) {
      const float g = gamma_.value[c], bt = beta_.value[c];
      const float mu = mean[c], is = inv_std[c];
      const int64_t off = (b * C + c) * plane;
      for (int64_t i = 0; i < plane; ++i)
        yp[off + i] = g * (xp[off + i] - mu) * is + bt;
    }

  if (train) {
    cached_input_ = x;
    batch_mean_ = mean;
    batch_inv_std_ = inv_std;
  }
  return y;
}

TensorF BatchNorm3d::Backward(const TensorF& dy) {
  const TensorF& x = cached_input_;
  HWP_CHECK_MSG(!x.empty(), name_ << ": Backward before Forward(train=true)");
  const int64_t B = x.dim(0), C = channels_;
  const int64_t plane = x.dim(2) * x.dim(3) * x.dim(4);
  const double n = static_cast<double>(B * plane);
  const float* xp = x.data();
  const float* dyp = dy.data();

  TensorF dx(x.shape());
  float* dxp = dx.data();
  for (int64_t c = 0; c < C; ++c) {
    const float mu = batch_mean_[c];
    const float is = batch_inv_std_[c];
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
        dxp[off + i] = static_cast<float>(
            k * (n * dyp[off + i] - sum_dy - xhat * sum_dy_xhat));
      }
    }
  }
  return dx;
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
