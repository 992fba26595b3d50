#include "nn/pool3d.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "tensor/shape.h"

namespace hwp3d::nn {

MaxPool3d::MaxPool3d(Pool3dConfig cfg, std::string name)
    : cfg_(cfg), name_(std::move(name)) {}

TensorF MaxPool3d::Forward(const TensorF& x, bool train) {
  HWP_SHAPE_CHECK_MSG(x.rank() == 5, name_ << ": input must be rank-5");
  const int64_t B = x.dim(0), C = x.dim(1);
  const int64_t Di = x.dim(2), Hi = x.dim(3), Wi = x.dim(4);
  const auto [Kd, Kh, Kw] = cfg_.kernel;
  const auto [Sd, Sh, Sw] = cfg_.stride;
  const int64_t Do = WindowExtent(Di, Kd, Sd);
  const int64_t Ho = WindowExtent(Hi, Kh, Sh);
  const int64_t Wo = WindowExtent(Wi, Kw, Sw);
  HWP_SHAPE_CHECK_MSG(Do > 0 && Ho > 0 && Wo > 0,
                      name_ << ": pooling window larger than input");

  TensorF y(Shape{B, C, Do, Ho, Wo});
  Tensor<int64_t> argmax = Tensor<int64_t>::Uninitialized(y.shape());
  int64_t out_i = 0;
  for (int64_t b = 0; b < B; ++b)
    for (int64_t c = 0; c < C; ++c)
      for (int64_t od = 0; od < Do; ++od)
        for (int64_t oh = 0; oh < Ho; ++oh)
          for (int64_t ow = 0; ow < Wo; ++ow, ++out_i) {
            float best = -std::numeric_limits<float>::infinity();
            int64_t best_idx = -1;
            for (int64_t kd = 0; kd < Kd; ++kd)
              for (int64_t kh = 0; kh < Kh; ++kh)
                for (int64_t kw = 0; kw < Kw; ++kw) {
                  const int64_t id = od * Sd + kd, ih = oh * Sh + kh,
                                iw = ow * Sw + kw;
                  const float v = x(b, c, id, ih, iw);
                  if (v > best) {
                    best = v;
                    best_idx =
                        (((b * C + c) * Di + id) * Hi + ih) * Wi + iw;
                  }
                }
            y[out_i] = best;
            argmax[out_i] = best_idx;
          }

  if (train) {
    in_shape_ = x.shape();
    argmax_ = std::move(argmax);
  }
  return y;
}

TensorF MaxPool3d::Backward(const TensorF& dy) {
  // Consumes the forward's caches: freed when this returns.
  const Shape in_shape = std::exchange(in_shape_, Shape());
  const Tensor<int64_t> argmax = std::exchange(argmax_, {});
  HWP_CHECK_MSG(in_shape.rank() == 5,
                name_ << ": Backward without a Forward(train=true) since "
                         "the last Backward");
  HWP_SHAPE_CHECK_MSG(dy.shape() == argmax.shape(),
                      name_ << ": bad grad shape");
  TensorF dx(in_shape);
  for (int64_t i = 0; i < dy.numel(); ++i) dx[argmax[i]] += dy[i];
  return dx;
}

AvgPool3d::AvgPool3d(Pool3dConfig cfg, std::string name)
    : cfg_(cfg), name_(std::move(name)) {}

TensorF AvgPool3d::Forward(const TensorF& x, bool train) {
  HWP_SHAPE_CHECK_MSG(x.rank() == 5, name_ << ": input must be rank-5");
  const int64_t B = x.dim(0), C = x.dim(1);
  const int64_t Di = x.dim(2), Hi = x.dim(3), Wi = x.dim(4);
  const auto [Kd, Kh, Kw] = cfg_.kernel;
  const auto [Sd, Sh, Sw] = cfg_.stride;
  const int64_t Do = WindowExtent(Di, Kd, Sd);
  const int64_t Ho = WindowExtent(Hi, Kh, Sh);
  const int64_t Wo = WindowExtent(Wi, Kw, Sw);
  HWP_SHAPE_CHECK_MSG(Do > 0 && Ho > 0 && Wo > 0,
                      name_ << ": pooling window larger than input");
  const float inv = 1.0f / static_cast<float>(Kd * Kh * Kw);

  TensorF y(Shape{B, C, Do, Ho, Wo});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t c = 0; c < C; ++c)
      for (int64_t od = 0; od < Do; ++od)
        for (int64_t oh = 0; oh < Ho; ++oh)
          for (int64_t ow = 0; ow < Wo; ++ow) {
            double acc = 0.0;
            for (int64_t kd = 0; kd < Kd; ++kd)
              for (int64_t kh = 0; kh < Kh; ++kh)
                for (int64_t kw = 0; kw < Kw; ++kw)
                  acc += x(b, c, od * Sd + kd, oh * Sh + kh, ow * Sw + kw);
            y(b, c, od, oh, ow) = static_cast<float>(acc) * inv;
          }

  if (train) in_shape_ = x.shape();
  return y;
}

TensorF AvgPool3d::Backward(const TensorF& dy) {
  const Shape in_shape = std::exchange(in_shape_, Shape());
  HWP_CHECK_MSG(in_shape.rank() == 5,
                name_ << ": Backward without a Forward(train=true) since "
                         "the last Backward");
  const auto [Kd, Kh, Kw] = cfg_.kernel;
  const auto [Sd, Sh, Sw] = cfg_.stride;
  const float inv = 1.0f / static_cast<float>(Kd * Kh * Kw);
  TensorF dx(in_shape);
  const int64_t B = dy.dim(0), C = dy.dim(1);
  const int64_t Do = dy.dim(2), Ho = dy.dim(3), Wo = dy.dim(4);
  for (int64_t b = 0; b < B; ++b)
    for (int64_t c = 0; c < C; ++c)
      for (int64_t od = 0; od < Do; ++od)
        for (int64_t oh = 0; oh < Ho; ++oh)
          for (int64_t ow = 0; ow < Wo; ++ow) {
            const float g = dy(b, c, od, oh, ow) * inv;
            for (int64_t kd = 0; kd < Kd; ++kd)
              for (int64_t kh = 0; kh < Kh; ++kh)
                for (int64_t kw = 0; kw < Kw; ++kw)
                  dx(b, c, od * Sd + kd, oh * Sh + kh, ow * Sw + kw) += g;
          }
  return dx;
}

TensorF GlobalAvgPool3d::Forward(const TensorF& x, bool train) {
  HWP_SHAPE_CHECK_MSG(x.rank() == 5, name_ << ": input must be rank-5");
  const int64_t B = x.dim(0), C = x.dim(1);
  const int64_t plane = x.dim(2) * x.dim(3) * x.dim(4);
  const float inv = 1.0f / static_cast<float>(plane);
  TensorF y(Shape{B, C});
  // One contiguous D·H·W plane per (b, c), summed in reference order.
  for (int64_t bc = 0; bc < B * C; ++bc) {
    const float* xc = x.data() + bc * plane;
    double acc = 0.0;
    for (int64_t i = 0; i < plane; ++i) acc += xc[i];
    y[bc] = static_cast<float>(acc) * inv;
  }
  if (train) in_shape_ = x.shape();
  return y;
}

TensorF GlobalAvgPool3d::Backward(const TensorF& dy) {
  const Shape in_shape = std::exchange(in_shape_, Shape());
  HWP_CHECK_MSG(in_shape.rank() == 5,
                name_ << ": Backward without a Forward(train=true) since "
                         "the last Backward");
  const int64_t B = in_shape[0], C = in_shape[1];
  const int64_t plane = in_shape[2] * in_shape[3] * in_shape[4];
  const float inv = 1.0f / static_cast<float>(plane);
  TensorF dx(in_shape);
  for (int64_t bc = 0; bc < B * C; ++bc) {
    float* dxc = dx.data() + bc * plane;
    std::fill(dxc, dxc + plane, dy[bc] * inv);
  }
  return dx;
}

}  // namespace hwp3d::nn
