#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kernels/thread_pool.h"
#include "nn/activations.h"
#include "nn/batchnorm3d.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/pool3d.h"
#include "tensor/init.h"
#include "tensor/tensor_ops.h"
#include "testing/gradcheck.h"

namespace hwp3d {
namespace {

TEST(ReLUTest, ForwardClampsNegatives) {
  nn::ReLU relu;
  TensorF x(Shape{4}, std::vector<float>{-1.0f, 0.0f, 2.0f, -0.5f});
  const TensorF y = relu.Forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLUTest, BackwardGatesGradient) {
  nn::ReLU relu;
  TensorF x(Shape{3}, std::vector<float>{-1.0f, 1.0f, 3.0f});
  relu.Forward(x, true);
  TensorF dy(Shape{3}, std::vector<float>{5.0f, 5.0f, 5.0f});
  const TensorF dx = relu.Backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 5.0f);
  EXPECT_FLOAT_EQ(dx[2], 5.0f);
}

TEST(BatchNormTest, NormalizesTrainBatch) {
  Rng rng(1);
  nn::BatchNorm3d bn(2);
  TensorF x(Shape{4, 2, 2, 3, 3});
  FillNormal(x, rng, 5.0f, 2.0f);
  const TensorF y = bn.Forward(x, true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    int64_t count = 0;
    for (int64_t b = 0; b < 4; ++b)
      for (int64_t d = 0; d < 2; ++d)
        for (int64_t h = 0; h < 3; ++h)
          for (int64_t w = 0; w < 3; ++w) {
            const double v = y(b, c, d, h, w);
            sum += v;
            sq += v * v;
            ++count;
          }
    const double mean = sum / count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / count - mean * mean, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, RunningStatsConvergeToDataStats) {
  Rng rng(2);
  nn::BatchNorm3d bn(1, "bn", 1e-5f, 0.5f);
  for (int step = 0; step < 30; ++step) {
    TensorF x(Shape{8, 1, 2, 4, 4});
    FillNormal(x, rng, 3.0f, 1.5f);
    bn.Forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0f, 0.3f);
  EXPECT_NEAR(bn.running_var()[0], 2.25f, 0.5f);
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  Rng rng(3);
  nn::BatchNorm3d bn(1, "bn", 1e-5f, 1.0f);  // momentum 1: adopt batch stats
  TensorF x(Shape{8, 1, 2, 4, 4});
  FillNormal(x, rng, -2.0f, 1.0f);
  bn.Forward(x, true);
  // Eval on the same data should now produce ~standardized output.
  const TensorF y = bn.Forward(x, false);
  EXPECT_NEAR(Mean(y), 0.0f, 0.05f);
}

TEST(BatchNormTest, GradCheck) {
  Rng rng(4);
  nn::BatchNorm3d bn(3);
  TensorF x(Shape{3, 3, 2, 3, 3});
  FillUniform(x, rng, -2.0f, 2.0f);
  testing::CheckInputGradient(bn, x);
  testing::CheckParamGradients(bn, x);
}

TEST(BatchNormTest, FoldedAffineMatchesEval) {
  Rng rng(5);
  nn::BatchNorm3d bn(2, "bn", 1e-5f, 1.0f);
  TensorF x(Shape{4, 2, 2, 3, 3});
  FillNormal(x, rng, 1.0f, 2.0f);
  bn.Forward(x, true);  // adopt stats
  bn.gamma().value[0] = 1.5f;
  bn.beta().value[1] = -0.5f;

  TensorF scale, shift;
  bn.FoldedAffine(scale, shift);
  const TensorF y = bn.Forward(x, false);
  for (int64_t b = 0; b < 4; ++b)
    for (int64_t c = 0; c < 2; ++c)
      for (int64_t d = 0; d < 2; ++d)
        EXPECT_NEAR(y(b, c, d, 0, 0),
                    scale[c] * x(b, c, d, 0, 0) + shift[c], 1e-4f);
}

// The serial BatchNorm3d loops the channel-parallel layer must equal bit
// for bit: one channel at a time, the statistics and gradient sums as
// sequential double chains over (b, i).
struct BnReference {
  float eps = 1e-5f, momentum = 0.1f;
  std::vector<float> gamma, beta, running_mean, running_var;
  std::vector<float> mean, inv_std;  // of the last train-mode Forward

  explicit BnReference(nn::BatchNorm3d& bn)
      : gamma(bn.gamma().value.vec().begin(), bn.gamma().value.vec().end()),
        beta(bn.beta().value.vec().begin(), bn.beta().value.vec().end()),
        running_mean(bn.running_mean().vec().begin(),
                     bn.running_mean().vec().end()),
        running_var(bn.running_var().vec().begin(),
                    bn.running_var().vec().end()) {}

  TensorF Forward(const TensorF& x, bool train) {
    const int64_t B = x.dim(0), C = x.dim(1);
    const int64_t plane = x.dim(2) * x.dim(3) * x.dim(4);
    const size_t uc = static_cast<size_t>(C);
    mean.assign(uc, 0.0f);
    inv_std.assign(uc, 0.0f);
    for (int64_t c = 0; c < C; ++c) {
      const size_t i = static_cast<size_t>(c);
      if (!train) {
        mean[i] = running_mean[i];
        inv_std[i] = 1.0f / std::sqrt(running_var[i] + eps);
        continue;
      }
      double s = 0.0;
      for (int64_t b = 0; b < B; ++b)
        for (int64_t k = 0; k < plane; ++k) s += x[(b * C + c) * plane + k];
      mean[i] = static_cast<float>(s / (B * plane));
      s = 0.0;
      for (int64_t b = 0; b < B; ++b)
        for (int64_t k = 0; k < plane; ++k) {
          const double dev = x[(b * C + c) * plane + k] - mean[i];
          s += dev * dev;
        }
      const float var = static_cast<float>(s / (B * plane));
      inv_std[i] = 1.0f / std::sqrt(var + eps);
      running_mean[i] =
          (1.0f - momentum) * running_mean[i] + momentum * mean[i];
      running_var[i] = (1.0f - momentum) * running_var[i] + momentum * var;
    }
    TensorF y(x.shape());
    for (int64_t b = 0; b < B; ++b)
      for (int64_t c = 0; c < C; ++c)
        for (int64_t k = 0; k < plane; ++k) {
          const size_t i = static_cast<size_t>(c);
          const int64_t o = (b * C + c) * plane + k;
          y[o] = gamma[i] * (x[o] - mean[i]) * inv_std[i] + beta[i];
        }
    return y;
  }

  // dx, and the gamma/beta gradients, of the last train-mode Forward.
  TensorF Backward(const TensorF& x, const TensorF& dy, std::vector<float>& dg,
                   std::vector<float>& db) const {
    const int64_t B = x.dim(0), C = x.dim(1);
    const int64_t plane = x.dim(2) * x.dim(3) * x.dim(4);
    const double n = static_cast<double>(B * plane);
    TensorF dx(x.shape());
    dg.assign(static_cast<size_t>(C), 0.0f);
    db.assign(static_cast<size_t>(C), 0.0f);
    for (int64_t c = 0; c < C; ++c) {
      const size_t i = static_cast<size_t>(c);
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (int64_t b = 0; b < B; ++b)
        for (int64_t k = 0; k < plane; ++k) {
          const int64_t o = (b * C + c) * plane + k;
          const float xhat = (x[o] - mean[i]) * inv_std[i];
          sum_dy += dy[o];
          sum_dy_xhat += static_cast<double>(dy[o]) * xhat;
        }
      dg[i] = static_cast<float>(sum_dy_xhat);
      db[i] = static_cast<float>(sum_dy);
      const double kk = static_cast<double>(gamma[i]) * inv_std[i] / n;
      for (int64_t b = 0; b < B; ++b)
        for (int64_t k = 0; k < plane; ++k) {
          const int64_t o = (b * C + c) * plane + k;
          const float xhat = (x[o] - mean[i]) * inv_std[i];
          dx[o] = static_cast<float>(
              kk * (n * dy[o] - sum_dy - xhat * sum_dy_xhat));
        }
    }
    return dx;
  }
};

void ExpectBitwise(const TensorF& ref, const TensorF& got,
                   const std::string& what) {
  ASSERT_EQ(ref.shape(), got.shape()) << what;
  EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                        static_cast<size_t>(ref.numel()) * sizeof(float)),
            0)
      << what;
}

void ExpectBitwise(const std::vector<float>& ref, const TensorF& got,
                   const std::string& what) {
  ASSERT_EQ(static_cast<int64_t>(ref.size()), got.numel()) << what;
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)), 0)
      << what;
}

// Channel-parallel BatchNorm3d equals the serial loops bit for bit, on
// one thread (SerialScope) and on the process pool. ctest also runs this
// with HWP_THREADS=2 and 3 (nn_layers_bn_pool2/3) and the whole binary
// with HWP_THREADS=4, so pool sizes 1 to 4 are covered.
TEST(BatchNormPoolTest, BitwiseEqualToSerialReference) {
  for (bool serial : {true, false}) {
    SCOPED_TRACE(serial ? "one thread" : "pool");
    std::optional<ThreadPool::SerialScope> one_thread;
    if (serial) one_thread.emplace();
    // Channel counts below, at and above the pool size; the benchmark
    // model's mid widths 14 and 18.
    for (int64_t channels : {1, 3, 8, 14, 18}) {
      Rng rng(static_cast<uint64_t>(60 + channels));
      nn::BatchNorm3d bn(channels);
      FillUniform(bn.gamma().value, rng, 0.5f, 1.5f);
      FillUniform(bn.beta().value, rng, -0.5f, 0.5f);
      BnReference ref(bn);
      const std::string what = "C=" + std::to_string(channels);
      for (int step = 0; step < 2; ++step) {
        TensorF x(Shape{5, channels, 3, 4, 5});
        FillNormal(x, rng, 1.0f, 2.0f);
        TensorF dy(x.shape());
        FillUniform(dy, rng, -1.0f, 1.0f);
        bn.ZeroGrad();
        ExpectBitwise(ref.Forward(x, true), bn.Forward(x, true), what + " y");
        std::vector<float> dg, db;
        ExpectBitwise(ref.Backward(x, dy, dg, db), bn.Backward(dy),
                      what + " dx");
        ExpectBitwise(dg, bn.gamma().grad, what + " dgamma");
        ExpectBitwise(db, bn.beta().grad, what + " dbeta");
        ExpectBitwise(ref.running_mean, bn.running_mean(), what + " mean");
        ExpectBitwise(ref.running_var, bn.running_var(), what + " var");
      }
      TensorF x(Shape{2, channels, 2, 3, 3});
      FillNormal(x, rng, 0.0f, 1.0f);
      ExpectBitwise(ref.Forward(x, false), bn.Forward(x, false),
                    what + " eval y");
    }
  }
}

TEST(MaxPoolTest, SelectsWindowMax) {
  nn::MaxPool3d pool(nn::Pool3dConfig{{1, 2, 2}, {1, 2, 2}});
  TensorF x(Shape{1, 1, 1, 2, 2});
  x(0, 0, 0, 0, 0) = 1.0f;
  x(0, 0, 0, 0, 1) = 4.0f;
  x(0, 0, 0, 1, 0) = -2.0f;
  x(0, 0, 0, 1, 1) = 0.5f;
  const TensorF y = pool.Forward(x, false);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  nn::MaxPool3d pool(nn::Pool3dConfig{{1, 2, 2}, {1, 2, 2}});
  TensorF x(Shape{1, 1, 1, 2, 2});
  x(0, 0, 0, 0, 1) = 9.0f;
  pool.Forward(x, true);
  TensorF dy(Shape{1, 1, 1, 1, 1}, 3.0f);
  const TensorF dx = pool.Backward(dy);
  EXPECT_FLOAT_EQ(dx(0, 0, 0, 0, 1), 3.0f);
  EXPECT_FLOAT_EQ(dx(0, 0, 0, 0, 0), 0.0f);
}

TEST(MaxPoolTest, RejectsWindowLargerThanInputAtAnyStride) {
  // (1 - 2) / 2 + 1 would be one output row, read past the input.
  for (int64_t stride : {1, 2}) {
    nn::MaxPool3d max_pool(nn::Pool3dConfig{{2, 2, 2}, {stride, 2, 2}});
    nn::AvgPool3d avg_pool(nn::Pool3dConfig{{2, 2, 2}, {stride, 2, 2}});
    const TensorF x(Shape{1, 1, 1, 4, 4});
    EXPECT_THROW(max_pool.Forward(x, false), ShapeError);
    EXPECT_THROW(avg_pool.Forward(x, false), ShapeError);
  }
}

TEST(AvgPoolTest, AveragesWindow) {
  nn::AvgPool3d pool(nn::Pool3dConfig{{2, 2, 2}, {2, 2, 2}});
  TensorF x(Shape{1, 1, 2, 2, 2}, 1.0f);
  x(0, 0, 0, 0, 0) = 9.0f;
  const TensorF y = pool.Forward(x, false);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], (9.0f + 7.0f) / 8.0f);
}

TEST(AvgPoolTest, GradCheck) {
  Rng rng(6);
  nn::AvgPool3d pool(nn::Pool3dConfig{{2, 2, 2}, {2, 2, 2}});
  TensorF x(Shape{2, 2, 4, 4, 4});
  FillUniform(x, rng, -1.0f, 1.0f);
  testing::CheckInputGradient(pool, x);
}

TEST(GlobalAvgPoolTest, ReducesToChannels) {
  nn::GlobalAvgPool3d gap;
  TensorF x(Shape{2, 3, 2, 2, 2}, 2.0f);
  const TensorF y = gap.Forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(y(1, 2), 2.0f);
}

TEST(GlobalAvgPoolTest, GradCheck) {
  Rng rng(7);
  nn::GlobalAvgPool3d gap;
  TensorF x(Shape{2, 3, 2, 3, 3});
  FillUniform(x, rng, -1.0f, 1.0f);
  testing::CheckInputGradient(gap, x);
}

TEST(LinearTest, ComputesAffine) {
  Rng rng(8);
  nn::Linear fc(2, 2, rng);
  fc.weight().value(0, 0) = 1.0f;
  fc.weight().value(0, 1) = 2.0f;
  fc.weight().value(1, 0) = -1.0f;
  fc.weight().value(1, 1) = 0.0f;
  fc.bias().value[0] = 0.5f;
  fc.bias().value[1] = 0.0f;
  TensorF x(Shape{1, 2}, std::vector<float>{3.0f, 4.0f});
  const TensorF y = fc.Forward(x, false);
  EXPECT_FLOAT_EQ(y(0, 0), 3.0f + 8.0f + 0.5f);
  EXPECT_FLOAT_EQ(y(0, 1), -3.0f);
}

TEST(LinearTest, GradCheck) {
  Rng rng(9);
  nn::Linear fc(5, 3, rng);
  TensorF x(Shape{4, 5});
  FillUniform(x, rng, -1.0f, 1.0f);
  testing::CheckInputGradient(fc, x);
  testing::CheckParamGradients(fc, x);
}

TEST(SequentialTest, ChainsForwardAndBackward) {
  Rng rng(10);
  nn::Sequential seq;
  seq.Emplace<nn::Linear>(4, 8, rng, "fc1");
  seq.Emplace<nn::ReLU>();
  seq.Emplace<nn::Linear>(8, 2, rng, "fc2");
  TensorF x(Shape{3, 4});
  FillUniform(x, rng, -1.0f, 1.0f);
  const TensorF y = seq.Forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  const TensorF dx = seq.Backward(TensorF(y.shape(), 1.0f));
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_EQ(seq.Params().size(), 4u);  // 2 weights + 2 biases
}

TEST(SequentialTest, ZeroGradClearsAll) {
  Rng rng(11);
  nn::Sequential seq;
  seq.Emplace<nn::Linear>(2, 2, rng);
  TensorF x(Shape{1, 2}, 1.0f);
  seq.Forward(x, true);
  seq.Backward(TensorF(Shape{1, 2}, 1.0f));
  seq.ZeroGrad();
  for (nn::Param* p : seq.Params()) {
    EXPECT_FLOAT_EQ(MaxAbs(p->grad), 0.0f);
  }
}

}  // namespace
}  // namespace hwp3d
