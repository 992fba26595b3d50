// Parity of the gemm conv/linear engine against the naive reference.
//
// For a grid of kernel/stride/padding/bias configurations (including
// the asymmetric R(2+1)D 1×3×3 and 3×1×1 shapes, the benchmark model's
// layers at batch 8 and 1, convs lowered in several column slabs, and
// cases that cross the sgemm KC/NC cache-block boundaries), Forward
// outputs and every
// Backward gradient (dx, dW, db) produced by the gemm engine must
// match the naive double-accumulation loops within 1e-4.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kernels/engine.h"
#include "nn/conv3d.h"
#include "nn/linear.h"
#include "nn/r2plus1d_block.h"
#include "tensor/init.h"

namespace hwp3d {
namespace {

using nn::Conv3d;
using nn::Conv3dConfig;

// Restores the previously selected engine on scope exit.
class EngineOverride {
 public:
  explicit EngineOverride(kernels::Engine e) : prev_(kernels::CurrentEngine()) {
    kernels::SetEngine(e);
  }
  ~EngineOverride() { kernels::SetEngine(prev_); }

 private:
  kernels::Engine prev_;
};

void ExpectClose(const TensorF& ref, const TensorF& got,
                 const std::string& what) {
  ASSERT_EQ(ref.shape(), got.shape()) << what;
  for (int64_t i = 0; i < ref.numel(); ++i) {
    const float tol = 1e-4f + 1e-4f * std::fabs(ref[i]);
    ASSERT_NEAR(ref[i], got[i], tol) << what << " at flat index " << i;
  }
}

struct EngineRun {
  TensorF y, dx, dw, db;
};

// One Forward(train)+Backward pass of `module` under `engine`; gradients
// are zeroed first so runs are comparable.
template <typename M>
EngineRun RunOnce(M& module, const TensorF& x, const TensorF& seed,
                  kernels::Engine engine) {
  EngineOverride eo(engine);
  module.ZeroGrad();
  EngineRun r;
  r.y = module.Forward(x, /*train=*/true);
  r.dx = module.Backward(seed);
  return r;
}

void CheckConvParity(const Conv3dConfig& cfg, const Shape& in_shape,
                     const std::string& what) {
  Rng rng(99);
  Conv3d conv(cfg, rng, "parity");
  TensorF x(in_shape);
  FillUniform(x, rng, -1.0f, 1.0f);
  const TensorF y_probe = conv.Forward(x, false);
  TensorF seed(y_probe.shape());
  FillUniform(seed, rng, -1.0f, 1.0f);

  EngineRun naive = RunOnce(conv, x, seed, kernels::Engine::kNaive);
  naive.dw = conv.weight().grad;
  if (conv.bias() != nullptr) naive.db = conv.bias()->grad;

  EngineRun gemm = RunOnce(conv, x, seed, kernels::Engine::kGemm);
  gemm.dw = conv.weight().grad;
  if (conv.bias() != nullptr) gemm.db = conv.bias()->grad;

  ExpectClose(naive.y, gemm.y, what + " y");
  ExpectClose(naive.dx, gemm.dx, what + " dx");
  ExpectClose(naive.dw, gemm.dw, what + " dW");
  if (conv.bias() != nullptr) ExpectClose(naive.db, gemm.db, what + " db");
}

TEST(ConvEngineParityTest, KernelStridePaddingBiasGrid) {
  const std::array<std::array<int64_t, 3>, 5> kernels_ = {{
      {1, 1, 1}, {3, 3, 3}, {1, 3, 3}, {3, 1, 1}, {2, 3, 2}}};
  const std::array<std::array<int64_t, 3>, 3> strides = {{
      {1, 1, 1}, {1, 2, 2}, {2, 1, 2}}};
  const std::array<std::array<int64_t, 3>, 3> paddings = {{
      {0, 0, 0}, {1, 1, 1}, {0, 1, 1}}};
  const Shape in_shape{2, 3, 5, 6, 7};
  for (const auto& k : kernels_) {
    for (const auto& s : strides) {
      for (const auto& p : paddings) {
        for (bool bias : {false, true}) {
          Conv3dConfig cfg;
          cfg.in_channels = 3;
          cfg.out_channels = 7;  // not a multiple of the micro-tile MR
          cfg.kernel = k;
          cfg.stride = s;
          cfg.padding = p;
          cfg.bias = bias;
          bool valid = true;
          const std::array<int64_t, 3> in = {5, 6, 7};
          for (size_t a = 0; a < 3; ++a) {
            if (Conv3d::OutExtent(in[a], k[a], s[a], p[a]) <= 0) valid = false;
          }
          if (!valid) continue;
          const std::string what =
              "k=" + std::to_string(k[0]) + std::to_string(k[1]) +
              std::to_string(k[2]) + " s=" + std::to_string(s[0]) +
              std::to_string(s[1]) + std::to_string(s[2]) +
              " p=" + std::to_string(p[0]) + std::to_string(p[1]) +
              std::to_string(p[2]) + (bias ? " bias" : " nobias");
          CheckConvParity(cfg, in_shape, what);
        }
      }
    }
  }
}

TEST(ConvEngineParityTest, CrossesKcBlockBoundary) {
  // K = 40·3·3·3 = 1080 > KC=256: the pc loop must accumulate across
  // multiple cache blocks.
  Conv3dConfig cfg;
  cfg.in_channels = 40;
  cfg.out_channels = 8;
  cfg.kernel = {3, 3, 3};
  cfg.padding = {1, 1, 1};
  CheckConvParity(cfg, Shape{1, 40, 3, 6, 6}, "KC-crossing");
}

TEST(ConvEngineParityTest, CrossesNcBlockBoundary) {
  // P = 8·20·20 = 3200 > NC=1024: the jc loop must tile the columns.
  Conv3dConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 3;
  cfg.kernel = {1, 1, 1};
  CheckConvParity(cfg, Shape{1, 2, 8, 20, 20}, "NC-crossing");
}

TEST(ConvEngineParityTest, ManyOutputChannels) {
  // M = 19 exercises both full and partial MR row-panels.
  Conv3dConfig cfg;
  cfg.in_channels = 5;
  cfg.out_channels = 19;
  cfg.kernel = {3, 3, 3};
  cfg.stride = {1, 2, 2};
  cfg.padding = {1, 1, 1};
  CheckConvParity(cfg, Shape{2, 5, 4, 9, 9}, "M=19");
}

// The shapes of the benchmark prune job's TinyR2Plus1d (4/8/8 channels,
// 6x10x10 clips): the (2+1)D mid widths 14 (4->8) and 18 (8->8), the
// stride-2 stage and its 1x1x1 projection shortcut. Batch 8 puts more
// samples than pool threads in the conv's one region; batch 1 runs on
// the caller and fans out inside the GEMMs instead.
TEST(ConvEngineParityTest, BenchmarkModelShapes) {
  struct Layer {
    const char* name;
    int64_t in_c, out_c;
    std::array<int64_t, 3> kernel, stride, padding;
    std::array<int64_t, 3> in_dhw;
  };
  const Layer layers[] = {
      {"spatial 4->14", 4, 14, {1, 3, 3}, {1, 1, 1}, {0, 1, 1}, {6, 10, 10}},
      {"temporal 14->8", 14, 8, {3, 1, 1}, {1, 1, 1}, {1, 0, 0}, {6, 10, 10}},
      {"spatial 8->18", 8, 18, {1, 3, 3}, {1, 1, 1}, {0, 1, 1}, {6, 10, 10}},
      {"temporal 18->8", 18, 8, {3, 1, 1}, {1, 1, 1}, {1, 0, 0}, {6, 10, 10}},
      {"stride-2 spatial 8->18", 8, 18, {1, 3, 3}, {1, 2, 2}, {0, 1, 1},
       {6, 10, 10}},
      {"stride-2 temporal 18->8", 18, 8, {3, 1, 1}, {2, 1, 1}, {1, 0, 0},
       {6, 5, 5}},
      {"1x1x1 shortcut, stride 2", 8, 8, {1, 1, 1}, {2, 2, 2}, {0, 0, 0},
       {6, 10, 10}},
  };
  for (const Layer& l : layers) {
    for (int64_t batch : {8, 1}) {
      Conv3dConfig cfg;
      cfg.in_channels = l.in_c;
      cfg.out_channels = l.out_c;
      cfg.kernel = l.kernel;
      cfg.stride = l.stride;
      cfg.padding = l.padding;
      cfg.bias = false;
      CheckConvParity(cfg,
                      Shape{batch, l.in_c, l.in_dhw[0], l.in_dhw[1],
                            l.in_dhw[2]},
                      std::string(l.name) + " batch " + std::to_string(batch));
    }
  }
}

TEST(ConvEngineParityTest, TemporalConvAcrossSeveralColumnSlabs) {
  // 16x16 planes fill a 256-column slab each, so the 8 output planes are
  // lowered and scattered in 8 slabs; odd sizes add a partial last slab.
  Conv3dConfig cfg;
  cfg.in_channels = 6;
  cfg.out_channels = 5;
  cfg.kernel = {3, 1, 1};
  cfg.padding = {1, 0, 0};
  cfg.bias = true;
  CheckConvParity(cfg, Shape{3, 6, 8, 16, 16}, "3x1x1, 8 slabs");
  cfg.kernel = {3, 3, 3};
  cfg.padding = {1, 1, 1};
  CheckConvParity(cfg, Shape{2, 6, 7, 9, 13}, "3x3x3, 117-column planes");
}

TEST(R2Plus1dEngineParityTest, StrideTwoFactorizedBlockMatches) {
  for (int64_t batch : {8, 1}) {
    Rng rng(6);
    nn::Conv2Plus1dConfig cfg;
    cfg.in_channels = 8;
    cfg.out_channels = 8;
    cfg.spatial_stride = 2;
    cfg.temporal_stride = 2;
    nn::Conv2Plus1d block(cfg, rng, "parity_2p1d_s2");
    TensorF x(Shape{batch, 8, 6, 10, 10});
    FillUniform(x, rng, -1.0f, 1.0f);
    const TensorF y_probe = block.Forward(x, false);
    TensorF seed(y_probe.shape());
    FillUniform(seed, rng, -1.0f, 1.0f);

    EngineRun naive = RunOnce(block, x, seed, kernels::Engine::kNaive);
    std::vector<TensorF> naive_grads;
    for (nn::Param* p : block.Params()) naive_grads.push_back(p->grad);
    EngineRun gemm = RunOnce(block, x, seed, kernels::Engine::kGemm);

    const std::string what = "stride-2 2p1d batch " + std::to_string(batch);
    ExpectClose(naive.y, gemm.y, what + " y");
    ExpectClose(naive.dx, gemm.dx, what + " dx");
    const std::vector<nn::Param*> params = block.Params();
    ASSERT_EQ(naive_grads.size(), params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      ExpectClose(naive_grads[i], params[i]->grad,
                  what + " grad " + params[i]->name);
    }
  }
}

TEST(LinearEngineParityTest, ForwardBackwardMatch) {
  Rng rng(7);
  nn::Linear fc(37, 23, rng);
  TensorF x(Shape{5, 37});
  FillUniform(x, rng, -1.0f, 1.0f);
  TensorF seed(Shape{5, 23});
  FillUniform(seed, rng, -1.0f, 1.0f);

  EngineRun naive = RunOnce(fc, x, seed, kernels::Engine::kNaive);
  naive.dw = fc.weight().grad;
  naive.db = fc.bias().grad;
  EngineRun gemm = RunOnce(fc, x, seed, kernels::Engine::kGemm);
  gemm.dw = fc.weight().grad;
  gemm.db = fc.bias().grad;

  ExpectClose(naive.y, gemm.y, "linear y");
  ExpectClose(naive.dx, gemm.dx, "linear dx");
  ExpectClose(naive.dw, gemm.dw, "linear dW");
  ExpectClose(naive.db, gemm.db, "linear db");
}

TEST(LinearEngineParityTest, WideLayerCrossesKcBlock) {
  Rng rng(8);
  nn::Linear fc(700, 11, rng);  // in=700 > KC=256
  TensorF x(Shape{3, 700});
  FillUniform(x, rng, -0.5f, 0.5f);
  TensorF seed(Shape{3, 11});
  FillUniform(seed, rng, -1.0f, 1.0f);
  EngineRun naive = RunOnce(fc, x, seed, kernels::Engine::kNaive);
  naive.dw = fc.weight().grad;
  EngineRun gemm = RunOnce(fc, x, seed, kernels::Engine::kGemm);
  gemm.dw = fc.weight().grad;
  ExpectClose(naive.y, gemm.y, "wide linear y");
  ExpectClose(naive.dx, gemm.dx, "wide linear dx");
  ExpectClose(naive.dw, gemm.dw, "wide linear dW");
}

TEST(R2Plus1dEngineParityTest, FactorizedBlockMatches) {
  // The factorized pair runs the asymmetric 1×3×3 and 3×1×1 kernels
  // back to back — exactly the shapes the paper's R(2+1)D uses.
  Rng rng(5);
  nn::Conv2Plus1dConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 6;
  cfg.spatial_kernel = 3;
  cfg.temporal_kernel = 3;
  nn::Conv2Plus1d block(cfg, rng, "parity_2p1d");
  TensorF x(Shape{2, 4, 4, 8, 8});
  FillUniform(x, rng, -1.0f, 1.0f);
  const TensorF y_probe = block.Forward(x, false);
  TensorF seed(y_probe.shape());
  FillUniform(seed, rng, -1.0f, 1.0f);

  EngineRun naive = RunOnce(block, x, seed, kernels::Engine::kNaive);
  std::vector<TensorF> naive_grads;
  for (nn::Param* p : block.Params()) naive_grads.push_back(p->grad);

  EngineRun gemm = RunOnce(block, x, seed, kernels::Engine::kGemm);
  std::vector<nn::Param*> params = block.Params();

  ExpectClose(naive.y, gemm.y, "2p1d y");
  ExpectClose(naive.dx, gemm.dx, "2p1d dx");
  ASSERT_EQ(naive_grads.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    ExpectClose(naive_grads[i], params[i]->grad, "2p1d grad " + params[i]->name);
  }
}

}  // namespace
}  // namespace hwp3d
