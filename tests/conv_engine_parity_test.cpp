// Parity of the gemm conv/linear engine against the naive reference.
//
// For a grid of kernel/stride/padding/bias configurations (including
// the asymmetric R(2+1)D 1×3×3 and 3×1×1 shapes, the benchmark model's
// layers at batch 8 and 1, convs run as one GEMM per output depth,
// stride-2 and wider-than-kernel padding, and cases that cross the
// sgemm KC/NC cache-block boundaries), Forward outputs and every
// Backward gradient (dx, dW, db) produced by the gemm engine must
// match the naive double-accumulation loops within 1e-4. The in-place
// forward must also equal an explicit im2col + Sgemm bit for bit on
// every conv of both benchmark models.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kernels/conv3d_gemm.h"
#include "kernels/engine.h"
#include "nn/conv3d.h"
#include "nn/linear.h"
#include "models/tiny_r2plus1d.h"
#include "nn/r2plus1d_block.h"
#include "tensor/init.h"
#include "testing/im2col_reference.h"

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
  // A 3x1x1 conv reads all 8 output depths as one GEMM of 2048 columns
  // (two NC blocks); the 3x3x3 one runs a GEMM per depth over rows of
  // 15 columns, 2 of them halo, and its dX reads a zero-bordered dy.
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

TEST(ConvEngineParityTest, StrideTwoAndWidePaddingGradients) {
  // Strides that zero-dilate dy for dX, in one axis or all three;
  // padding wider than kernel - 1 (the dy border is then empty on that
  // axis and some dy never reaches dx); odd extents that leave input
  // rows no output reads.
  struct Case {
    std::array<int64_t, 3> kernel, stride, padding;
    Shape in;
  };
  const Case cases[] = {
      {{3, 3, 3}, {2, 2, 2}, {1, 1, 1}, Shape{2, 3, 7, 9, 8}},
      {{2, 3, 2}, {2, 2, 1}, {0, 2, 1}, Shape{2, 3, 6, 7, 9}},
      {{1, 1, 1}, {2, 2, 2}, {1, 1, 1}, Shape{2, 4, 5, 6, 7}},
      {{3, 1, 1}, {2, 1, 1}, {2, 0, 0}, Shape{3, 5, 7, 4, 5}},
      {{1, 3, 3}, {1, 2, 2}, {0, 1, 1}, Shape{2, 8, 3, 10, 10}},
      {{3, 3, 3}, {1, 1, 1}, {2, 2, 2}, Shape{1, 2, 4, 5, 6}},
  };
  for (const Case& c : cases) {
    Conv3dConfig cfg;
    cfg.in_channels = c.in.dim(1);
    cfg.out_channels = 5;
    cfg.kernel = c.kernel;
    cfg.stride = c.stride;
    cfg.padding = c.padding;
    const std::string what =
        "k=" + std::to_string(c.kernel[0]) + std::to_string(c.kernel[1]) +
        std::to_string(c.kernel[2]) + " s=" + std::to_string(c.stride[0]) +
        std::to_string(c.stride[1]) + std::to_string(c.stride[2]) +
        " p=" + std::to_string(c.padding[0]) + std::to_string(c.padding[1]) +
        std::to_string(c.padding[2]);
    CheckConvParity(cfg, c.in, what);
  }
}

// Every conv of a TinyR2Plus1d with the input shape it sees for a clip
// of 1×D×H×W.
struct ConvAt {
  nn::Conv3d* conv;
  std::array<int64_t, 4> in;  // C, D, H, W
};

std::array<int64_t, 4> OutShape(const nn::Conv3d& conv,
                                const std::array<int64_t, 4>& in) {
  const Conv3dConfig& c = conv.config();
  std::array<int64_t, 4> out{c.out_channels, 0, 0, 0};
  for (size_t a = 0; a < 3; ++a) {
    out[a + 1] = Conv3d::OutExtent(in[a + 1], c.kernel[a], c.stride[a],
                                   c.padding[a]);
  }
  return out;
}

std::vector<ConvAt> ModelConvs(models::TinyR2Plus1d& model,
                               std::array<int64_t, 4> clip) {
  std::vector<ConvAt> convs;
  const auto pair = [&](nn::Conv2Plus1d& p, std::array<int64_t, 4> x) {
    convs.push_back({&p.spatial(), x});
    x = OutShape(p.spatial(), x);
    convs.push_back({&p.temporal(), x});
    return OutShape(p.temporal(), x);
  };
  std::array<int64_t, 4> x = pair(model.stem(), clip);
  for (nn::ResidualBlock* block : {&model.stage1(), &model.stage2()}) {
    const std::array<int64_t, 4> in = x;
    x = pair(block->conv2(), pair(block->conv1(), in));
    if (block->shortcut_conv() != nullptr) {
      convs.push_back({block->shortcut_conv(), in});
    }
  }
  return convs;
}

TEST(ConvEngineParityTest, InPlaceForwardIsBitwiseExplicitIm2col) {
  // Both benchmark models: the prune job's 4/8/8 on 6x10x10 clips and
  // serve_dense's 8/16/32 on 8x16x16 clips; batch 8 and 1, without and
  // with a bias.
  struct ModelCase {
    models::TinyR2Plus1dConfig cfg;
    std::array<int64_t, 4> clip;
  };
  ModelCase cases[2];
  cases[0].cfg.stem_channels = 4;
  cases[0].cfg.stage1_channels = 8;
  cases[0].cfg.stage2_channels = 8;
  cases[0].clip = {1, 6, 10, 10};
  cases[1].clip = {1, 8, 16, 16};
  int checked = 0;
  for (ModelCase& mc : cases) {
    Rng rng(13);
    models::TinyR2Plus1d model(mc.cfg, rng);
    for (const ConvAt& at : ModelConvs(model, mc.clip)) {
      const Conv3dConfig& c = at.conv->config();
      const std::array<int64_t, 4> out = OutShape(*at.conv, at.in);
      for (int64_t batch : {8, 1}) {
        kernels::Conv3dGeom g;
        g.batch = batch;
        g.in_c = at.in[0];
        g.out_c = c.out_channels;
        g.in_d = at.in[1];
        g.in_h = at.in[2];
        g.in_w = at.in[3];
        g.k_d = c.kernel[0];
        g.k_h = c.kernel[1];
        g.k_w = c.kernel[2];
        g.s_d = c.stride[0];
        g.s_h = c.stride[1];
        g.s_w = c.stride[2];
        g.p_d = c.padding[0];
        g.p_h = c.padding[1];
        g.p_w = c.padding[2];
        g.out_d = out[1];
        g.out_h = out[2];
        g.out_w = out[3];
        TensorF x(Shape{batch, at.in[0], at.in[1], at.in[2], at.in[3]});
        FillUniform(x, rng, -1.0f, 1.0f);
        TensorF bias(Shape{g.out_c});
        FillUniform(bias, rng, -1.0f, 1.0f);
        const float* w = at.conv->weight().value.data();
        for (bool with_bias : {false, true}) {
          const float* b = with_bias ? bias.data() : nullptr;
          std::vector<float> ref(
              static_cast<size_t>(batch * g.out_sample_size()));
          std::vector<float> got(ref.size());
          testing::ConvForwardReference(g, x.data(), w, b, ref.data());
          kernels::Conv3dForwardGemm(g, x.data(), w, b, got.data());
          ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                ref.size() * sizeof(float)),
                    0)
              << at.conv->name() << " batch " << batch
              << (with_bias ? " bias" : "");
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * 12 * 2 * 2);  // 12 convs per model
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
