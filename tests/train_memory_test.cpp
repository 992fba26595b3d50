// The training memory contract (nn/module.h): Backward consumes the
// caches of the last Forward(train=true), so training and evaluation
// leave no tensor storage behind, a second Backward throws, and modules
// that keep or rewrite their input take it over by move instead of
// copying it. Storage is counted with LiveStorageBytes
// (tensor/storage.h).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/synthetic_video.h"
#include "models/tiny_c3d.h"
#include "models/tiny_r2plus1d.h"
#include "nn/activations.h"
#include "nn/batchnorm3d.h"
#include "nn/conv3d.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/pool3d.h"
#include "nn/r2plus1d_block.h"
#include "nn/trainer.h"
#include "tensor/init.h"
#include "tensor/storage.h"

namespace hwp3d {
namespace {

std::vector<nn::Batch> Batches(int clips, int frames, int size, Rng& rng) {
  data::SyntheticVideoConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.frames = frames;
  dcfg.height = size;
  dcfg.width = size;
  return data::SyntheticVideoDataset(dcfg).MakeBatches(clips, 4, rng);
}

// TrainEpoch and Evaluate leave live tensor storage where it was: the
// model keeps its parameters, gradients and BN statistics, and nothing
// of the batches it ran.
void ExpectEpochsLeaveNothingLive(nn::Module& model,
                                  const std::vector<nn::Batch>& batches) {
  nn::Sgd opt(model.Params(),
              {.lr = 0.01f, .momentum = 0.9f, .weight_decay = 0.0f});
  for (int epoch = 0; epoch < 2; ++epoch) {
    const size_t before = LiveStorageBytes();
    nn::TrainEpoch(model, opt, batches, {});
    EXPECT_EQ(LiveStorageBytes(), before) << "after TrainEpoch " << epoch;
    nn::Evaluate(model, batches);
    EXPECT_EQ(LiveStorageBytes(), before) << "after Evaluate " << epoch;
  }
}

TEST(TrainMemoryTest, TinyR2Plus1dEpochLeavesNothingLive) {
  Rng rng(1);
  const std::vector<nn::Batch> batches = Batches(12, 6, 10, rng);
  models::TinyR2Plus1dConfig cfg;
  cfg.num_classes = 4;
  cfg.stem_channels = 4;
  cfg.stage1_channels = 8;
  cfg.stage2_channels = 8;
  models::TinyR2Plus1d model(cfg, rng);
  ExpectEpochsLeaveNothingLive(model, batches);
}

TEST(TrainMemoryTest, TinyC3dEpochLeavesNothingLive) {
  Rng rng(2);
  const std::vector<nn::Batch> batches = Batches(12, 4, 8, rng);
  models::TinyC3dConfig cfg;
  cfg.num_classes = 4;
  cfg.conv1_channels = 4;
  cfg.conv2_channels = 6;
  cfg.conv3_channels = 8;
  models::TinyC3d model(cfg, rng);
  ExpectEpochsLeaveNothingLive(model, batches);
}

// One batch of the dense serving model (8/16/32, 8 clips of 8x16x16),
// as the serving set-up's BN-adaptation epoch runs it: its live tensors
// (sign masks included) peak at no more than 26 MiB above what was live
// before. When every module kept its caches until its next Forward and
// BatchNorm3d copied its input, that peak was 30.4 MiB of tensors plus
// 2.2 MiB of masks.
TEST(TrainMemoryTest, DenseAdaptationBatchPeak) {
  Rng rng(3);
  data::SyntheticVideoConfig dcfg;
  dcfg.frames = 8;
  dcfg.height = 16;
  dcfg.width = 16;
  const std::vector<nn::Batch> adapt =
      data::SyntheticVideoDataset(dcfg).MakeBatches(8, 8, rng);
  models::TinyR2Plus1d model(models::TinyR2Plus1dConfig{}, rng);
  nn::Sgd opt(model.Params(),
              {.lr = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f});
  const size_t before = LiveStorageBytes();
  ResetPeakLiveStorageBytes();
  nn::TrainEpoch(model, opt, adapt, {});
  EXPECT_LE(PeakLiveStorageBytes() - before, size_t{26} << 20);
  EXPECT_EQ(LiveStorageBytes(), before);
}

struct LayerCase {
  std::string name;
  std::function<std::unique_ptr<nn::Module>(Rng&)> make;
  Shape input;
};

std::vector<LayerCase> LayerCases() {
  return {
      {"Conv3d",
       [](Rng& rng) {
         nn::Conv3dConfig c;
         c.in_channels = 2;
         c.out_channels = 3;
         c.kernel = {3, 3, 3};
         c.padding = {1, 1, 1};
         return std::make_unique<nn::Conv3d>(c, rng);
       },
       Shape{2, 2, 3, 4, 4}},
      {"Conv3dUnpadded",
       [](Rng& rng) {
         nn::Conv3dConfig c;
         c.in_channels = 2;
         c.out_channels = 3;
         c.stride = {1, 2, 2};
         return std::make_unique<nn::Conv3d>(c, rng);
       },
       Shape{2, 2, 3, 4, 4}},
      {"BatchNorm3d",
       [](Rng&) { return std::make_unique<nn::BatchNorm3d>(2); },
       Shape{2, 2, 3, 4, 4}},
      {"ReLU", [](Rng&) { return std::make_unique<nn::ReLU>(); },
       Shape{2, 2, 3, 4, 4}},
      {"Linear",
       [](Rng& rng) { return std::make_unique<nn::Linear>(5, 3, rng); },
       Shape{4, 5}},
      {"MaxPool3d",
       [](Rng&) { return std::make_unique<nn::MaxPool3d>(nn::Pool3dConfig{}); },
       Shape{2, 2, 4, 4, 4}},
      {"ResidualBlock",
       [](Rng& rng) {
         nn::ResidualBlockConfig c;
         c.in_channels = 2;
         c.out_channels = 4;
         c.spatial_stride = 2;
         return std::make_unique<nn::ResidualBlock>(c, rng);
       },
       Shape{2, 2, 3, 4, 4}},
      {"IdentityResidualBlock",
       [](Rng& rng) {
         nn::ResidualBlockConfig c;
         c.in_channels = 2;
         c.out_channels = 2;
         return std::make_unique<nn::ResidualBlock>(c, rng);
       },
       Shape{2, 2, 3, 4, 4}},
  };
}

// Backward consumes what Forward(train=true) kept: a Backward with no
// Forward(train=true) since the last one throws, through either pair of
// overloads (const, or by move), and a fresh Forward(train=true) makes
// Backward valid again.
TEST(TrainMemoryTest, SecondBackwardWithoutForwardThrows) {
  for (const LayerCase& lc : LayerCases()) {
    SCOPED_TRACE(lc.name);
    Rng rng(4);
    std::unique_ptr<nn::Module> m = lc.make(rng);
    TensorF x(lc.input);
    FillUniform(x, rng, -1.0f, 1.0f);
    EXPECT_THROW(m->Backward(TensorF(lc.input)), Error) << "before Forward";
    const size_t before = LiveStorageBytes();
    for (bool by_move : {false, true}) {
      SCOPED_TRACE(by_move ? "rvalue overloads" : "const overloads");
      TensorF y = by_move ? m->Forward(TensorF(x), true) : m->Forward(x, true);
      const TensorF dy(y.shape(), 1.0f);
      y = TensorF();
      const TensorF dx = by_move ? m->Backward(TensorF(dy)) : m->Backward(dy);
      EXPECT_EQ(dx.shape(), x.shape());
      EXPECT_THROW(m->Backward(dy), Error);
      EXPECT_THROW(m->Backward(TensorF(dy)), Error);
    }
    // An eval Forward keeps nothing for a Backward either.
    m->Forward(x, false);
    EXPECT_THROW(m->Backward(TensorF(lc.input)), Error) << "after eval";
    EXPECT_EQ(LiveStorageBytes(), before);
  }
}

// ReLU handed its input (its dy) rewrites it in place, with the values
// of the const overloads.
TEST(TrainMemoryTest, ReLUByMoveRunsInPlace) {
  nn::ReLU relu;
  TensorF x(Shape{2, 3, 4, 5, 6});
  Rng rng(5);
  FillUniform(x, rng, -1.0f, 1.0f);
  TensorF dy(x.shape());
  FillUniform(dy, rng, -1.0f, 1.0f);
  const TensorF want_y = relu.Forward(x, true);
  const TensorF want_dx = relu.Backward(dy);

  const float* x_storage = x.data();
  const float* dy_storage = dy.data();
  const TensorF y = relu.Forward(std::move(x), true);
  const TensorF dx = relu.Backward(std::move(dy));
  EXPECT_EQ(y.data(), x_storage);
  EXPECT_EQ(dx.data(), dy_storage);
  for (int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_EQ(y[i], want_y[i]);
    ASSERT_EQ(dx[i], want_dx[i]);
  }
}

// BatchNorm3d handed its input keeps it: the forward adds only its
// output and the per-channel batch statistics, no copy of x.
TEST(TrainMemoryTest, BatchNormByMoveKeepsInputWithoutCopy) {
  const int64_t C = 4;
  nn::BatchNorm3d bn(C);
  TensorF x(Shape{2, C, 8, 16, 16});
  Rng rng(6);
  FillUniform(x, rng, -1.0f, 1.0f);
  const size_t x_bytes = static_cast<size_t>(x.numel()) * sizeof(float);
  const size_t before = LiveStorageBytes();
  const TensorF y = bn.Forward(std::move(x), true);
  EXPECT_EQ(LiveStorageBytes(), before + x_bytes + 2 * C * sizeof(float));
  bn.Backward(TensorF(y.shape(), 1.0f));
  // Backward freed x and the statistics; y, as large as x, is left.
  EXPECT_EQ(LiveStorageBytes(), before);
}

}  // namespace
}  // namespace hwp3d
