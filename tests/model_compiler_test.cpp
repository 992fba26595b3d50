#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/admm.h"
#include "data/synthetic_video.h"
#include "fpga/model_compiler.h"
#include "models/tiny_r2plus1d.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "tensor/init.h"

namespace hwp3d {
namespace {

class ModelCompilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::Warning);
    models::TinyR2Plus1dConfig mcfg;
    mcfg.num_classes = 4;
    mcfg.stem_channels = 4;
    mcfg.stage1_channels = 8;
    mcfg.stage2_channels = 8;
    model_ = std::make_unique<models::TinyR2Plus1d>(mcfg, rng_);
    // Adopt sane BN statistics by running a couple of training batches.
    data::SyntheticVideoConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.frames = 6;
    dcfg.height = 10;
    dcfg.width = 10;
    dataset_ = std::make_unique<data::SyntheticVideoDataset>(dcfg);
    auto batches = dataset_->MakeBatches(16, 8, rng_);
    nn::Sgd opt(model_->Params(),
                {.lr = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f});
    nn::TrainEpoch(*model_, opt, batches, {});
  }
  void TearDown() override { SetLogLevel(LogLevel::Info); }

  TensorF MakeClip() {
    Rng rng(3);
    return dataset_->MakeSample(1, rng).clip;
  }

  Rng rng_{11};
  std::unique_ptr<models::TinyR2Plus1d> model_;
  std::unique_ptr<data::SyntheticVideoDataset> dataset_;
};

TEST_F(ModelCompilerTest, DenseCompilationTracksFloatModel) {
  fpga::CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  const fpga::CompiledTinyR2Plus1d compiled =
      fpga::CompiledTinyR2Plus1d::Compile(*model_, opts).value();

  const TensorF clip = MakeClip();
  const TensorF accel_logits = compiled.Infer(clip);

  TensorF batch(Shape{1, clip.dim(0), clip.dim(1), clip.dim(2), clip.dim(3)});
  for (int64_t i = 0; i < clip.numel(); ++i) batch[i] = clip[i];
  const TensorF float_logits = model_->Forward(batch, false);

  ASSERT_EQ(accel_logits.numel(), float_logits.numel());
  for (int64_t k = 0; k < accel_logits.numel(); ++k) {
    EXPECT_NEAR(accel_logits[k], float_logits[k], 0.15f) << "logit " << k;
  }
}

TEST_F(ModelCompilerTest, StatsAccumulateAcrossLayers) {
  fpga::CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  const fpga::CompiledTinyR2Plus1d compiled =
      fpga::CompiledTinyR2Plus1d::Compile(*model_, opts).value();
  fpga::CompiledRunStats stats;
  compiled.Infer(MakeClip(), &stats);
  EXPECT_GT(stats.modeled_cycles, 0);
  EXPECT_GT(stats.blocks_loaded, 0);
  EXPECT_EQ(stats.blocks_skipped, 0);  // dense compilation
  EXPECT_GT(stats.macs_executed, 0);
}

TEST_F(ModelCompilerTest, MasksSkipBlocksAndMatchMaskedFloatModel) {
  // Hard-prune with the real pruner, then compile with its masks.
  std::vector<core::PruneLayerSpec> specs;
  for (nn::Conv3d* c : model_->PrunableConvs()) {
    specs.push_back({&c->weight(), {4, 4}, 0.5, c->name()});
  }
  core::AdmmPruner pruner(specs, core::AdmmConfig{});
  pruner.StartRound(0);
  pruner.HardPrune();

  fpga::CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  opts.masks = pruner.masks();
  const fpga::CompiledTinyR2Plus1d compiled =
      fpga::CompiledTinyR2Plus1d::Compile(*model_, opts).value();

  const TensorF clip = MakeClip();
  fpga::CompiledRunStats stats;
  const TensorF accel_logits = compiled.Infer(clip, &stats);
  EXPECT_GT(stats.blocks_skipped, 0);

  // Since the weights are already hard-pruned, the float model with the
  // same weights is the reference.
  TensorF batch(Shape{1, clip.dim(0), clip.dim(1), clip.dim(2), clip.dim(3)});
  for (int64_t i = 0; i < clip.numel(); ++i) batch[i] = clip[i];
  const TensorF float_logits = model_->Forward(batch, false);
  for (int64_t k = 0; k < accel_logits.numel(); ++k) {
    EXPECT_NEAR(accel_logits[k], float_logits[k], 0.15f) << "logit " << k;
  }
}

TEST_F(ModelCompilerTest, ClassifyReturnsArgmax) {
  fpga::CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  const fpga::CompiledTinyR2Plus1d compiled =
      fpga::CompiledTinyR2Plus1d::Compile(*model_, opts).value();
  const TensorF clip = MakeClip();
  const TensorF logits = compiled.Infer(clip);
  int expect = 0;
  for (int64_t k = 1; k < logits.numel(); ++k) {
    if (logits[k] > logits[expect]) expect = static_cast<int>(k);
  }
  EXPECT_EQ(compiled.Classify(clip), expect);
}

TEST_F(ModelCompilerTest, CompileReturnsStatusInsteadOfThrowing) {
  fpga::CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  opts.masks.resize(3);  // wrong count (8 prunable convs)
  auto bad = fpga::CompiledTinyR2Plus1d::Compile(*model_, opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  opts.masks.clear();
  auto good = fpga::CompiledTinyR2Plus1d::Compile(*model_, opts);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
}

TEST_F(ModelCompilerTest, CompileRejectsMismatchedMaskGrid) {
  // Masks built for an 8x8 block grid can't feed a (4, 4) tiling.
  std::vector<core::PruneLayerSpec> specs;
  for (nn::Conv3d* c : model_->PrunableConvs()) {
    specs.push_back({&c->weight(), {8, 8}, 0.5, c->name()});
  }
  core::AdmmPruner pruner(specs, core::AdmmConfig{});
  pruner.StartRound(0);
  pruner.HardPrune();

  fpga::CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  opts.masks = pruner.masks();
  auto bad = fpga::CompiledTinyR2Plus1d::Compile(*model_, opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The message should steer the user back to re-pruning at (Tm, Tn).
  EXPECT_NE(bad.status().message().find("block"), std::string::npos)
      << bad.status().ToString();
}

TEST_F(ModelCompilerTest, RejectsBadClipRank) {
  fpga::CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  const fpga::CompiledTinyR2Plus1d compiled =
      fpga::CompiledTinyR2Plus1d::Compile(*model_, opts).value();
  EXPECT_THROW(compiled.Infer(TensorF(Shape{1, 6, 10})), ShapeError);
  EXPECT_THROW(compiled.MacsFor(Shape{1, 6, 10}), ShapeError);
}

TEST_F(ModelCompilerTest, MacsForRejectsWhatInferRejects) {
  fpga::CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  const fpga::CompiledTinyR2Plus1d compiled =
      fpga::CompiledTinyR2Plus1d::Compile(*model_, opts).value();
  // Two input channels where the stem takes one.
  EXPECT_THROW(compiled.Infer(TensorF(Shape{2, 6, 10, 10})), ShapeError);
  EXPECT_THROW(compiled.MacsFor(Shape{2, 6, 10, 10}), ShapeError);
  // No frames: the stem's output is empty.
  EXPECT_THROW(compiled.MacsFor(Shape{1, 0, 10, 10}), ShapeError);
}

}  // namespace
}  // namespace hwp3d
