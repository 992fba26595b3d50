#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/admm.h"
#include "data/synthetic_video.h"
#include "fpga/model_compiler.h"
#include "models/tiny_r2plus1d.h"
#include "nn/activations.h"
#include "nn/batchnorm3d.h"
#include "nn/checkpoint.h"
#include "nn/conv3d.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/pool3d.h"
#include "nn/trainer.h"
#include "obs/trace.h"
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
  const fpga::CompiledModel compiled =
      fpga::CompiledModel::Compile(*model_, opts).value();

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
  const fpga::CompiledModel compiled =
      fpga::CompiledModel::Compile(*model_, opts).value();
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
  const fpga::CompiledModel compiled =
      fpga::CompiledModel::Compile(*model_, opts).value();

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
  const fpga::CompiledModel compiled =
      fpga::CompiledModel::Compile(*model_, opts).value();
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
  auto bad = fpga::CompiledModel::Compile(*model_, opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  opts.masks.clear();
  auto good = fpga::CompiledModel::Compile(*model_, opts);
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
  auto bad = fpga::CompiledModel::Compile(*model_, opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The message should steer the user back to re-pruning at (Tm, Tn).
  EXPECT_NE(bad.status().message().find("block"), std::string::npos)
      << bad.status().ToString();
}

TEST_F(ModelCompilerTest, RejectsBadClipRank) {
  fpga::CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  const fpga::CompiledModel compiled =
      fpga::CompiledModel::Compile(*model_, opts).value();
  EXPECT_THROW(compiled.Infer(TensorF(Shape{1, 6, 10})), ShapeError);
  EXPECT_THROW(compiled.MacsFor(Shape{1, 6, 10}), ShapeError);
}

TEST_F(ModelCompilerTest, MacsForRejectsWhatInferRejects) {
  fpga::CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  const fpga::CompiledModel compiled =
      fpga::CompiledModel::Compile(*model_, opts).value();
  // Two input channels where the stem takes one.
  EXPECT_THROW(compiled.Infer(TensorF(Shape{2, 6, 10, 10})), ShapeError);
  EXPECT_THROW(compiled.MacsFor(Shape{2, 6, 10, 10}), ShapeError);
  // No frames: the stem's output is empty.
  EXPECT_THROW(compiled.MacsFor(Shape{1, 0, 10, 10}), ShapeError);
}

// tests/data/tiny_r2plus1d.ckpt (R(2+1)D 2/4/4 channels, 4 classes),
// compiled at tiling (2, 2, 2, 5, 5) dense and with a fixed mask set and
// run on a fixed 6x10x10 clip. The logits, run stats and per-layer span
// order of both executors are pinned from an earlier build, whose
// compiler spelled the R(2+1)D topology out by hand.
class CompiledModelPinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    models::TinyR2Plus1dConfig cfg;
    cfg.num_classes = 4;
    cfg.stem_channels = 2;
    cfg.stage1_channels = 4;
    cfg.stage2_channels = 4;
    Rng rng(31);
    model_ = std::make_unique<models::TinyR2Plus1d>(cfg, rng);
    const Status s = nn::LoadCheckpoint(
        std::string(HWP_TEST_DATA_DIR) + "/tiny_r2plus1d.ckpt", *model_);
    ASSERT_TRUE(s.ok()) << s.ToString();
    Rng clip_rng(5);
    clip_ = TensorF(Shape{1, 6, 10, 10});
    FillUniform(clip_, clip_rng, -1.0f, 1.0f);
  }

  // Block (bm, bn) of the i-th prunable conv is on when bm + bn + i is
  // even.
  std::vector<core::BlockMask> FixedMasks(const fpga::Tiling& tiling) {
    std::vector<core::BlockMask> masks;
    for (nn::Conv3d* c : model_->PrunableConvs()) {
      const int64_t i = static_cast<int64_t>(masks.size());
      core::BlockMask m =
          core::BlockPartition(c->weight().value.shape(), tiling.block())
              .FullMask();
      for (int64_t bm = 0; bm < m.blocks_m; ++bm) {
        for (int64_t bn = 0; bn < m.blocks_n; ++bn) {
          m.set(bm, bn, (bm + bn + i) % 2 == 0);
        }
      }
      masks.push_back(m);
    }
    return masks;
  }

  // Compiles with `masks` on both executors and checks each against the
  // pins.
  void CheckPinned(const std::vector<core::BlockMask>& masks,
                   const std::vector<float>& logits,
                   const fpga::CompiledRunStats& want) {
    const std::vector<std::string> layers = {
        "stem.spatial",          "stem.temporal",
        "stage1.shortcut",       "stage1.conv1.spatial",
        "stage1.conv1.temporal", "stage1.conv2.spatial",
        "stage1.conv2.temporal", "stage2.shortcut",
        "stage2.conv1.spatial",  "stage2.conv1.temporal",
        "stage2.conv2.spatial",  "stage2.conv2.temporal"};
    for (fpga::ExecMode mode :
         {fpga::ExecMode::kSimulate, fpga::ExecMode::kFast}) {
      const std::string prefix =
          mode == fpga::ExecMode::kFast ? "exec/" : "sim/";
      SCOPED_TRACE(prefix);
      fpga::CompiledModelOptions opts;
      opts.tiling = fpga::Tiling{2, 2, 2, 5, 5};
      opts.masks = masks;
      opts.executor = mode;
      auto compiled = fpga::CompiledModel::Compile(*model_, opts);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

      obs::Tracer& tracer = obs::Tracer::Get();
      tracer.Clear();
      tracer.SetEnabled(true);
      fpga::CompiledRunStats stats;
      const TensorF got = compiled->Infer(clip_, &stats);
      tracer.SetEnabled(false);
      std::vector<std::string> spans;
      for (const obs::TraceEvent& e : tracer.Snapshot()) {
        if (e.name.rfind(prefix, 0) == 0) {
          spans.push_back(e.name.substr(prefix.size()));
        }
      }
      tracer.Clear();

      ASSERT_EQ(got.numel(), static_cast<int64_t>(logits.size()));
      for (size_t k = 0; k < logits.size(); ++k) {
        const float g = got[static_cast<int64_t>(k)];
        EXPECT_EQ(std::memcmp(&g, &logits[k], sizeof(float)), 0)
            << "logit " << k << ": " << std::hexfloat << g << " vs "
            << logits[k];
      }
      EXPECT_EQ(stats.modeled_cycles, want.modeled_cycles);
      EXPECT_EQ(stats.blocks_loaded, want.blocks_loaded);
      EXPECT_EQ(stats.blocks_skipped, want.blocks_skipped);
      EXPECT_EQ(stats.macs_executed, want.macs_executed);
      EXPECT_EQ(compiled->MacsFor(clip_.shape()), want.macs_executed);
      EXPECT_EQ(spans, layers);
    }
  }

  std::unique_ptr<models::TinyR2Plus1d> model_;
  TensorF clip_;
};

TEST_F(CompiledModelPinTest, DenseCheckpointIsPinned) {
  CheckPinned({},
              {-0x1.32c6dap-4f, 0x1.9e4328p-3f, -0x1.b4c262p+0f,
               0x1.3fccacp+1f},
              {.modeled_cycles = 217001,
               .blocks_loaded = 530,
               .blocks_skipped = 0,
               .macs_executed = 498300});
}

TEST_F(CompiledModelPinTest, MaskedCheckpointIsPinned) {
  CheckPinned(FixedMasks(fpga::Tiling{2, 2, 2, 5, 5}),
              {0x1.e806e2p-2f, 0x1.6a1502p-3f, -0x1.3b03ep+0f,
               0x1.98f346p+0f},
              {.modeled_cycles = 140138,
               .blocks_loaded = 293,
               .blocks_skipped = 237,
               .macs_executed = 266550});
}

// Appends modules to one chain, tracking its channel count, so each
// case below differs from a lowerable chain in one module.
class ChainBuilder {
 public:
  ChainBuilder& Conv(const std::string& name) {
    nn::Conv3dConfig cfg;
    cfg.in_channels = channels_;
    cfg.out_channels = 4;
    cfg.kernel = {3, 3, 3};
    cfg.padding = {1, 1, 1};
    convs_.push_back(chain_.Emplace<nn::Conv3d>(cfg, rng_, name));
    channels_ = 4;
    return *this;
  }
  ChainBuilder& Bn(const std::string& name) { return Bn(name, channels_); }
  ChainBuilder& Bn(const std::string& name, int64_t channels) {
    chain_.Emplace<nn::BatchNorm3d>(channels, name);
    return *this;
  }
  ChainBuilder& Relu(const std::string& name) {
    chain_.Emplace<nn::ReLU>(name);
    return *this;
  }
  ChainBuilder& MaxPool(const std::string& name) {
    chain_.Emplace<nn::MaxPool3d>(nn::Pool3dConfig{{1, 2, 2}, {1, 2, 2}},
                                  name);
    return *this;
  }
  ChainBuilder& AvgPool(const std::string& name) {
    chain_.Emplace<nn::AvgPool3d>(nn::Pool3dConfig{{1, 2, 2}, {1, 2, 2}},
                                  name);
    return *this;
  }
  ChainBuilder& Gap(const std::string& name) {
    chain_.Emplace<nn::GlobalAvgPool3d>(name);
    return *this;
  }
  ChainBuilder& Fc(const std::string& name) {
    chain_.Emplace<nn::Linear>(channels_, 3, rng_, name);
    return *this;
  }

  nn::Sequential& chain() { return chain_; }
  const std::vector<nn::Conv3d*>& convs() const { return convs_; }

  // Compile's status on this chain, its convs prunable.
  Status CompileStatus() {
    return fpga::CompiledModel::Compile(chain_, convs_, {}).status();
  }

 private:
  Rng rng_{2};
  nn::Sequential chain_{"chain"};
  int64_t channels_ = 1;
  std::vector<nn::Conv3d*> convs_;
};

void ExpectRejected(const Status& s, const std::string& names) {
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("'" + names + "'"), std::string::npos)
      << s.ToString();
}

TEST(ModelCompilerChainTest, LowersConvBnReluPoolChainLikeFloat) {
  // c1's bias folds into its BN's shift, c2's (no BN) into a shift with
  // a scale of 1; p1 is a pool op.
  ChainBuilder b;
  b.Conv("c1").Bn("bn1").Relu("r1").MaxPool("p1").Conv("c2").Relu("r2")
      .Gap("gap").Fc("fc");
  Rng rng(4);
  for (nn::Param* p : b.chain().Params()) {
    if (p->name.find("bias") != std::string::npos ||
        p->name.find("bn1") != std::string::npos) {
      FillUniform(p->value, rng, 0.5f, 1.0f);
    }
  }
  auto compiled = fpga::CompiledModel::Compile(b.chain(), b.convs(), {});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  TensorF clip(Shape{1, 4, 6, 6});
  FillUniform(clip, rng, -1.0f, 1.0f);
  const TensorF want =
      b.chain().Forward(clip.Reshaped(Shape{1, 1, 4, 6, 6}), false);
  const TensorF got = compiled->Infer(clip);
  ASSERT_EQ(got.numel(), want.numel());
  for (int64_t k = 0; k < got.numel(); ++k) {
    EXPECT_NEAR(got[k], want[k], 0.15f) << "logit " << k;
  }
}

TEST_F(ModelCompilerTest, RejectsUnsupportedChain) {
  {
    SCOPED_TRACE("AvgPool3d in the trunk");
    ChainBuilder b;
    b.Conv("c1").Relu("r1").AvgPool("avg").Gap("gap").Fc("fc");
    ExpectRejected(b.CompileStatus(), "avg");
  }
  {
    SCOPED_TRACE("BatchNorm3d with no conv before it");
    ChainBuilder b;
    b.Conv("c1").Relu("r1").Bn("bn").Gap("gap").Fc("fc");
    ExpectRejected(b.CompileStatus(), "bn");
  }
  {
    SCOPED_TRACE("BatchNorm3d first");
    ChainBuilder b;
    b.Bn("bn").Conv("c1").Gap("gap").Fc("fc");
    ExpectRejected(b.CompileStatus(), "bn");
  }
  for (int64_t width : {3, 5}) {
    SCOPED_TRACE("BatchNorm3d of another width than its conv (with a bias)");
    ChainBuilder b;
    b.Conv("c1").Bn("bn", width).Relu("r1").Gap("gap").Fc("fc");
    ExpectRejected(b.CompileStatus(), "bn");
  }
  {
    SCOPED_TRACE("Linear that is not last");
    ChainBuilder b;
    b.Conv("c1").Relu("r1").Gap("gap1").Fc("fc1").Gap("gap2").Fc("fc2");
    ExpectRejected(b.CompileStatus(), "gap1");
  }
  {
    SCOPED_TRACE("no GlobalAvgPool3d + Linear head");
    ChainBuilder b;
    b.Conv("c1").Relu("r1");
    ExpectRejected(b.CompileStatus(), "chain");
  }
  {
    SCOPED_TRACE("Linear without GlobalAvgPool3d");
    ChainBuilder b;
    b.Conv("c1").Relu("r1").Fc("fc");
    ExpectRejected(b.CompileStatus(), "chain");
  }
  {
    SCOPED_TRACE("pool before the first conv");
    ChainBuilder b;
    b.MaxPool("p0").Conv("c1").Gap("gap").Fc("fc");
    ExpectRejected(b.CompileStatus(), "p0");
  }
  {
    SCOPED_TRACE("a prunable conv the walk never meets");
    ChainBuilder b, other;
    b.Conv("c1").Relu("r1").Gap("gap").Fc("fc");
    other.Conv("foreign");
    std::vector<nn::Conv3d*> prunable = {b.convs()[0], other.convs()[0]};
    ExpectRejected(
        fpga::CompiledModel::Compile(b.chain(), prunable, {}).status(),
        "foreign");
    // The same with a mask per listed conv.
    fpga::CompiledModelOptions opts;
    for (nn::Conv3d* c : prunable) {
      opts.masks.push_back(
          core::BlockPartition(c->weight().value.shape(), opts.tiling.block())
              .FullMask());
    }
    ExpectRejected(
        fpga::CompiledModel::Compile(b.chain(), prunable, opts).status(),
        "foreign");
  }
}

}  // namespace
}  // namespace hwp3d
