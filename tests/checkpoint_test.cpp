#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/status.h"
#include "models/tiny_c3d.h"
#include "models/tiny_r2plus1d.h"
#include "nn/batchnorm3d.h"
#include "nn/checkpoint.h"
#include "nn/linear.h"
#include "tensor/init.h"
#include "tensor/tensor_ops.h"

namespace hwp3d {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CheckpointTest, RoundTripLinearModel) {
  Rng rng(1);
  nn::Sequential model;
  model.Emplace<nn::Linear>(4, 8, rng, "fc1");
  model.Emplace<nn::Linear>(8, 2, rng, "fc2");
  const std::string path = TempPath("ckpt_linear.bin");
  ASSERT_TRUE(nn::SaveCheckpoint(path, model).ok());

  // A same-seed clone has identical structure but will be clobbered.
  Rng rng2(99);
  nn::Sequential other;
  other.Emplace<nn::Linear>(4, 8, rng2, "fc1");
  other.Emplace<nn::Linear>(8, 2, rng2, "fc2");
  ASSERT_TRUE(nn::LoadCheckpoint(path, other).ok());

  auto a = model.Params();
  auto b = other.Params();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(AllClose(a[i]->value, b[i]->value, 0.0f, 0.0f))
        << a[i]->name;
  }
}

TEST(CheckpointTest, RoundTripTinyR2Plus1dPreservesPrunedZeros) {
  Rng rng(2);
  models::TinyR2Plus1dConfig cfg;
  cfg.stem_channels = 4;
  cfg.stage1_channels = 8;
  cfg.stage2_channels = 8;
  models::TinyR2Plus1d model(cfg, rng);
  // Zero a block by hand to mimic a pruned model.
  nn::Conv3d* conv = model.PrunableConvs()[0];
  for (int64_t i = 0; i < conv->weight().value.numel() / 2; ++i) {
    conv->weight().value[i] = 0.0f;
  }
  const double sparsity = Sparsity(conv->weight().value);

  const std::string path = TempPath("ckpt_tiny.bin");
  ASSERT_TRUE(nn::SaveCheckpoint(path, model).ok());

  Rng rng2(77);
  models::TinyR2Plus1d loaded(cfg, rng2);
  ASSERT_TRUE(nn::LoadCheckpoint(path, loaded).ok());
  EXPECT_NEAR(Sparsity(loaded.PrunableConvs()[0]->weight().value), sparsity,
              1e-12);
}

TEST(CheckpointTest, RoundTripRestoresBatchNormRunningStats) {
  // v2 checkpoints carry the non-trainable buffers (BN running mean /
  // var), which BN folding during compilation depends on.
  Rng rng(6);
  models::TinyR2Plus1dConfig cfg;
  cfg.stem_channels = 4;
  cfg.stage1_channels = 8;
  cfg.stage2_channels = 8;
  models::TinyR2Plus1d model(cfg, rng);
  auto buffers = model.Buffers();
  ASSERT_FALSE(buffers.empty());
  // Perturb every buffer so the defaults cannot mask a failed load.
  for (auto& buf : buffers) {
    for (int64_t i = 0; i < buf.tensor->numel(); ++i) {
      (*buf.tensor)[i] = 0.25f + 0.5f * static_cast<float>(i % 3);
    }
  }

  const std::string path = TempPath("ckpt_buffers.bin");
  ASSERT_TRUE(nn::SaveCheckpoint(path, model).ok());

  Rng rng2(13);
  models::TinyR2Plus1d loaded(cfg, rng2);
  ASSERT_TRUE(nn::LoadCheckpoint(path, loaded).ok());
  auto loaded_buffers = loaded.Buffers();
  ASSERT_EQ(buffers.size(), loaded_buffers.size());
  for (size_t i = 0; i < buffers.size(); ++i) {
    EXPECT_EQ(buffers[i].name, loaded_buffers[i].name);
    EXPECT_TRUE(AllClose(*buffers[i].tensor, *loaded_buffers[i].tensor,
                         0.0f, 0.0f))
        << buffers[i].name;
  }
}

TEST(CheckpointTest, RejectsStructureMismatch) {
  Rng rng(3);
  nn::Sequential model;
  model.Emplace<nn::Linear>(4, 8, rng, "fc1");
  const std::string path = TempPath("ckpt_mismatch.bin");
  ASSERT_TRUE(nn::SaveCheckpoint(path, model).ok());

  nn::Sequential bigger;
  bigger.Emplace<nn::Linear>(4, 8, rng, "fc1");
  bigger.Emplace<nn::Linear>(8, 2, rng, "fc2");
  Status s = nn::LoadCheckpoint(path, bigger);  // param count
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("params"), std::string::npos) << s.ToString();

  nn::Sequential renamed;
  renamed.Emplace<nn::Linear>(4, 8, rng, "other_name");
  s = nn::LoadCheckpoint(path, renamed);  // name mismatch
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  nn::Sequential reshaped;
  reshaped.Emplace<nn::Linear>(8, 4, rng, "fc1");
  s = nn::LoadCheckpoint(path, reshaped);  // shape
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, RejectsGarbageFile) {
  const std::string path = TempPath("ckpt_garbage.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a checkpoint";
  }
  Rng rng(4);
  nn::Sequential model;
  model.Emplace<nn::Linear>(2, 2, rng, "fc");
  EXPECT_EQ(nn::LoadCheckpoint(path, model).code(), StatusCode::kDataLoss);
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  Rng rng(5);
  nn::Sequential model;
  model.Emplace<nn::Linear>(2, 2, rng, "fc");
  const Status s = nn::LoadCheckpoint("/no/such/file.bin", model);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("/no/such/file.bin"), std::string::npos);
}

TEST(CheckpointTest, SaveToUnwritablePathFails) {
  Rng rng(8);
  nn::Sequential model;
  model.Emplace<nn::Linear>(2, 2, rng, "fc");
  EXPECT_FALSE(nn::SaveCheckpoint("/no/such/dir/ckpt.bin", model).ok());
}

TEST(CheckpointTest, InjectedIoFaultsSurfaceAsUnavailable) {
  // The ckpt.save / ckpt.load fault points fail checkpoint I/O before
  // touching the filesystem, with a retryable status — callers can
  // exercise their recovery paths deterministically.
  Rng rng(9);
  nn::Sequential model;
  model.Emplace<nn::Linear>(2, 2, rng, "fc");
  const std::string path = TempPath("ckpt_fault.bin");

  FaultInjector::Get().Reset();
  FaultInjector::Get().Arm("ckpt.save", 1);
  Status s = nn::SaveCheckpoint(path, model);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_NE(s.message().find("injected"), std::string::npos);
  // The fault fired once; the retry goes through and writes the file.
  ASSERT_TRUE(nn::SaveCheckpoint(path, model).ok());

  FaultInjector::Get().Arm("ckpt.load", 1);
  s = nn::LoadCheckpoint(path, model);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(nn::LoadCheckpoint(path, model).ok());
  FaultInjector::Get().Reset();
}

// Every param and buffer name of the models, in Params() / Buffers()
// order, as recorded before the models were composed as nn::Sequential
// chains. A checkpoint matches them by name and position, so a change
// here breaks every saved model.
const std::vector<std::string> kR2Plus1dParams = {
    "stem.spatial.weight",
    "stem.bn_mid.gamma",
    "stem.bn_mid.beta",
    "stem.temporal.weight",
    "stem_bn.gamma",
    "stem_bn.beta",
    "stage1.conv1.spatial.weight",
    "stage1.conv1.bn_mid.gamma",
    "stage1.conv1.bn_mid.beta",
    "stage1.conv1.temporal.weight",
    "stage1.bn1.gamma",
    "stage1.bn1.beta",
    "stage1.conv2.spatial.weight",
    "stage1.conv2.bn_mid.gamma",
    "stage1.conv2.bn_mid.beta",
    "stage1.conv2.temporal.weight",
    "stage1.bn2.gamma",
    "stage1.bn2.beta",
    "stage1.shortcut.weight",
    "stage1.shortcut_bn.gamma",
    "stage1.shortcut_bn.beta",
    "stage2.conv1.spatial.weight",
    "stage2.conv1.bn_mid.gamma",
    "stage2.conv1.bn_mid.beta",
    "stage2.conv1.temporal.weight",
    "stage2.bn1.gamma",
    "stage2.bn1.beta",
    "stage2.conv2.spatial.weight",
    "stage2.conv2.bn_mid.gamma",
    "stage2.conv2.bn_mid.beta",
    "stage2.conv2.temporal.weight",
    "stage2.bn2.gamma",
    "stage2.bn2.beta",
    "stage2.shortcut.weight",
    "stage2.shortcut_bn.gamma",
    "stage2.shortcut_bn.beta",
    "fc.weight",
    "fc.bias",
};
const std::vector<std::string> kR2Plus1dBuffers = {
    "stem.bn_mid.running_mean",
    "stem.bn_mid.running_var",
    "stem_bn.running_mean",
    "stem_bn.running_var",
    "stage1.conv1.bn_mid.running_mean",
    "stage1.conv1.bn_mid.running_var",
    "stage1.bn1.running_mean",
    "stage1.bn1.running_var",
    "stage1.conv2.bn_mid.running_mean",
    "stage1.conv2.bn_mid.running_var",
    "stage1.bn2.running_mean",
    "stage1.bn2.running_var",
    "stage1.shortcut_bn.running_mean",
    "stage1.shortcut_bn.running_var",
    "stage2.conv1.bn_mid.running_mean",
    "stage2.conv1.bn_mid.running_var",
    "stage2.bn1.running_mean",
    "stage2.bn1.running_var",
    "stage2.conv2.bn_mid.running_mean",
    "stage2.conv2.bn_mid.running_var",
    "stage2.bn2.running_mean",
    "stage2.bn2.running_var",
    "stage2.shortcut_bn.running_mean",
    "stage2.shortcut_bn.running_var",
};
const std::vector<std::string> kC3dParams = {
    "c3d_conv1.weight",
    "c3d_conv1_bn.gamma",
    "c3d_conv1_bn.beta",
    "c3d_conv2.weight",
    "c3d_conv2_bn.gamma",
    "c3d_conv2_bn.beta",
    "c3d_conv3.weight",
    "c3d_conv3_bn.gamma",
    "c3d_conv3_bn.beta",
    "c3d_fc.weight",
    "c3d_fc.bias",
};
const std::vector<std::string> kC3dBuffers = {
    "c3d_conv1_bn.running_mean",
    "c3d_conv1_bn.running_var",
    "c3d_conv2_bn.running_mean",
    "c3d_conv2_bn.running_var",
    "c3d_conv3_bn.running_mean",
    "c3d_conv3_bn.running_var",
};
const std::vector<std::string> kC3dNoBnParams = {
    "c3d_conv1.weight",
    "c3d_conv1.bias",
    "c3d_conv2.weight",
    "c3d_conv2.bias",
    "c3d_conv3.weight",
    "c3d_conv3.bias",
    "c3d_fc.weight",
    "c3d_fc.bias",
};

std::vector<std::string> ParamNames(nn::Module& model) {
  std::vector<std::string> out;
  for (nn::Param* p : model.Params()) out.push_back(p->name);
  return out;
}

std::vector<std::string> BufferNames(nn::Module& model) {
  std::vector<std::string> out;
  for (const nn::NamedBuffer& b : model.Buffers()) out.push_back(b.name);
  return out;
}

TEST(CheckpointTest, TinyR2Plus1dNamesAndOrderArePinned) {
  Rng rng(1);
  models::TinyR2Plus1d model({}, rng);
  EXPECT_EQ(ParamNames(model), kR2Plus1dParams);
  EXPECT_EQ(BufferNames(model), kR2Plus1dBuffers);
}

TEST(CheckpointTest, TinyC3dNamesAndOrderArePinned) {
  Rng rng(1);
  models::TinyC3d model({}, rng);
  EXPECT_EQ(ParamNames(model), kC3dParams);
  EXPECT_EQ(BufferNames(model), kC3dBuffers);

  models::TinyC3dConfig no_bn;
  no_bn.batch_norm = false;
  models::TinyC3d plain(no_bn, rng);
  EXPECT_EQ(ParamNames(plain), kC3dNoBnParams);
  EXPECT_TRUE(BufferNames(plain).empty());
}

// tests/data holds one checkpoint per model, each saved after one
// training epoch by an earlier build (R(2+1)D 2/4/4 and C3D 4/6/8
// channels, 4 classes). Loading one into a model of the current build
// must restore it bit for bit: eval logits of a fixed batch of two
// 6x10x10 clips equal the logits the saving build computed.
void ExpectLogits(nn::Module& model, const std::vector<float>& recorded) {
  Rng rng(5);
  TensorF x(Shape{2, 1, 6, 10, 10});
  FillUniform(x, rng, -1.0f, 1.0f);
  const TensorF y = model.Forward(x, /*train=*/false);
  ASSERT_EQ(y.numel(), static_cast<int64_t>(recorded.size()));
  for (size_t i = 0; i < recorded.size(); ++i) {
    const float got = y[static_cast<int64_t>(i)];
    EXPECT_EQ(std::memcmp(&got, &recorded[i], sizeof(float)), 0)
        << "logit " << i << ": " << std::hexfloat << got << " vs "
        << recorded[i];
  }
}

TEST(CheckpointTest, LoadsTinyR2Plus1dSavedByEarlierBuild) {
  models::TinyR2Plus1dConfig cfg;
  cfg.num_classes = 4;
  cfg.stem_channels = 2;
  cfg.stage1_channels = 4;
  cfg.stage2_channels = 4;
  Rng rng(31);
  models::TinyR2Plus1d model(cfg, rng);
  const Status s = nn::LoadCheckpoint(
      std::string(HWP_TEST_DATA_DIR) + "/tiny_r2plus1d.ckpt", model);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectLogits(model, {-0x1.4fd8e4p-4f, 0x1.9eb0c2p-3f, -0x1.b5a9dcp+0f,
                       0x1.40c716p+1f, 0x1.b9c8e8p-7f, 0x1.836a68p-3f,
                       -0x1.8c97dp+0f, 0x1.31c31ap+1f});
}

TEST(CheckpointTest, LoadsTinyC3dSavedByEarlierBuild) {
  models::TinyC3dConfig cfg;
  cfg.num_classes = 4;
  cfg.conv1_channels = 4;
  cfg.conv2_channels = 6;
  cfg.conv3_channels = 8;
  Rng rng(32);
  models::TinyC3d model(cfg, rng);
  const Status s = nn::LoadCheckpoint(
      std::string(HWP_TEST_DATA_DIR) + "/tiny_c3d.ckpt", model);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectLogits(model, {0x1.c3e69cp+0f, 0x1.3c32cp+0f, 0x1.6946acp-4f,
                       0x1.2a0842p+0f, 0x1.b9be78p+0f, 0x1.39a478p+0f,
                       0x1.edd1ep-4f, 0x1.72c70ap+0f});
}

}  // namespace
}  // namespace hwp3d
