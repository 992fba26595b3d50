#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "common/rng.h"
#include "data/synthetic_video.h"
#include "kernels/sgemm.h"
#include "kernels/thread_pool.h"
#include "models/tiny_c3d.h"
#include "models/tiny_r2plus1d.h"
#include "nn/linear.h"
#include "nn/trainer.h"
#include "tensor/init.h"
#include "tensor/tensor_ops.h"

namespace hwp3d {
namespace {

// A linearly-separable 2-class toy problem on 2-D points.
std::vector<nn::Batch> ToyBatches(int batches, int bsz, Rng& rng) {
  std::vector<nn::Batch> out;
  for (int b = 0; b < batches; ++b) {
    nn::Batch batch;
    batch.clips = TensorF(Shape{bsz, 2});
    batch.labels.resize(static_cast<size_t>(bsz));
    for (int i = 0; i < bsz; ++i) {
      const int label = rng.Flip() ? 1 : 0;
      const float center = label == 0 ? -1.0f : 1.0f;
      batch.clips(i, 0) = center + static_cast<float>(rng.Normal(0, 0.3));
      batch.clips(i, 1) = -center + static_cast<float>(rng.Normal(0, 0.3));
      batch.labels[static_cast<size_t>(i)] = label;
    }
    out.push_back(std::move(batch));
  }
  return out;
}

TEST(TrainerTest, LearnsSeparableProblem) {
  Rng rng(1);
  const auto train = ToyBatches(8, 16, rng);
  nn::Sequential model;
  model.Emplace<nn::Linear>(2, 2, rng, "fc");
  nn::Sgd opt(model.Params(), {.lr = 0.2f, .momentum = 0.9f,
                               .weight_decay = 0.0f});
  nn::EpochStats last;
  for (int e = 0; e < 10; ++e) last = nn::TrainEpoch(model, opt, train, {});
  EXPECT_GT(last.accuracy, 0.95);
  EXPECT_LT(last.mean_loss, 0.3f);
  EXPECT_EQ(last.samples, 8 * 16);
}

TEST(TrainerTest, HooksFirePerBatch) {
  Rng rng(2);
  const auto train = ToyBatches(5, 4, rng);
  nn::Sequential model;
  model.Emplace<nn::Linear>(2, 2, rng, "fc");
  nn::Sgd opt(model.Params(), {.lr = 0.1f, .momentum = 0.0f,
                               .weight_decay = 0.0f});
  int backward_hooks = 0, step_hooks = 0;
  nn::TrainOptions opts;
  opts.post_backward = [&]() { ++backward_hooks; };
  opts.post_step = [&]() { ++step_hooks; };
  nn::TrainEpoch(model, opt, train, opts);
  EXPECT_EQ(backward_hooks, 5);
  EXPECT_EQ(step_hooks, 5);
}

TEST(TrainerTest, PostBackwardSeesGradsBeforeStep) {
  Rng rng(3);
  const auto train = ToyBatches(1, 8, rng);
  nn::Sequential model;
  nn::Linear* fc = model.Emplace<nn::Linear>(2, 2, rng, "fc");
  nn::Sgd opt(model.Params(), {.lr = 0.1f, .momentum = 0.0f,
                               .weight_decay = 0.0f});
  float grad_norm_at_hook = -1.0f;
  nn::TrainOptions opts;
  opts.post_backward = [&]() {
    grad_norm_at_hook = MaxAbs(fc->weight().grad);
  };
  nn::TrainEpoch(model, opt, train, opts);
  EXPECT_GT(grad_norm_at_hook, 0.0f);
}

TEST(TrainerTest, EvaluateDoesNotTrain) {
  Rng rng(4);
  const auto data = ToyBatches(3, 8, rng);
  nn::Sequential model;
  nn::Linear* fc = model.Emplace<nn::Linear>(2, 2, rng, "fc");
  const TensorF before = fc->weight().value;
  const nn::EpochStats stats = nn::Evaluate(model, data);
  EXPECT_TRUE(AllClose(fc->weight().value, before, 0.0f, 0.0f));
  EXPECT_EQ(stats.samples, 24);
}

TEST(TrainerTest, EmptyBatchesGiveZeroStats) {
  Rng rng(5);
  nn::Sequential model;
  model.Emplace<nn::Linear>(2, 2, rng, "fc");
  nn::Sgd opt(model.Params(), {.lr = 0.1f, .momentum = 0.0f,
                               .weight_decay = 0.0f});
  const nn::EpochStats stats = nn::TrainEpoch(model, opt, {}, {});
  EXPECT_EQ(stats.samples, 0);
  EXPECT_DOUBLE_EQ(stats.accuracy, 0.0);
}

// Every parameter and BN running statistic of a `Model` built from
// `mcfg` after one training epoch on the benchmark prune job's data
// (5 classes, 6x10x10 clips, batch 8), as raw floats. `serial` runs the
// epoch as a one-thread pool would, every parallel loop inline and in
// order.
template <typename Model, typename Config>
std::vector<float> AfterOneEpoch(Config mcfg, bool serial) {
  data::SyntheticVideoConfig dcfg;
  dcfg.num_classes = 5;
  dcfg.frames = 6;
  dcfg.height = 10;
  dcfg.width = 10;
  const data::SyntheticVideoDataset dataset(dcfg);
  Rng rng(91);
  const std::vector<nn::Batch> train = dataset.MakeBatches(64, 8, rng);
  mcfg.num_classes = dcfg.num_classes;
  Model model(mcfg, rng);
  nn::Sgd opt(model.Params(), {.lr = 0.05f, .momentum = 0.9f,
                               .weight_decay = 0.0f});
  {
    std::optional<ThreadPool::SerialScope> one_thread;
    if (serial) one_thread.emplace();
    nn::TrainEpoch(model, opt, train, {});
  }
  std::vector<float> out;
  for (nn::Param* p : model.Params()) {
    out.insert(out.end(), p->value.vec().begin(), p->value.vec().end());
  }
  for (const nn::NamedBuffer& b : model.Buffers()) {
    out.insert(out.end(), b.tensor->vec().begin(), b.tensor->vec().end());
  }
  return out;
}

// The benchmark prune job's model: TinyR2Plus1d, 4/8/8 channels.
std::vector<float> PruneModelAfterOneEpoch(bool serial) {
  models::TinyR2Plus1dConfig mcfg;
  mcfg.stem_channels = 4;
  mcfg.stage1_channels = 8;
  mcfg.stage2_channels = 8;
  return AfterOneEpoch<models::TinyR2Plus1d>(mcfg, serial);
}

// TinyC3d at its default 8/16/32 channels with BatchNorm.
std::vector<float> C3dAfterOneEpoch(bool serial) {
  return AfterOneEpoch<models::TinyC3d>(models::TinyC3dConfig{}, serial);
}

void ExpectSameBytes(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(float)), 0)
        << "first difference at flat index " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

// ctest runs this binary with HWP_THREADS=4, so the pool side is four
// participants; batch 8 puts more samples than threads in every conv.
TEST(TrainerPoolInvarianceTest, OneEpochSameBitsAtPoolSizes1And4) {
  if (ThreadPool::Get().threads() == 1) {
    GTEST_SKIP() << "one-thread pool: nothing to compare";
  }
  const std::vector<float> one = PruneModelAfterOneEpoch(/*serial=*/true);
  const std::vector<float> pool = PruneModelAfterOneEpoch(/*serial=*/false);
  ExpectSameBytes(one, pool);
}

// FNV-1a over the raw bytes of v.
uint64_t Checksum(const std::vector<float>& v) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// The weights and BN statistics one epoch trains, pinned to the value
// recorded before Backward began releasing the caches Forward keeps for
// it (and BatchNorm3d kept its input by move, ReLU rewrote its input in
// place): who owns a cache and when it is freed must not change a bit.
// Pool size 1 (SerialScope) and the ctest pool of four.
TEST(TrainerPoolInvarianceTest, OneEpochMatchesRecordedChecksum) {
  constexpr uint64_t kRecorded = 0xdbee596d3abb1a70ull;
  EXPECT_EQ(Checksum(PruneModelAfterOneEpoch(/*serial=*/true)), kRecorded);
  EXPECT_EQ(Checksum(PruneModelAfterOneEpoch(/*serial=*/false)), kRecorded);
}

// The same pin for one TinyC3d epoch, recorded before the C3D model was
// composed as an nn::Sequential chain.
TEST(TrainerPoolInvarianceTest, C3dOneEpochMatchesRecordedChecksum) {
  constexpr uint64_t kRecorded = 0xdfb82e5f9e2aff78ull;
  EXPECT_EQ(Checksum(C3dAfterOneEpoch(/*serial=*/true)), kRecorded);
  EXPECT_EQ(Checksum(C3dAfterOneEpoch(/*serial=*/false)), kRecorded);
}

// The dispatched SGEMM micro-kernel must train the same weights as the
// portable one.
TEST(TrainerPoolInvarianceTest, OneEpochSameBitsWithPortableMicroKernel) {
  const kernels::SgemmIsa dispatched = kernels::ActiveSgemmIsa();
  if (dispatched == kernels::SgemmIsa::kPortable) {
    GTEST_SKIP() << "this CPU already runs the portable micro-kernel";
  }
  const std::vector<float> vector = PruneModelAfterOneEpoch(false);
  kernels::SetSgemmIsa(kernels::SgemmIsa::kPortable);
  const std::vector<float> portable = PruneModelAfterOneEpoch(false);
  kernels::SetSgemmIsa(dispatched);
  ExpectSameBytes(vector, portable);
}

}  // namespace
}  // namespace hwp3d
