// Parity suite for the fast-path compiled executor: PackedConvLayer /
// ExecMode::kFast must be bitwise identical to the TiledConvSim oracle
// — logits, every output element, and every CompiledRunStats field —
// across dense, 50%- and 90%-pruned masks, non-divisible channel and
// tiling grids, and any thread count, on both compiled models (R(2+1)D
// and C3D, whose max pools and conv biases lower too) — and one
// compiled model shared by concurrent callers, as the serving lanes
// share it, must give every caller the serial result.
#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/admm.h"
#include "data/synthetic_video.h"
#include "fpga/compiled_executor.h"
#include "fpga/model_compiler.h"
#include "kernels/scratch.h"
#include "kernels/thread_pool.h"
#include "models/tiny_c3d.h"
#include "models/tiny_r2plus1d.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "tensor/init.h"
#include "testing/dense_run.h"
#include "testing/qtensor.h"

namespace hwp3d {
namespace {

using fpga::CompiledModelOptions;
using fpga::CompiledRunStats;
using fpga::CompiledModel;
using fpga::ExecMode;
using fpga::PackedConvLayer;
using fpga::PostOps;
using fpga::TiledConvResult;
using fpga::TiledConvSim;
using testing::ExpectBitwiseEqual;
using testing::RandomMask;
using testing::RandomQ;
using testing::RunDense;

void ExpectStatsEqual(const fpga::TiledConvStats& sim,
                      const fpga::TiledConvStats& fast) {
  EXPECT_EQ(sim.tile_iterations, fast.tile_iterations);
  EXPECT_EQ(sim.blocks_loaded, fast.blocks_loaded);
  EXPECT_EQ(sim.blocks_skipped, fast.blocks_skipped);
  EXPECT_EQ(sim.macs_executed, fast.macs_executed);
  EXPECT_EQ(sim.modeled_cycles, fast.modeled_cycles);
  EXPECT_EQ(sim.stall.wgt, fast.stall.wgt);
  EXPECT_EQ(sim.stall.in, fast.stall.in);
  EXPECT_EQ(sim.stall.comp, fast.stall.comp);
  EXPECT_EQ(sim.stall.out, fast.stall.out);
}

struct LayerCase {
  int64_t M, N, Di, Ri, Ci;
  int64_t Kd, Kr, Kc;
  std::array<int64_t, 3> stride;
  fpga::Tiling tiling;
  double keep_prob;  // < 0 = dense (no mask)
};

// Runs one layer on both engines with random weights/inputs/mask and
// full post-ops (affine + shortcut + relu), asserting bitwise parity.
void CheckLayerParity(const LayerCase& lc, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "M=" << lc.M << " N=" << lc.N << " keep=" << lc.keep_prob
               << " tiling=" << lc.tiling.ToString());
  Rng rng(seed);
  const TensorQ weights =
      RandomQ(Shape{lc.M, lc.N, lc.Kd, lc.Kr, lc.Kc}, rng);
  const TensorQ input = RandomQ(Shape{lc.N, lc.Di, lc.Ri, lc.Ci}, rng);
  const int64_t D = (lc.Di - lc.Kd) / lc.stride[0] + 1;
  const int64_t R = (lc.Ri - lc.Kr) / lc.stride[1] + 1;
  const int64_t C = (lc.Ci - lc.Kc) / lc.stride[2] + 1;
  const TensorQ shortcut = RandomQ(Shape{lc.M, D, R, C}, rng, -1.0, 1.0);

  PostOps post;
  post.has_affine = true;
  post.scale = RandomQ(Shape{lc.M}, rng, 0.5, 1.5);
  post.shift = RandomQ(Shape{lc.M}, rng, -0.5, 0.5);
  post.shortcut = &shortcut;
  post.relu = true;

  const int64_t blocks_m = CeilDiv(lc.M, lc.tiling.Tm);
  const int64_t blocks_n = CeilDiv(lc.N, lc.tiling.Tn);
  core::BlockMask mask;
  const bool masked = lc.keep_prob >= 0.0;
  if (masked) mask = RandomMask(blocks_m, blocks_n, lc.keep_prob, rng);

  const fpga::Ports ports;
  const TiledConvSim sim(lc.tiling, ports);
  const TiledConvResult want =
      sim.Run(weights, input, lc.stride, masked ? &mask : nullptr, post);

  const PackedConvLayer packed(weights, lc.tiling, ports,
                               masked ? &mask : nullptr);
  const TiledConvResult got =
      RunDense(packed, input, lc.stride, {0, 0, 0}, post);

  ExpectBitwiseEqual(want.output, got.output);
  ExpectStatsEqual(want.stats, got.stats);
  if (masked) {
    EXPECT_EQ(packed.surviving_tiles(), mask.CountEnabled());
    EXPECT_EQ(packed.total_tiles(), mask.num_blocks());
  } else {
    EXPECT_EQ(packed.surviving_tiles(), blocks_m * blocks_n);
  }
}

TEST(PackedConvLayerTest, MatchesSimOnDenseDivisibleGrid) {
  CheckLayerParity({.M = 8, .N = 8, .Di = 6, .Ri = 8, .Ci = 8,
                    .Kd = 3, .Kr = 3, .Kc = 3, .stride = {1, 1, 1},
                    .tiling = {4, 4, 2, 3, 3}, .keep_prob = -1.0},
                   7);
}

TEST(PackedConvLayerTest, MatchesSimOnPrunedMasks) {
  for (double keep : {0.5, 0.1}) {
    CheckLayerParity({.M = 8, .N = 8, .Di = 6, .Ri = 8, .Ci = 8,
                      .Kd = 3, .Kr = 3, .Kc = 3, .stride = {1, 1, 1},
                      .tiling = {4, 4, 2, 3, 3}, .keep_prob = keep},
                     21);
  }
}

TEST(PackedConvLayerTest, MatchesSimOnNonDivisibleGridsAndStride) {
  // 10 channels on Tm=Tn=3 (partial edge blocks), 9x7x11 input on
  // 2x4x4 spatial tiles (partial tiles in every axis), stride 2 in
  // width, asymmetric (2+1)D-style kernels.
  CheckLayerParity({.M = 10, .N = 7, .Di = 9, .Ri = 7, .Ci = 11,
                    .Kd = 1, .Kr = 3, .Kc = 3, .stride = {1, 1, 2},
                    .tiling = {3, 3, 2, 4, 4}, .keep_prob = 0.6},
                   33);
  CheckLayerParity({.M = 5, .N = 10, .Di = 8, .Ri = 6, .Ci = 6,
                    .Kd = 3, .Kr = 1, .Kc = 1, .stride = {2, 1, 1},
                    .tiling = {4, 4, 3, 5, 5}, .keep_prob = 0.4},
                   47);
}

TEST(PackedConvLayerTest, MatchesSimWithFullyPrunedRows) {
  // Rows whose every block is pruned still emit the post-processed
  // (affine/shortcut) output tile on both engines.
  Rng rng(5);
  const fpga::Tiling tiling{4, 4, 2, 3, 3};
  const TensorQ weights = RandomQ(Shape{8, 8, 3, 3, 3}, rng);
  const TensorQ input = RandomQ(Shape{8, 6, 8, 8}, rng);
  core::BlockMask mask = RandomMask(2, 2, 1.0, rng);
  mask.set(0, 0, false);
  mask.set(0, 1, false);  // row 0 fully pruned
  PostOps post;
  post.has_affine = true;
  post.scale = RandomQ(Shape{8}, rng, 0.5, 1.5);
  post.shift = RandomQ(Shape{8}, rng, -0.5, 0.5);

  const fpga::Ports ports;
  const TiledConvSim sim(tiling, ports);
  const auto want = sim.Run(weights, input, {1, 1, 1}, &mask, post);
  const PackedConvLayer packed(weights, tiling, ports, &mask);
  const auto got = RunDense(packed, input, {1, 1, 1}, {0, 0, 0}, post);
  ExpectBitwiseEqual(want.output, got.output);
  ExpectStatsEqual(want.stats, got.stats);
}

TEST(PackedConvLayerTest, ThreadCountInvariance) {
  // HWP_THREADS=1..8 equivalents: standalone pools of every size must
  // produce bitwise-identical outputs (each slab task owns a disjoint
  // output region with a fixed inner accumulation order).
  Rng rng(13);
  const fpga::Tiling tiling{3, 3, 2, 4, 4};
  const fpga::Ports ports;
  const TensorQ weights = RandomQ(Shape{10, 7, 3, 3, 3}, rng);
  const TensorQ input = RandomQ(Shape{7, 8, 9, 9}, rng);
  const core::BlockMask mask = RandomMask(4, 3, 0.5, rng);
  PostOps post;
  post.relu = true;
  const PackedConvLayer packed(weights, tiling, ports, &mask);

  ThreadPool serial(1);
  const auto want =
      RunDense(packed, input, {1, 1, 1}, {0, 0, 0}, post, &serial);
  for (int threads = 2; threads <= 8; ++threads) {
    ThreadPool pool(threads);
    const auto got =
        RunDense(packed, input, {1, 1, 1}, {0, 0, 0}, post, &pool);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ExpectBitwiseEqual(want.output, got.output);
    ExpectStatsEqual(want.stats, got.stats);
  }
}

TEST(PackedConvLayerTest, FastRunUsesAccountedScratch) {
  Rng rng(3);
  const fpga::Tiling tiling{4, 4, 2, 3, 3};
  const TensorQ weights = RandomQ(Shape{8, 8, 3, 3, 3}, rng);
  const TensorQ input = RandomQ(Shape{8, 6, 8, 8}, rng);
  const PackedConvLayer packed(weights, tiling, fpga::Ports{}, nullptr);
  (void)RunDense(packed, input, {1, 1, 1}, {0, 0, 0}, PostOps{});
  EXPECT_GT(kernels::ScratchBytesInUse(), 0);
}

// --- whole-model parity ------------------------------------------------

class CompiledExecutorModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::Warning);
    data::SyntheticVideoConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.frames = 6;
    dcfg.height = 10;
    dcfg.width = 10;
    dataset_ = std::make_unique<data::SyntheticVideoDataset>(dcfg);
    TrainModel(4, 8, 8);
  }
  void TearDown() override { SetLogLevel(LogLevel::Info); }

  // Replaces model_ with a model of these widths, trained one epoch so
  // its BN statistics are the data's.
  void TrainModel(int64_t stem, int64_t stage1, int64_t stage2) {
    models::TinyR2Plus1dConfig mcfg;
    mcfg.num_classes = 4;
    mcfg.stem_channels = stem;
    mcfg.stage1_channels = stage1;
    mcfg.stage2_channels = stage2;
    model_ = std::make_unique<models::TinyR2Plus1d>(mcfg, rng_);
    auto batches = dataset_->MakeBatches(8, 8, rng_);
    nn::Sgd opt(model_->Params(),
                {.lr = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f});
    nn::TrainEpoch(*model_, opt, batches, {});
  }

  TensorF MakeClip(uint64_t seed) {
    Rng rng(seed);
    return dataset_->MakeSample(static_cast<int>(seed) % 4, rng).clip;
  }

  // A C3D of 4/6/8 channels, trained one epoch like model_.
  std::unique_ptr<models::TinyC3d> TrainC3d(bool batch_norm) {
    models::TinyC3dConfig cfg;
    cfg.num_classes = 4;
    cfg.conv1_channels = 4;
    cfg.conv2_channels = 6;
    cfg.conv3_channels = 8;
    cfg.batch_norm = batch_norm;
    auto c3d = std::make_unique<models::TinyC3d>(cfg, rng_);
    auto batches = dataset_->MakeBatches(8, 8, rng_);
    nn::Sgd opt(c3d->Params(),
                {.lr = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f});
    nn::TrainEpoch(*c3d, opt, batches, {});
    return c3d;
  }

  // Hard-prunes with the real pruner at `eta` block sparsity under
  // `block` and returns the masks.
  std::vector<core::BlockMask> PruneMasks(double eta,
                                          core::BlockConfig block) {
    return PruneMasks(*model_, eta, block);
  }
  template <typename Model>
  std::vector<core::BlockMask> PruneMasks(Model& model, double eta,
                                          core::BlockConfig block) {
    std::vector<core::PruneLayerSpec> specs;
    for (nn::Conv3d* c : model.PrunableConvs()) {
      specs.push_back({&c->weight(), block, eta, c->name()});
    }
    core::AdmmPruner pruner(specs, core::AdmmConfig{});
    pruner.StartRound(0);
    pruner.HardPrune();
    return pruner.masks();
  }

  void CheckModelParity(const CompiledModelOptions& base) {
    CheckModelParity(*model_, base);
  }
  template <typename Model>
  void CheckModelParity(Model& model, const CompiledModelOptions& base) {
    CompiledModelOptions sim_opts = base;
    sim_opts.executor = ExecMode::kSimulate;
    CompiledModelOptions fast_opts = base;
    fast_opts.executor = ExecMode::kFast;
    auto sim = CompiledModel::Compile(model, sim_opts);
    auto fast = CompiledModel::Compile(model, fast_opts);
    ASSERT_TRUE(sim.ok()) << sim.status().ToString();
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(sim->executor(), ExecMode::kSimulate);
    EXPECT_EQ(fast->executor(), ExecMode::kFast);
    for (uint64_t s = 0; s < 3; ++s) {
      const TensorF clip = MakeClip(s);
      CompiledRunStats sim_stats, fast_stats;
      const TensorF sim_logits = sim->Infer(clip, &sim_stats);
      const TensorF fast_logits = fast->Infer(clip, &fast_stats);
      ASSERT_EQ(sim_logits.numel(), fast_logits.numel());
      for (int64_t k = 0; k < sim_logits.numel(); ++k) {
        // Bitwise: the accelerator outputs agree element-for-element,
        // and the host-side pooling/FC runs on identical inputs.
        EXPECT_EQ(sim_logits[k], fast_logits[k]) << "logit " << k;
      }
      EXPECT_EQ(sim_stats.modeled_cycles, fast_stats.modeled_cycles);
      EXPECT_EQ(sim_stats.blocks_loaded, fast_stats.blocks_loaded);
      EXPECT_EQ(sim_stats.blocks_skipped, fast_stats.blocks_skipped);
      EXPECT_EQ(sim_stats.macs_executed, fast_stats.macs_executed);
      EXPECT_EQ(fast->MacsFor(clip.shape()), fast_stats.macs_executed);
      EXPECT_EQ(sim->MacsFor(clip.shape()), sim_stats.macs_executed);
      EXPECT_EQ(sim->Classify(clip), fast->Classify(clip));
    }
  }

  Rng rng_{11};
  std::unique_ptr<models::TinyR2Plus1d> model_;
  std::unique_ptr<data::SyntheticVideoDataset> dataset_;
};

TEST_F(CompiledExecutorModelTest, DenseParity) {
  CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  CheckModelParity(opts);
}

TEST_F(CompiledExecutorModelTest, HalfPrunedParity) {
  CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  opts.masks = PruneMasks(0.5, {4, 4});
  CheckModelParity(opts);
}

TEST_F(CompiledExecutorModelTest, NinetyPercentPrunedParity) {
  CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  opts.masks = PruneMasks(0.9, {4, 4});
  CheckModelParity(opts);
}

TEST_F(CompiledExecutorModelTest, NonDivisibleTilingParity) {
  // Tm=Tn=3 does not divide the 4/8-channel convs; Td/Tr/Tc leave
  // partial spatial tiles on the 6x10x10 clips.
  CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{3, 3, 2, 4, 4};
  opts.masks = PruneMasks(0.5, {3, 3});
  CheckModelParity(opts);
}

TEST_F(CompiledExecutorModelTest, IdentityShortcutParity) {
  // stem_channels == stage1_channels: stage 1 has no projection, so its
  // conv2 temporal op adds the block input itself, an activation with
  // the (0, 1, 1) halo of the conv1 spatial op that also reads it.
  TrainModel(4, 4, 8);
  ASSERT_FALSE(model_->stage1().has_projection());
  CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  CheckModelParity(opts);
  opts.masks = PruneMasks(0.5, {4, 4});
  CheckModelParity(opts);
}

TEST_F(CompiledExecutorModelTest, ExportsInt32ExactFractionPerLayer) {
  // Compiling sets one gauge per conv: the trained weights pass the
  // int32 proof in every channel of the 12 convs (stem pair, two
  // residual stages of two pairs and a projection each).
  auto compiled = CompiledModel::Compile(*model_, {});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  int layers = 0;
  for (const obs::MetricSnapshot& m : obs::MetricsRegistry::Get().Snapshot()) {
    if (m.name != "exec.int32_exact_frac") continue;
    ++layers;
    EXPECT_EQ(m.kind, obs::MetricKind::Gauge);
    EXPECT_DOUBLE_EQ(m.gauge_value, 1.0);
  }
  EXPECT_EQ(layers, 12);
}

TEST_F(CompiledExecutorModelTest, ExportsDirectFractionPerLayer) {
  // Every conv with stride 1 in rows and columns reads its B operand in
  // place; the second stage's column-strided spatial conv and projection
  // shortcut gather a panel. Its temporal conv (depth stride 2) is
  // direct.
  auto compiled = CompiledModel::Compile(*model_, {});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  int layers = 0;
  for (const obs::MetricSnapshot& m : obs::MetricsRegistry::Get().Snapshot()) {
    if (m.name != "exec.direct_frac") continue;
    ++layers;
    ASSERT_EQ(m.labels.size(), 1u);
    const std::string& layer = m.labels[0].second;
    const bool gathered =
        layer == "stage2.conv1.spatial" || layer == "stage2.shortcut";
    EXPECT_EQ(m.kind, obs::MetricKind::Gauge);
    EXPECT_DOUBLE_EQ(m.gauge_value, gathered ? 0.0 : 1.0) << layer;
  }
  EXPECT_EQ(layers, 12);
}

TEST_F(CompiledExecutorModelTest, SharedModelMatchesSerialUnderConcurrency) {
  // R(2+1)D dense and 90% pruned, and a C3D, whose pool ops run
  // concurrently too.
  CompiledModelOptions dense;
  dense.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  CompiledModelOptions pruned = dense;
  pruned.masks = PruneMasks(0.9, {4, 4});
  const std::unique_ptr<models::TinyC3d> c3d = TrainC3d(true);
  struct Input {
    const char* name;
    StatusOr<CompiledModel> compiled;
  };
  for (Input& input : std::vector<Input>{
           {"dense", CompiledModel::Compile(*model_, dense)},
           {"90% pruned", CompiledModel::Compile(*model_, pruned)},
           {"C3D", CompiledModel::Compile(*c3d, dense)}}) {
    SCOPED_TRACE(input.name);
    auto& compiled = input.compiled;
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const CompiledModel& shared = *compiled;
    ASSERT_EQ(shared.executor(), ExecMode::kFast);

    constexpr int kClips = 4;
    std::vector<TensorF> clips;
    std::vector<TensorF> want_logits;
    std::vector<CompiledRunStats> want_stats(kClips);
    for (int c = 0; c < kClips; ++c) {
      clips.push_back(MakeClip(static_cast<uint64_t>(c)));
      want_logits.push_back(shared.Infer(clips.back(), &want_stats[c]));
    }

    // Every participant of the region calls Infer on the one model; the
    // nested per-layer regions run inline on each participant.
    constexpr int kCalls = 8 * kClips;
    std::vector<TensorF> got_logits(kCalls);
    std::vector<CompiledRunStats> got_stats(kCalls);
    ThreadPool pool(4);
    pool.For(0, kCalls, [&](int64_t i) {
      got_logits[static_cast<size_t>(i)] =
          shared.Infer(clips[static_cast<size_t>(i % kClips)],
                       &got_stats[static_cast<size_t>(i)]);
    });

    for (int i = 0; i < kCalls; ++i) {
      SCOPED_TRACE(::testing::Message() << "call " << i);
      const TensorF& want = want_logits[static_cast<size_t>(i % kClips)];
      const TensorF& got = got_logits[static_cast<size_t>(i)];
      ASSERT_EQ(got.numel(), want.numel());
      for (int64_t k = 0; k < want.numel(); ++k) {
        EXPECT_EQ(got[k], want[k]) << "logit " << k;
      }
      const CompiledRunStats& ws = want_stats[static_cast<size_t>(i % kClips)];
      const CompiledRunStats& gs = got_stats[static_cast<size_t>(i)];
      EXPECT_EQ(gs.modeled_cycles, ws.modeled_cycles);
      EXPECT_EQ(gs.blocks_loaded, ws.blocks_loaded);
      EXPECT_EQ(gs.blocks_skipped, ws.blocks_skipped);
      EXPECT_EQ(gs.macs_executed, ws.macs_executed);
    }
  }
}

// exec.runs, macs_executed, blocks_loaded, blocks_skipped and
// modeled_cycles, summed over every layer label.
std::array<int64_t, 5> ExecTotals() {
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
  return {reg.CounterTotal("exec.runs"), reg.CounterTotal("exec.macs_executed"),
          reg.CounterTotal("exec.blocks_loaded"),
          reg.CounterTotal("exec.blocks_skipped"),
          reg.CounterTotal("exec.modeled_cycles")};
}

// Each PackedConvLayer caches a plan (pair offsets, stats) per input
// shape and keeps a few. A model that alternates two clip shapes, then
// cycles through more shapes than it keeps, must give every clip the
// logits, stats and exec.* counter increments of a freshly compiled
// model (whose caches are cold) running that clip alone.
TEST_F(CompiledExecutorModelTest, CachedShapePlansMatchColdRuns) {
  CompiledModelOptions dense;
  dense.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  CompiledModelOptions pruned = dense;
  pruned.masks = PruneMasks(0.5, {4, 4});
  std::vector<TensorF> clips = {MakeClip(1)};  // 6x10x10
  Rng rng(5);
  for (const Shape& shape :
       {Shape{1, 4, 12, 8}, Shape{1, 6, 12, 12}, Shape{1, 8, 8, 8},
        Shape{1, 5, 9, 11}, Shape{1, 6, 10, 14}}) {
    clips.emplace_back(shape);
    FillUniform(clips.back(), rng, -1.0f, 1.0f);
  }
  ASSERT_GT(clips.size(), PackedConvLayer::kShapePlans);
  // One shape repeated, two alternating, then every shape twice over.
  std::vector<size_t> order = {0, 0, 1, 0, 1, 0, 1, 1};
  for (int round = 0; round < 2; ++round) {
    for (size_t c = 0; c < clips.size(); ++c) order.push_back(c);
  }

  for (const CompiledModelOptions& opts : {dense, pruned}) {
    SCOPED_TRACE(opts.masks.empty() ? "dense" : "50% pruned");
    auto warm = CompiledModel::Compile(*model_, opts);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    for (size_t i = 0; i < order.size(); ++i) {
      const TensorF& clip = clips[order[i]];
      SCOPED_TRACE(::testing::Message() << "call " << i << ", clip "
                                        << clip.shape().ToString());
      auto cold = CompiledModel::Compile(*model_, opts);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      CompiledRunStats want_stats, got_stats;
      const std::array<int64_t, 5> t0 = ExecTotals();
      const TensorF want = cold->Infer(clip, &want_stats);
      const std::array<int64_t, 5> t1 = ExecTotals();
      const TensorF got = warm->Infer(clip, &got_stats);
      const std::array<int64_t, 5> t2 = ExecTotals();
      ASSERT_EQ(got.numel(), want.numel());
      for (int64_t k = 0; k < want.numel(); ++k) {
        EXPECT_EQ(got[k], want[k]) << "logit " << k;
      }
      EXPECT_EQ(got_stats.modeled_cycles, want_stats.modeled_cycles);
      EXPECT_EQ(got_stats.blocks_loaded, want_stats.blocks_loaded);
      EXPECT_EQ(got_stats.blocks_skipped, want_stats.blocks_skipped);
      EXPECT_EQ(got_stats.macs_executed, want_stats.macs_executed);
      for (size_t k = 0; k < t0.size(); ++k) {
        EXPECT_EQ(t2[k] - t1[k], t1[k] - t0[k]) << "exec counter " << k;
      }
    }
  }
}

// C3D lowers each conv with its BN (or, without one, its bias) folded
// into the post-processing unit, and each max pool into a pool op.
TEST_F(CompiledExecutorModelTest, C3dParity) {
  for (bool batch_norm : {true, false}) {
    SCOPED_TRACE(batch_norm ? "with BN" : "without BN");
    const std::unique_ptr<models::TinyC3d> c3d = TrainC3d(batch_norm);
    CompiledModelOptions opts;
    opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
    {
      SCOPED_TRACE("dense");
      CheckModelParity(*c3d, opts);
    }
    opts.masks = PruneMasks(*c3d, 0.5, {4, 4});
    SCOPED_TRACE("50% pruned");
    CheckModelParity(*c3d, opts);
  }
}

TEST_F(CompiledExecutorModelTest, C3dCompilationTracksFloatModel) {
  for (bool batch_norm : {true, false}) {
    SCOPED_TRACE(batch_norm ? "with BN" : "without BN");
    const std::unique_ptr<models::TinyC3d> c3d = TrainC3d(batch_norm);
    // One epoch leaves the conv biases near their zero init; make them
    // large enough that dropping one would show.
    Rng rng(17);
    for (nn::Conv3d* c : c3d->PrunableConvs()) {
      if (c->bias() != nullptr) FillUniform(c->bias()->value, rng, 0.2f, 0.4f);
    }
    CompiledModelOptions opts;
    opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
    for (bool pruned : {false, true}) {
      SCOPED_TRACE(pruned ? "50% pruned" : "dense");
      // Hard-pruned weights: the float model with them is the reference.
      if (pruned) opts.masks = PruneMasks(*c3d, 0.5, {4, 4});
      auto compiled = CompiledModel::Compile(*c3d, opts);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      for (uint64_t seed = 0; seed < 3; ++seed) {
        const TensorF clip = MakeClip(seed);
        const TensorF accel = compiled->Infer(clip);
        const TensorF want = c3d->Forward(
            clip.Reshaped(Shape{1, clip.dim(0), clip.dim(1), clip.dim(2),
                               clip.dim(3)}),
            false);
        ASSERT_EQ(accel.numel(), want.numel());
        for (int64_t k = 0; k < accel.numel(); ++k) {
          EXPECT_NEAR(accel[k], want[k], 0.15f) << "logit " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hwp3d
