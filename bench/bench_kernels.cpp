// Micro-benchmarks (google-benchmark) of the library's hot kernels:
// the blockwise projection, block-norm computation, fixed-point
// quantization, the float training convolution under both conv engines,
// and the tile simulator dense vs pruned (showing the functional
// block-skip saving).
//
// Beyond the google-benchmark suite, main() runs an engine-comparison
// harness (naive vs gemm training step on a tiny R(2+1)D block), times
// the SGEMM micro-kernel the CPU dispatches to against the portable one
// on one thread, does the same for the fast executor's int16 conv
// kernel on one conv layer of the dense serving model, times one
// training epoch of the benchmark prune job's model on one thread and on
// the whole pool, and writes a machine-readable summary to
// --json-out=PATH (default BENCH_kernels.json): GFLOP/s, GMAC/s,
// speedups, the dispatched ISAs, and the gemm engine's pack/compute
// time split taken from the kernels.gemm.* counters.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/rng.h"
#include "core/projection.h"
#include "data/synthetic_video.h"
#include "fixed/quantize.h"
#include "fpga/compiled_executor.h"
#include "fpga/tiled_conv_sim.h"
#include "kernels/engine.h"
#include "kernels/qgemm_tile.h"
#include "kernels/sgemm.h"
#include "kernels/thread_pool.h"
#include "models/tiny_r2plus1d.h"
#include "nn/conv3d.h"
#include "nn/r2plus1d_block.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/init.h"

using namespace hwp3d;

namespace {

// Restores the previously selected conv engine on scope exit.
class EngineOverride {
 public:
  explicit EngineOverride(kernels::Engine e) : prev_(kernels::CurrentEngine()) {
    kernels::SetEngine(e);
  }
  ~EngineOverride() { kernels::SetEngine(prev_); }

 private:
  kernels::Engine prev_;
};

TensorF RandomWeights(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  TensorF t(shape);
  FillNormal(t, rng, 0.0f, 1.0f);
  return t;
}

void BM_BlockSqNorms(benchmark::State& state) {
  const TensorF w = RandomWeights(Shape{144, 64, 1, 3, 3}, 1);
  core::BlockPartition part(w.shape(), {64, 8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.BlockSqNorms(w));
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_BlockSqNorms);

void BM_ProjectToBlockSparse(benchmark::State& state) {
  core::BlockPartition part(Shape{144, 64, 1, 3, 3}, {64, 8});
  for (auto _ : state) {
    state.PauseTiming();
    TensorF w = RandomWeights(Shape{144, 64, 1, 3, 3}, 2);
    state.ResumeTiming();
    benchmark::DoNotOptimize(core::ProjectToBlockSparse(w, part, 0.9));
  }
}
BENCHMARK(BM_ProjectToBlockSparse);

void BM_Quantize(benchmark::State& state) {
  const TensorF t = RandomWeights(Shape{64, 64, 3, 3, 3}, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantize(t));
  }
  state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK(BM_Quantize);

void RunConv3dForward(benchmark::State& state, kernels::Engine engine) {
  EngineOverride eo(engine);
  Rng rng(4);
  nn::Conv3dConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 8;
  cfg.kernel = {3, 3, 3};
  cfg.padding = {1, 1, 1};
  nn::Conv3d conv(cfg, rng);
  TensorF x(Shape{1, 8, 8, 16, 16});
  FillUniform(x, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, false));
  }
  // 2 FLOPs (mul+add) per weight tap per output element.
  const double flops_per_call = 2.0 * 8 * 8 * 8 * 16 * 16 * 3 * 3 * 3;
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * flops_per_call));
}

void BM_Conv3dForwardNaive(benchmark::State& state) {
  RunConv3dForward(state, kernels::Engine::kNaive);
}
BENCHMARK(BM_Conv3dForwardNaive);

void BM_Conv3dForwardGemm(benchmark::State& state) {
  RunConv3dForward(state, kernels::Engine::kGemm);
}
BENCHMARK(BM_Conv3dForwardGemm);

void BM_Sgemm(benchmark::State& state) {
  // A conv's GEMM: K = 32 channels x 3x3 taps.
  const int64_t m = 64, n = 1024, k = 288;
  Rng rng(11);
  TensorF a(Shape{m, k}), b(Shape{k, n}), c(Shape{m, n});
  FillUniform(a, rng, -1.0f, 1.0f);
  FillUniform(b, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    kernels::Sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(),
                   n, /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_Sgemm);

void RunTiledSim(benchmark::State& state, double eta) {
  Rng rng(5);
  TensorF wf(Shape{32, 32, 1, 3, 3});
  FillNormal(wf, rng, 0.0f, 1.0f);
  core::BlockPartition part(wf.shape(), {8, 8});
  core::ProjectionResult proj = core::PlanBlockSparse(wf, part, eta);
  const TensorQ w = Quantize(wf);
  TensorF xf(Shape{32, 4, 16, 16});
  FillUniform(xf, rng, -1.0f, 1.0f);
  const TensorQ x = Quantize(xf);
  fpga::TiledConvSim sim(fpga::Tiling{8, 8, 2, 7, 7}, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.Run(w, x, {1, 1, 1}, eta > 0.0 ? &proj.mask : nullptr, {}));
  }
}

void BM_TiledSimDense(benchmark::State& state) { RunTiledSim(state, 0.0); }
BENCHMARK(BM_TiledSimDense);

void BM_TiledSimPruned90(benchmark::State& state) {
  RunTiledSim(state, 0.9);
}
BENCHMARK(BM_TiledSimPruned90);

// Observability overhead: a disabled TraceScope must cost a single
// relaxed atomic load (sub-nanosecond), so instrumented hot paths stay
// free when tracing is off. The enabled variant shows the record cost.
void BM_TraceScopeDisabled(benchmark::State& state) {
  obs::Tracer::Get().SetEnabled(false);
  for (auto _ : state) {
    HWP_TRACE_SCOPE("bench/disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceScopeDisabled);

void BM_TraceScopeEnabled(benchmark::State& state) {
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.SetEnabled(true);
  size_t n = 0;
  for (auto _ : state) {
    HWP_TRACE_SCOPE("bench/enabled");
    if (++n % 65536 == 0) tracer.Clear();  // bound buffer growth
    benchmark::ClobberMemory();
  }
  tracer.SetEnabled(false);
  tracer.Clear();
}
BENCHMARK(BM_TraceScopeEnabled);

void BM_MetricsCounterAdd(benchmark::State& state) {
  obs::Counter& c =
      obs::MetricsRegistry::Get().GetCounter("bench.counter");
  for (auto _ : state) {
    c.Add(1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsCounterLookup(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::Get();
  for (auto _ : state) {
    reg.GetCounter("bench.lookup", {{"layer", "conv2a"}}).Add(1);
  }
}
BENCHMARK(BM_MetricsCounterLookup);

// ---------------------------------------------------------------------------
// Engine-comparison harness: one training step (ZeroGrad + Forward(train) +
// Backward) of a tiny R(2+1)D residual block under each conv engine.

struct TrainStepSetup {
  nn::ResidualBlock block;
  TensorF x;
  TensorF seed;

  explicit TrainStepSetup(Rng& rng)
      : block(MakeConfig(), rng, "bench_block"),
        x(Shape{2, 8, 4, 16, 16}) {
    FillUniform(x, rng, -1.0f, 1.0f);
    TensorF y = block.Forward(x, false);
    seed = TensorF(y.shape());
    FillUniform(seed, rng, -1.0f, 1.0f);
  }

  static nn::ResidualBlockConfig MakeConfig() {
    nn::ResidualBlockConfig cfg;
    cfg.in_channels = 8;
    cfg.out_channels = 16;
    cfg.spatial_stride = 2;
    cfg.temporal_stride = 2;
    return cfg;
  }

  void Step() {
    block.ZeroGrad();
    TensorF y = block.Forward(x, true);
    benchmark::DoNotOptimize(y.data());
    TensorF dx = block.Backward(seed);
    benchmark::DoNotOptimize(dx.data());
  }
};

// Best wall time of `fn` in ms: one warmup call (touches cold memory,
// settles the pool), then repetitions until `budget_ms` has accumulated,
// at least `min_reps` and at most 200 of them.
template <typename Fn>
double BestOfMs(Fn&& fn, double budget_ms, int min_reps) {
  fn();
  double best_ms = 1e300;
  double total_ms = 0.0;
  for (int reps = 0; reps < 200 && (reps < min_reps || total_ms < budget_ms);
       ++reps) {
    const double t0 = obs::NowUs();
    fn();
    const double ms = (obs::NowUs() - t0) / 1000.0;
    total_ms += ms;
    best_ms = ms < best_ms ? ms : best_ms;
  }
  return best_ms;
}

// Best-of-reps wall time of one training step under `engine` on one
// thread, in ms (at least 5 reps and 0.3 s). The engines spread over a
// pool differently, so their ratio, which bench_check.py guards, is
// taken on one thread to keep it independent of the host's core count.
double TimeTrainStepMs(TrainStepSetup& setup, kernels::Engine engine) {
  EngineOverride eo(engine);
  ThreadPool::SerialScope one_thread;
  return BestOfMs([&] { setup.Step(); }, 1000.0, 5);
}

struct MicroKernelResult {
  const char* isa = "portable";
  double dispatched_gflops = 0.0;
  double portable_gflops = 0.0;
};

// One-thread Sgemm GFLOP/s on the benchmark model's largest conv GEMM
// (m 18 x n 600 x k 72), with the dispatched micro-kernel and with the
// portable one.
MicroKernelResult RunMicroKernelComparison() {
  const int64_t m = 18, n = 600, k = 72;
  Rng rng(31);
  TensorF a(Shape{m, k}), b(Shape{k, n}), c(Shape{m, n});
  FillUniform(a, rng, -1.0f, 1.0f);
  FillUniform(b, rng, -1.0f, 1.0f);
  const double gflop = 2.0 * m * n * k / 1e9;
  auto gflops = [&]() {
    ThreadPool::SerialScope one_thread;
    const double ms = BestOfMs(
        [&] {
          kernels::Sgemm(false, false, m, n, k, a.data(), k, b.data(), n,
                         c.data(), n, /*accumulate=*/false);
          benchmark::DoNotOptimize(c.data());
          benchmark::ClobberMemory();
        },
        200.0, 20);
    return gflop / (ms / 1000.0);
  };
  MicroKernelResult r;
  const kernels::SgemmIsa dispatched = kernels::ActiveSgemmIsa();
  r.isa = kernels::SgemmIsaName(dispatched);
  r.dispatched_gflops = gflops();
  kernels::SetSgemmIsa(kernels::SgemmIsa::kPortable);
  r.portable_gflops = gflops();
  kernels::SetSgemmIsa(dispatched);
  return r;
}

struct QConvResult {
  const char* isa = "portable";
  double dispatched_gmacs = 0.0;
  double portable_gmacs = 0.0;
  double int32_exact_frac = 0.0;
};

// One-thread GMAC/s of the fast executor's engine on the dense serving
// model's stage-1 spatial conv (8 -> 28 channels, 1x3x3, padding
// (0,1,1), input 8x16x16, tiling [4,4,2,4,4]) with the dispatched int16
// kernel and with the portable one. Stride 1 reads B in place from the
// halo-padded input, as served (the output gets the temporal conv's
// depth halo); layout conversion is not timed. Weights in +-0.25
// (|raw| <= 64 over 72 slots) keep every channel inside the int32 proof.
QConvResult RunQConvComparison() {
  Rng rng(51);
  TensorF wf(Shape{28, 8, 1, 3, 3}), xf(Shape{8, 8, 16, 16});
  FillUniform(wf, rng, -0.25f, 0.25f);
  FillUniform(xf, rng, -2.0f, 2.0f);
  const TensorQ weights = Quantize(wf);
  const fpga::QActivation input = fpga::QActivation::Quantize(xf, {0, 1, 1});
  const fpga::PackedConvLayer layer(weights, fpga::Tiling{4, 4, 2, 4, 4},
                                    fpga::Ports{}, nullptr);
  fpga::PostOps post;
  post.relu = true;
  const double macs = 28.0 * 8 * 9 * 8 * 16 * 16;
  const kernels::QIsa dispatched = kernels::ActiveQIsa();
  // Dispatched and portable runs alternate, so a change in the host's
  // speed during the measurement affects both sides alike.
  const auto run_ms = [&](kernels::QIsa isa) {
    kernels::SetQIsa(isa);
    const double t0 = obs::NowUs();
    const fpga::PackedConvLayer::Result r = layer.Run(
        input, {1, 1, 1}, {0, 1, 1}, post, nullptr, {1, 0, 0});
    benchmark::DoNotOptimize(r.output.data());
    return (obs::NowUs() - t0) / 1000.0;
  };
  double best_dispatched = 1e300, best_portable = 1e300;
  {
    ThreadPool::SerialScope one_thread;
    run_ms(dispatched);
    run_ms(kernels::QIsa::kPortable);
    for (int rep = 0; rep < 200; ++rep) {
      best_dispatched = std::min(best_dispatched, run_ms(dispatched));
      best_portable =
          std::min(best_portable, run_ms(kernels::QIsa::kPortable));
    }
  }
  kernels::SetQIsa(dispatched);
  QConvResult r;
  r.isa = kernels::QIsaName(dispatched);
  r.int32_exact_frac = layer.int32_exact_frac();
  r.dispatched_gmacs = macs / (best_dispatched * 1e6);
  r.portable_gmacs = macs / (best_portable * 1e6);
  return r;
}

struct EpochResult {
  double one_thread_ms = 0.0;
  double pool_ms = 0.0;
};

// One training epoch of the benchmark prune job's model (TinyR2Plus1d
// 4/8/8 channels, 5 classes, 128 clips of 6x10x10 in batches of 8) on one
// thread and on the whole pool.
EpochResult RunPruneEpochComparison() {
  data::SyntheticVideoConfig dcfg;
  dcfg.num_classes = 5;
  dcfg.frames = 6;
  dcfg.height = 10;
  dcfg.width = 10;
  const data::SyntheticVideoDataset dataset(dcfg);
  Rng rng(41);
  const std::vector<nn::Batch> train = dataset.MakeBatches(128, 8, rng);
  models::TinyR2Plus1dConfig mcfg;
  mcfg.num_classes = dcfg.num_classes;
  mcfg.stem_channels = 4;
  mcfg.stage1_channels = 8;
  mcfg.stage2_channels = 8;
  models::TinyR2Plus1d model(mcfg, rng);
  nn::Sgd opt(model.Params(),
              {.lr = 0.01f, .momentum = 0.9f, .weight_decay = 0.0f});
  auto epoch = [&] { nn::TrainEpoch(model, opt, train, {}); };

  EpochResult r;
  {
    ThreadPool::SerialScope one_thread;
    r.one_thread_ms = BestOfMs(epoch, 0.0, 3);
  }
  r.pool_ms = BestOfMs(epoch, 0.0, 3);
  return r;
}

// GFLOP/s of the gemm-engine conv forward from BM_Conv3dForwardGemm's
// shape, plus the pack/compute split from the kernels.gemm.* counters.
void RunEngineComparison(const std::string& json_path) {
  Rng rng(21);
  TrainStepSetup setup(rng);

  const double naive_ms = TimeTrainStepMs(setup, kernels::Engine::kNaive);
  const double gemm_ms = TimeTrainStepMs(setup, kernels::Engine::kGemm);
  const double speedup = naive_ms / gemm_ms;

  // Conv forward throughput (same shape as BM_Conv3dForwardGemm), with
  // the gemm pack/compute split read as counter deltas around the runs.
  auto& reg = obs::MetricsRegistry::Get();
  const int64_t pack_us0 = reg.CounterTotal("kernels.gemm.pack_us");
  const int64_t comp_us0 = reg.CounterTotal("kernels.gemm.compute_us");

  nn::Conv3dConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 8;
  cfg.kernel = {3, 3, 3};
  cfg.padding = {1, 1, 1};
  nn::Conv3d conv(cfg, rng, "bench_conv");
  TensorF cx(Shape{1, 8, 8, 16, 16});
  FillUniform(cx, rng, -1.0f, 1.0f);
  const double conv_flops = 2.0 * 8 * 8 * 8 * 16 * 16 * 3 * 3 * 3;

  double conv_best_us = 1e300;
  {
    EngineOverride eo(kernels::Engine::kGemm);
    for (int r = 0; r < 50; ++r) {
      const double t0 = obs::NowUs();
      TensorF y = conv.Forward(cx, false);
      benchmark::DoNotOptimize(y.data());
      const double us = obs::NowUs() - t0;
      conv_best_us = us < conv_best_us ? us : conv_best_us;
    }
  }
  const double conv_gflops = conv_flops / conv_best_us / 1000.0;

  const int64_t pack_us = reg.CounterTotal("kernels.gemm.pack_us") - pack_us0;
  const int64_t comp_us =
      reg.CounterTotal("kernels.gemm.compute_us") - comp_us0;
  const double split_total = static_cast<double>(pack_us + comp_us);
  const double pack_frac =
      split_total > 0.0 ? static_cast<double>(pack_us) / split_total : 0.0;

  const MicroKernelResult micro = RunMicroKernelComparison();
  const QConvResult qconv = RunQConvComparison();
  const EpochResult epoch = RunPruneEpochComparison();
  const int threads = ThreadPool::Get().threads();

  std::printf("\n-- engine comparison (tiny R(2+1)D residual block) --\n");
  std::printf("threads:              %d\n", ThreadPool::Get().threads());
  std::printf("train step naive:     %.2f ms (1 thread)\n", naive_ms);
  std::printf("train step gemm:      %.2f ms (1 thread)\n", gemm_ms);
  std::printf("speedup:              %.2fx\n", speedup);
  std::printf("conv forward (gemm):  %.2f GFLOP/s\n", conv_gflops);
  std::printf("gemm pack/compute:    %.0f%% / %.0f%%\n", 100.0 * pack_frac,
              100.0 * (1.0 - pack_frac));
  std::printf("\n-- sgemm micro-kernel, 1 thread, m 18 x n 600 x k 72 --\n");
  std::printf("dispatched isa:       %s\n", micro.isa);
  std::printf("dispatched:           %.2f GFLOP/s\n", micro.dispatched_gflops);
  std::printf("portable:             %.2f GFLOP/s\n", micro.portable_gflops);
  std::printf("dispatched/portable:  %.2fx\n",
              micro.dispatched_gflops / micro.portable_gflops);
  std::printf("\n-- int16 conv kernel, 1 thread, dense stage-1 spatial conv "
              "8->28 1x3x3 on 8x16x16 --\n");
  std::printf("dispatched isa:       %s\n", qconv.isa);
  std::printf("dispatched:           %.2f GMAC/s\n", qconv.dispatched_gmacs);
  std::printf("portable:             %.2f GMAC/s\n", qconv.portable_gmacs);
  std::printf("dispatched/portable:  %.2fx\n",
              qconv.dispatched_gmacs / qconv.portable_gmacs);
  std::printf("int32-exact channels: %.3f\n", qconv.int32_exact_frac);
  std::printf("\n-- prune-job epoch (TinyR2Plus1d 4/8/8, 128 clips) --\n");
  std::printf("1 thread:             %.1f ms\n", epoch.one_thread_ms);
  std::printf("%d threads:            %.1f ms\n", threads, epoch.pool_ms);
  std::printf("pool vs 1 thread:     %.2fx\n",
              epoch.one_thread_ms / epoch.pool_ms);

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n",
                 json_path.c_str());
    return;
  }
  out << "{\n"
      << "  \"threads\": " << ThreadPool::Get().threads() << ",\n"
      << "  \"train_step\": {\n"
      << "    \"config\": \"R(2+1)D residual block 8->16 ch, stride 2, "
         "input [2,8,4,16,16], 1 thread\",\n"
      << "    \"naive_ms\": " << naive_ms << ",\n"
      << "    \"gemm_ms\": " << gemm_ms << ",\n"
      << "    \"speedup\": " << speedup << "\n"
      << "  },\n"
      << "  \"conv3d_forward\": {\n"
      << "    \"config\": \"8->8 ch, 3x3x3, pad 1, input [1,8,8,16,16]\",\n"
      << "    \"gemm_gflops\": " << conv_gflops << "\n"
      << "  },\n"
      << "  \"gemm_split\": {\n"
      << "    \"pack_us\": " << pack_us << ",\n"
      << "    \"compute_us\": " << comp_us << ",\n"
      << "    \"pack_fraction\": " << pack_frac << "\n"
      << "  },\n"
      << "  \"sgemm\": {\n"
      << "    \"config\": \"m 18 x n 600 x k 72, 1 thread\",\n"
      << "    \"isa\": \"" << micro.isa << "\",\n"
      << "    \"dispatched_gflops\": " << micro.dispatched_gflops << ",\n"
      << "    \"portable_gflops\": " << micro.portable_gflops << ",\n"
      << "    \"dispatched_vs_portable\": "
      << micro.dispatched_gflops / micro.portable_gflops << "\n"
      << "  },\n"
      << "  \"qconv\": {\n"
      << "    \"config\": \"dense stage-1 spatial conv 8->28 ch, 1x3x3, "
         "pad (0,1,1), input 8x16x16 read in place, tiling [4,4,2,4,4], "
         "1 thread\",\n"
      << "    \"isa\": \"" << qconv.isa << "\",\n"
      << "    \"dispatched_gmacs\": " << qconv.dispatched_gmacs << ",\n"
      << "    \"portable_gmacs\": " << qconv.portable_gmacs << ",\n"
      << "    \"dispatched_vs_portable\": "
      << qconv.dispatched_gmacs / qconv.portable_gmacs << ",\n"
      << "    \"int32_exact_frac\": " << qconv.int32_exact_frac << "\n"
      << "  },\n"
      << "  \"prune_epoch\": {\n"
      << "    \"config\": \"TinyR2Plus1d 4/8/8 ch, 128 clips 6x10x10, "
         "batch 8\",\n"
      << "    \"pool_threads\": " << threads << ",\n"
      << "    \"one_thread_ms\": " << epoch.one_thread_ms << ",\n"
      << "    \"pool_ms\": " << epoch.pool_ms << ",\n"
      << "    \"pool_vs_one_thread\": "
      << epoch.one_thread_ms / epoch.pool_ms << "\n"
      << "  }\n"
      << "}\n";
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Extract --json-out=PATH before google-benchmark sees the args (it
  // rejects flags it does not know).
  std::string json_path = "BENCH_kernels.json";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_path = argv[i] + 11;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  RunEngineComparison(json_path);
  return 0;
}
