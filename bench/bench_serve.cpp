// Serving throughput/latency benchmark in two parts:
//
//  1. Executor comparison (serial Infers on one thread, the thread
//     count bench/baselines/BENCH_serve.json was recorded at): the
//     step-by-step cycle simulator (kSimulate), the fast compiled
//     executor on dense weights, and the fast executor on a 90%
//     block-pruned compile — the last demonstrates the wall-clock win
//     of physically eliding pruned tiles from the packed stream.
//  2. Batched InferenceServer on the fast executor at increasing
//     replica counts against a serial loop over the whole pool, on the
//     same clips.
//
// Writes BENCH_serve.json with both sections: an "executors" object
// (sim/fast/pruned clips-per-second plus the fast_vs_sim and
// pruned_vs_dense ratios, the thread count they were measured at and the
// int16 kernel ISA the fast executor dispatched to)
// and the per-replica "configs" array with
// throughput, speedup-vs-serial, and p50/p95/p99 latency.
//
// Replica scaling rides the process-wide hwp3d::ThreadPool, so size it
// to the host: bench_serve --threads 4 --replicas 1,2,4. Other flags:
// --clips N, --max-batch N, --max-delay-us N, --json-out=PATH.
//
// Fault sweep: --fault-rate=0.1 (or HWP_FAULTS=serve.replica_infer=0.1)
// injects transient replica failures. The bench then classifies every
// outcome — ok, truthful transient failure, or anything else — and
// exits non-zero only if a request was lost or resolved untruthfully.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/block_partition.h"
#include "data/synthetic_video.h"
#include "fpga/compiled_executor.h"
#include "fpga/model_compiler.h"
#include "kernels/qgemm_tile.h"
#include "kernels/thread_pool.h"
#include "models/tiny_r2plus1d.h"
#include "nn/trainer.h"
#include "obs/cli.h"
#include "obs/trace.h"
#include "report/table.h"
#include "serve/server.h"

using namespace hwp3d;

namespace {

struct Row {
  int replicas = 0;
  double throughput_cps = 0.0;
  double speedup = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double mean_batch = 0.0;
  long long batches = 0;
  long long ok = 0;
  long long transient_failed = 0;
  long long faults_injected = 0;
  long long retries = 0;
  long long quarantined = 0;
};

std::vector<int> ParseIntList(const char* s) {
  std::vector<int> out;
  int value = 0;
  bool have = false;
  for (; ; ++s) {
    if (*s >= '0' && *s <= '9') {
      value = value * 10 + (*s - '0');
      have = true;
    } else {
      if (have) out.push_back(value);
      value = 0;
      have = false;
      if (*s == '\0') break;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const obs::CliOptions obs_opts = obs::InitFromArgs(argc, argv);
  SetLogLevel(LogLevel::Warning);

  std::string json_path = "BENCH_serve.json";
  int num_clips = 64;
  int max_batch = 8;
  long long max_delay_us = 500;
  std::vector<int> replica_counts = {1, 2, 4};
  double fault_rate = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--clips=", 8) == 0) {
      num_clips = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--max-batch=", 12) == 0) {
      max_batch = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--max-delay-us=", 15) == 0) {
      max_delay_us = std::atoll(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--replicas=", 11) == 0) {
      replica_counts = ParseIntList(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--fault-rate=", 13) == 0) {
      fault_rate = std::atof(argv[i] + 13);
    }
  }
  if (fault_rate > 0.0) {
    FaultInjector::Get().Enable("serve.replica_infer",
                                {.probability = fault_rate});
  }
  // HWP_FAULTS in the environment also works: FaultInjector::Get()
  // parsed it on first access, so report whichever source is live.
  const bool faults_on = FaultInjector::Get().active();

  // Model + compile (same small configuration the serve tests use; one
  // adaptation epoch so BN statistics are sane).
  Rng rng(obs_opts.seed.value_or(11));
  models::TinyR2Plus1dConfig mcfg;
  mcfg.num_classes = 4;
  mcfg.stem_channels = 4;
  mcfg.stage1_channels = 8;
  mcfg.stage2_channels = 8;
  models::TinyR2Plus1d model(mcfg, rng);
  data::SyntheticVideoConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.frames = 6;
  dcfg.height = 10;
  dcfg.width = 10;
  data::SyntheticVideoDataset dataset(dcfg);
  {
    auto batches = dataset.MakeBatches(8, 8, rng);
    nn::Sgd opt(model.Params(),
                {.lr = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f});
    nn::TrainEpoch(model, opt, batches, {});
  }
  fpga::CompiledModelOptions copts;
  copts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  copts.executor = fpga::ExecMode::kSimulate;
  auto sim_model = fpga::CompiledTinyR2Plus1d::Compile(model, copts);
  copts.executor = fpga::ExecMode::kFast;
  auto fast_model = fpga::CompiledTinyR2Plus1d::Compile(model, copts);
  // 90% block-pruned compile: keep every 10th block of each prunable
  // conv's (Tm, Tn) grid. The weights are untouched (this measures the
  // packed stream shrinking, not accuracy); real flows get the masks
  // from core::AdmmPruner instead.
  for (nn::Conv3d* c : model.PrunableConvs()) {
    core::BlockPartition part(c->weight().value.shape(),
                              {copts.tiling.Tm, copts.tiling.Tn});
    core::BlockMask m = part.FullMask();
    int64_t idx = 0;
    for (int64_t bm = 0; bm < m.blocks_m; ++bm) {
      for (int64_t bn = 0; bn < m.blocks_n; ++bn, ++idx) {
        m.set(bm, bn, idx % 10 == 0);
      }
    }
    copts.masks.push_back(std::move(m));
  }
  auto pruned_model = fpga::CompiledTinyR2Plus1d::Compile(model, copts);
  if (!sim_model.ok() || !fast_model.ok() || !pruned_model.ok()) {
    std::fprintf(stderr, "%s\n", (!sim_model.ok() ? sim_model
                                  : !fast_model.ok() ? fast_model
                                                     : pruned_model)
                                     .status()
                                     .ToString()
                                     .c_str());
    return 1;
  }
  const fpga::CompiledTinyR2Plus1d& compiled = *fast_model;

  std::vector<TensorF> clips;
  for (int i = 0; i < num_clips; ++i) {
    clips.push_back(dataset.MakeSample(i % dcfg.num_classes, rng).clip);
  }

  // Executor comparison: serial Infers of the same clips, on one
  // thread. The baseline's ratios were recorded on one thread; over the
  // pool the fast executor's per-layer fan-out would fold the host's
  // core count and load into them. The executors take turns clip by
  // clip, so a drift in the host's speed slows all three alike, and
  // each rate is the inverse of the median Infer time, so a single
  // preempted Infer does not move it. A fast Infer takes a fraction of
  // a millisecond, so each clip runs kFastReps times on the fast
  // executors.
  constexpr int kExecutorThreads = 1;
  constexpr int kFastReps = 8;
  std::vector<double> sim_us, fast_us, pruned_us;
  {
    ThreadPool::SerialScope serial;
    const auto time_us = [](const fpga::CompiledTinyR2Plus1d& m,
                            const TensorF& clip, std::vector<double>& out) {
      const double t0 = obs::NowUs();
      (void)m.Infer(clip);
      out.push_back(obs::NowUs() - t0);
    };
    for (const TensorF& clip : clips) {
      time_us(*sim_model, clip, sim_us);
      for (int rep = 0; rep < kFastReps; ++rep) {
        time_us(*fast_model, clip, fast_us);
        time_us(*pruned_model, clip, pruned_us);
      }
    }
  }
  const auto median_cps = [](std::vector<double>& us) {
    std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
    return 1e6 / us[us.size() / 2];
  };
  const double sim_cps = median_cps(sim_us);
  const double fast_cps = median_cps(fast_us);
  const double pruned_cps = median_cps(pruned_us);
  const double fast_vs_sim = fast_cps / sim_cps;
  const double pruned_vs_dense = pruned_cps / fast_cps;

  // Serial baseline for the serving section: one replica, no queue, no
  // batching, the fast executor over the whole pool.
  const double serial_t0 = obs::NowUs();
  for (const TensorF& clip : clips) (void)compiled.Infer(clip);
  const double serial_us = obs::NowUs() - serial_t0;
  const double serial_cps = 1e6 * num_clips / serial_us;
  const double serial_mean_ms = serial_us / num_clips / 1000.0;

  std::vector<Row> rows;
  for (int replicas : replica_counts) {
    serve::ServerConfig cfg;
    cfg.replicas = replicas;
    cfg.max_batch = max_batch;
    cfg.max_delay_us = max_delay_us;
    cfg.queue_capacity = static_cast<size_t>(num_clips) * 2;
    serve::InferenceServer server(compiled, cfg);

    const double t0 = obs::NowUs();
    std::vector<std::future<StatusOr<serve::InferenceResult>>> futures;
    futures.reserve(clips.size());
    for (const TensorF& clip : clips) {
      futures.push_back(server.SubmitAsync(clip));
    }
    // Zero request loss: every future must resolve, and every failure
    // must be a truthful transient (kUnavailable after exhausted
    // retries under injection). Anything else is a serving bug.
    long long ok = 0, transient = 0, lost = 0;
    for (auto& f : futures) {
      auto r = f.get();
      if (r.ok()) {
        ++ok;
      } else if (r.status().code() == StatusCode::kUnavailable) {
        ++transient;
      } else {
        std::fprintf(stderr, "replicas=%d: untruthful outcome: %s\n",
                     replicas, r.status().ToString().c_str());
        ++lost;
      }
    }
    const double wall_us = obs::NowUs() - t0;
    if (lost != 0) return 1;
    if (!faults_on && transient != 0) {
      std::fprintf(stderr, "replicas=%d: %lld requests failed\n", replicas,
                   transient);
      return 1;
    }
    const serve::ServerStats stats = server.Stats();
    Row row;
    row.replicas = replicas;
    row.throughput_cps = 1e6 * num_clips / wall_us;
    row.speedup = row.throughput_cps / serial_cps;
    row.p50_ms = stats.p50_ms;
    row.p95_ms = stats.p95_ms;
    row.p99_ms = stats.p99_ms;
    row.mean_batch = stats.mean_batch_size;
    row.batches = stats.batches;
    row.ok = ok;
    row.transient_failed = transient;
    row.faults_injected = stats.faults_injected;
    row.retries = stats.retries;
    row.quarantined = stats.replicas_quarantined;
    rows.push_back(row);
  }

  const int threads = ThreadPool::Get().threads();

  report::Table exec_table("Executor comparison (serial Infer loop, 1 thread)");
  exec_table.Header({"Executor", "Clips/s", "vs sim", "vs fast dense"});
  exec_table.Row({"sim", report::Table::Num(sim_cps, 1),
                  report::Table::Ratio(1.0, 2), "-"});
  exec_table.Row({"fast dense", report::Table::Num(fast_cps, 1),
                  report::Table::Ratio(fast_vs_sim, 2),
                  report::Table::Ratio(1.0, 2)});
  exec_table.Row({"fast 90% pruned", report::Table::Num(pruned_cps, 1),
                  report::Table::Ratio(pruned_cps / sim_cps, 2),
                  report::Table::Ratio(pruned_vs_dense, 2)});
  exec_table.Print();

  report::Table table(faults_on
                          ? "Batched serving vs serial Infer loop (faults on)"
                          : "Batched serving vs serial Infer loop");
  table.Header({"Config", "Clips/s", "Speedup", "p50 ms", "p95 ms",
                "p99 ms", "Mean batch", "Faults", "Retries", "Quar"});
  table.Row({"serial x1", report::Table::Num(serial_cps, 1),
             report::Table::Ratio(1.0, 2),
             report::Table::Num(serial_mean_ms, 2), "-", "-", "-", "-", "-",
             "-"});
  for (const Row& r : rows) {
    table.Row({"serve x" + std::to_string(r.replicas),
               report::Table::Num(r.throughput_cps, 1),
               report::Table::Ratio(r.speedup, 2),
               report::Table::Num(r.p50_ms, 2),
               report::Table::Num(r.p95_ms, 2),
               report::Table::Num(r.p99_ms, 2),
               report::Table::Num(r.mean_batch, 1),
               std::to_string(r.faults_injected),
               std::to_string(r.retries),
               std::to_string(r.quarantined)});
  }
  table.Print();
  std::printf("(executor: fast; thread pool: %d threads; batching: "
              "max_batch %d, max_delay %lld us)\n",
              threads, max_batch, max_delay_us);
  if (faults_on) {
    long long ok = 0, transient = 0;
    for (const Row& r : rows) {
      ok += r.ok;
      transient += r.transient_failed;
    }
    std::printf("fault sweep: %lld ok, %lld truthful transient failures, "
                "0 lost\n",
                ok, transient);
  }

  std::ofstream os(json_path);
  os << "{\n"
     << "  \"bench\": \"serve\",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"clips\": " << num_clips << ",\n"
     << "  \"max_batch\": " << max_batch << ",\n"
     << "  \"max_delay_us\": " << max_delay_us << ",\n"
     << "  \"fault_rate\": " << fault_rate << ",\n"
     << "  \"faults_on\": " << (faults_on ? "true" : "false") << ",\n"
     << "  \"executor\": \"fast\",\n"
     << "  \"executors\": {\"threads\": " << kExecutorThreads
     << ", \"isa\": \"" << kernels::QIsaName(kernels::ActiveQIsa()) << "\""
     << ", \"sim_cps\": " << sim_cps
     << ", \"fast_dense_cps\": " << fast_cps
     << ", \"fast_pruned90_cps\": " << pruned_cps
     << ", \"fast_vs_sim\": " << fast_vs_sim
     << ", \"pruned_vs_dense\": " << pruned_vs_dense << "},\n"
     << "  \"serial\": {\"throughput_cps\": " << serial_cps
     << ", \"mean_ms\": " << serial_mean_ms << "},\n"
     << "  \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"replicas\": " << r.replicas
       << ", \"throughput_cps\": " << r.throughput_cps
       << ", \"speedup_vs_serial\": " << r.speedup
       << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
       << ", \"p99_ms\": " << r.p99_ms
       << ", \"mean_batch\": " << r.mean_batch
       << ", \"batches\": " << r.batches
       << ", \"ok\": " << r.ok
       << ", \"transient_failed\": " << r.transient_failed
       << ", \"faults_injected\": " << r.faults_injected
       << ", \"retries\": " << r.retries
       << ", \"replicas_quarantined\": " << r.quarantined << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
