// Serving throughput/latency benchmark in two parts:
//
//  1. Executor comparison (serial Infers on one thread, the thread
//     count bench/baselines/BENCH_serve.json was recorded at): the
//     step-by-step cycle simulator (kSimulate), the fast compiled
//     executor on dense weights, and the fast executor on a 90%
//     block-pruned compile — the last demonstrates the wall-clock win
//     of physically eliding pruned tiles from the packed stream.
//  2. Throughput against serving lanes: an InferenceServer on the fast
//     executor with 1, 2, ... nproc replica lanes, each kept saturated
//     by a closed loop of 2 x lanes x max_batch requests in flight, next
//     to a one-thread serial Infer loop over the same clips. One lane
//     fans each clip out over the pool; several lanes each run their
//     clips serially on their own thread. Scaling efficiency is lane
//     throughput / (lanes x serial throughput).
//
// Writes BENCH_serve.json with both sections: an "executors" object
// (sim/fast/pruned clips-per-second plus the fast_vs_sim and
// pruned_vs_dense ratios, the thread count they were measured at and the
// int16 kernel ISA the fast executor dispatched to), a "lanes" object
// (the largest lane count and its scaling efficiency) and the per-lane
// "configs" array with throughput, speedup and efficiency against the
// serial loop, mean batch and p50/p95/p99 latency.
//
// The single lane rides the process-wide hwp3d::ThreadPool, so size it
// to the host: bench_serve --threads 4. Other flags: --replicas=1,2,4
// (lane counts; default 1..nproc), --clips=N, --max-batch=N,
// --json-out=PATH.
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
#include <thread>
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
  double speedup = 0.0;     // throughput / its serial loop's throughput
  double efficiency = 0.0;  // speedup / replicas
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

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

// One closed-loop run: `requests` clips through a `replicas`-lane
// server with 2 x replicas x max_batch requests in flight, so every
// lane always finds work. Returns false when a request was lost or
// resolved untruthfully (anything but OK or, with faults on, a
// transient kUnavailable).
bool RunLanes(const fpga::CompiledModel& model,
              const std::vector<TensorF>& clips, int replicas, int max_batch,
              int requests, bool faults_on, Row& row) {
  const int window = 2 * replicas * max_batch;
  serve::ServerConfig cfg;
  cfg.replicas = replicas;
  cfg.max_batch = max_batch;
  cfg.queue_capacity = static_cast<size_t>(window);
  serve::InferenceServer server(model, cfg);

  std::vector<std::future<StatusOr<serve::InferenceResult>>> futures;
  futures.reserve(static_cast<size_t>(requests));
  const auto submit = [&] {
    futures.push_back(server.SubmitAsync(clips[futures.size() % clips.size()]));
  };
  const double t0 = obs::NowUs();
  while (static_cast<int>(futures.size()) < std::min(window, requests)) {
    submit();
  }
  long long ok = 0, transient = 0, lost = 0;
  for (int i = 0; i < requests; ++i) {
    auto r = futures[static_cast<size_t>(i)].get();
    if (static_cast<int>(futures.size()) < requests) submit();
    if (r.ok()) {
      ++ok;
    } else if (r.status().code() == StatusCode::kUnavailable && faults_on) {
      ++transient;
    } else {
      std::fprintf(stderr, "replicas=%d: untruthful outcome: %s\n",
                   replicas, r.status().ToString().c_str());
      ++lost;
    }
  }
  const double wall_us = obs::NowUs() - t0;
  const serve::ServerStats stats = server.Stats();
  row.replicas = replicas;
  row.throughput_cps = 1e6 * requests / wall_us;
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
  return lost == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const obs::CliOptions obs_opts = obs::InitFromArgs(argc, argv);
  SetLogLevel(LogLevel::Warning);

  std::string json_path = "BENCH_serve.json";
  int num_clips = 64;
  // Per run: long enough that a run outlasts the host's scheduling
  // hiccups, short enough for 7 trials of every lane count in seconds.
  constexpr int kRequestsPerRun = 2048;
  int max_batch = 8;
  std::vector<int> replica_counts;
  for (int r = 1; r <= static_cast<int>(std::thread::hardware_concurrency());
       ++r) {
    replica_counts.push_back(r);
  }
  if (replica_counts.empty()) replica_counts.push_back(1);
  double fault_rate = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--clips=", 8) == 0) {
      num_clips = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--max-batch=", 12) == 0) {
      max_batch = std::atoi(argv[i] + 12);
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
  auto sim_model = fpga::CompiledModel::Compile(model, copts);
  copts.executor = fpga::ExecMode::kFast;
  auto fast_model = fpga::CompiledModel::Compile(model, copts);
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
  auto pruned_model = fpga::CompiledModel::Compile(model, copts);
  if (!sim_model.ok() || !fast_model.ok() || !pruned_model.ok()) {
    std::fprintf(stderr, "%s\n", (!sim_model.ok() ? sim_model
                                  : !fast_model.ok() ? fast_model
                                                     : pruned_model)
                                     .status()
                                     .ToString()
                                     .c_str());
    return 1;
  }
  const fpga::CompiledModel& compiled = *fast_model;

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
    const auto time_us = [](const fpga::CompiledModel& m,
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
  const double sim_cps = 1e6 / Median(sim_us);
  const double fast_cps = 1e6 / Median(fast_us);
  const double pruned_cps = 1e6 / Median(pruned_us);
  const double fast_vs_sim = fast_cps / sim_cps;
  const double pruned_vs_dense = pruned_cps / fast_cps;

  // Throughput against lanes. Every lane-count run follows its own
  // one-thread serial loop, and its speedup is taken against that
  // loop, so a drift in the host's speed hits both sides of the ratio
  // alike. The run with the median speedup over kTrials stands for its
  // lane count.
  constexpr int kTrials = 7;
  const auto serial_loop_cps = [&] {
    ThreadPool::SerialScope serial;
    const double t0 = obs::NowUs();
    for (int i = 0; i < kRequestsPerRun; ++i) {
      (void)compiled.Infer(clips[static_cast<size_t>(i) % clips.size()]);
    }
    return 1e6 * kRequestsPerRun / (obs::NowUs() - t0);
  };
  std::vector<double> serial_runs;
  std::vector<std::vector<Row>> trials(replica_counts.size());
  for (int t = 0; t < kTrials; ++t) {
    for (size_t k = 0; k < replica_counts.size(); ++k) {
      serial_runs.push_back(serial_loop_cps());
      Row row;
      if (!RunLanes(compiled, clips, replica_counts[k], max_batch,
                    kRequestsPerRun, faults_on, row)) {
        return 1;
      }
      row.speedup = row.throughput_cps / serial_runs.back();
      row.efficiency = row.speedup / row.replicas;
      trials[k].push_back(row);
    }
  }
  const double serial_cps = Median(serial_runs);
  std::vector<Row> rows;
  for (std::vector<Row>& runs : trials) {
    std::sort(runs.begin(), runs.end(), [](const Row& a, const Row& b) {
      return a.speedup < b.speedup;
    });
    rows.push_back(runs[runs.size() / 2]);
  }

  const Row& widest = *std::max_element(
      rows.begin(), rows.end(),
      [](const Row& a, const Row& b) { return a.replicas < b.replicas; });
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

  report::Table table(
      faults_on ? "Serving throughput vs lanes, closed loop (faults on)"
                : "Serving throughput vs lanes, closed loop");
  table.Header({"Config", "Clips/s", "Speedup", "Efficiency", "p50 ms",
                "p95 ms", "p99 ms", "Mean batch", "Faults", "Retries",
                "Quar"});
  table.Row({"serial x1 thread", report::Table::Num(serial_cps, 1),
             report::Table::Ratio(1.0, 2), report::Table::Num(1.0, 2), "-",
             "-", "-", "-", "-", "-", "-"});
  for (const Row& r : rows) {
    table.Row({"serve x" + std::to_string(r.replicas),
               report::Table::Num(r.throughput_cps, 1),
               report::Table::Ratio(r.speedup, 2),
               report::Table::Num(r.efficiency, 2),
               report::Table::Num(r.p50_ms, 2),
               report::Table::Num(r.p95_ms, 2),
               report::Table::Num(r.p99_ms, 2),
               report::Table::Num(r.mean_batch, 1),
               std::to_string(r.faults_injected),
               std::to_string(r.retries),
               std::to_string(r.quarantined)});
  }
  table.Print();
  std::printf("(executor: fast; thread pool: %d threads; max_batch %d; "
              "%d requests per run, median speedup of %d trials)\n",
              threads, max_batch, kRequestsPerRun, kTrials);
  if (faults_on) {
    long long ok = 0, transient = 0;
    for (const std::vector<Row>& runs : trials) {
      for (const Row& r : runs) {
        ok += r.ok;
        transient += r.transient_failed;
      }
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
     << "  \"requests\": " << kRequestsPerRun << ",\n"
     << "  \"max_batch\": " << max_batch << ",\n"
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
     << "  \"serial\": {\"threads\": 1, \"throughput_cps\": " << serial_cps
     << "},\n"
     << "  \"lanes\": {\"max\": " << widest.replicas
     << ", \"efficiency\": " << widest.efficiency << "},\n"
     << "  \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"replicas\": " << r.replicas
       << ", \"throughput_cps\": " << r.throughput_cps
       << ", \"speedup_vs_serial\": " << r.speedup
       << ", \"efficiency\": " << r.efficiency
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
