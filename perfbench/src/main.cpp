// Benchmark driver: runs one workload of the repository benchmark and
// writes every metric it measured to a JSON file.
//
//   perfbench --workload=serve_dense --seed=7 --seconds=20 --trace=0
//             --out=result.json [--trace-out=trace.json] --<key>=<value>...
//
// perfbench/run.py builds this program, passes the workload's frozen
// configuration from perfbench/workloads.json as --<key>=<value> flags,
// and prints the result line. Every run has the same shape:
//
//  1. Offline prune job (timed as prune_s): seeded synthetic clips,
//     pretraining, Algorithm 1 (core::RunAdmmPipeline: ADMM rho rounds,
//     hard prune, masked retraining), a compile at the pruned masks, and
//     top-1 accuracy of the compiled model on held-out clips.
//  2. Serving set-up, repeated (median is setup_s): the workload's clip
//     pool, model build plus a BN adaptation epoch, a fast compile
//     (dense or block-pruned), and the InferenceServer constructor.
//  3. Timed serving phases, as shares of --seconds: a closed loop
//     (peak_cps), then an open loop at the base rate (p50_ms).
//  4. Checks, after the timed phases: sampled served responses must be
//     bitwise equal (logits and CompiledRunStats) to a direct Infer of
//     the same clip, a few also to a kSimulate compile of the same model.
//
// With --trace=1 the run also records spans around each call into a
// layer, runs the base phase once untraced and once traced (their p50
// difference is the tracing overhead), runs the high rate and the rate
// ladder, times direct serial Infer, and writes a Chrome trace. The
// latency tails (p95 at the base and high rates) and the ladder's
// slo_cps swing across runs on a shared host far more than the speed of
// the host does, so they are per-layer figures of the traced run,
// watched but not bounded.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/block_partition.h"
#include "core/pipeline.h"
#include "data/synthetic_video.h"
#include "fpga/device.h"
#include "fpga/model_compiler.h"
#include "kernels/thread_pool.h"
#include "loadgen.h"
#include "models/tiny_r2plus1d.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "spans.h"

using namespace hwp3d;
using perfbench::Outcome;
using perfbench::Percentile;
using perfbench::PhaseResult;
using perfbench::SpanRecorder;

namespace {

// ---------------------------------------------------------------- flags

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      const char* eq = std::strchr(a, '=');
      if (std::strncmp(a, "--", 2) != 0 || eq == nullptr) {
        throw std::runtime_error(std::string("bad flag: ") + a);
      }
      kv_[std::string(a + 2, eq)] = eq + 1;
    }
  }
  std::string Str(const std::string& k) const {
    auto it = kv_.find(k);
    if (it == kv_.end()) throw std::runtime_error("missing flag --" + k);
    return it->second;
  }
  std::string Str(const std::string& k, const std::string& dflt) const {
    return kv_.count(k) ? Str(k) : dflt;
  }
  double Num(const std::string& k) const { return std::stod(Str(k)); }
  int64_t Int(const std::string& k) const { return std::stoll(Str(k)); }
  std::vector<double> Nums(const std::string& k) const {
    std::vector<double> out;
    std::stringstream ss(Str(k));
    for (std::string item; std::getline(ss, item, ',');) {
      out.push_back(std::stod(item));
    }
    return out;
  }
  fpga::Tiling Tiling(const std::string& k) const {
    const std::vector<double> t = Nums(k);
    if (t.size() != 5) throw std::runtime_error("--" + k + " needs 5 ints");
    return {static_cast<int64_t>(t[0]), static_cast<int64_t>(t[1]),
            static_cast<int64_t>(t[2]), static_cast<int64_t>(t[3]),
            static_cast<int64_t>(t[4])};
  }

 private:
  std::map<std::string, std::string> kv_;
};

// Independent seed streams derived from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Settings every workload shares.
constexpr int kSetupReps = 5;      // setup_s is the median of these
constexpr double kWarmupS = 1.0;   // closed loop before the timed phases
constexpr int kAdaptBatch = 8;     // BN adaptation batch size

// -------------------------------------------------------------- output

// Metric values as measured, by name, with their unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  return "\"" + obs::JsonEscape(s) + "\"";
}

std::string MetricsJson(const MetricMap& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    out += (out.size() > 1 ? ", " : "") + Quote(name) +
           ": {\"value\": " + Num(metric.value) +
           ", \"unit\": " + Quote(metric.unit) + "}";
  }
  return out + "}";
}

std::string NumMapJson(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    out += (out.size() > 1 ? ", " : "") + Quote(k) + ": " + Num(v);
  }
  return out + "}";
}

// ------------------------------------------------------------ counters

// Current value of every exported counter and gauge, summed over labels.
std::map<std::string, double> CounterValues() {
  std::map<std::string, double> out;
  for (const obs::MetricSnapshot& s : obs::MetricsRegistry::Get().Snapshot()) {
    if (s.kind == obs::MetricKind::Counter) {
      out[s.name] += static_cast<double>(s.counter_value);
    } else if (s.kind == obs::MetricKind::Gauge) {
      out[s.name] += s.gauge_value;
    }
  }
  return out;
}

// Counter deltas (gauges: value after) over one phase of the run.
class PhaseCounters {
 public:
  void Begin(const std::string& phase) {
    phase_ = phase;
    before_ = CounterValues();
  }
  void End() {
    std::map<std::string, double>& d = deltas_[phase_];
    for (const auto& [k, v] : CounterValues()) {
      const auto it = before_.find(k);
      d[k] += v - (it == before_.end() ? 0.0 : it->second);
    }
  }
  double Delta(const std::string& phase, const std::string& key) const {
    const auto p = deltas_.find(phase);
    if (p == deltas_.end()) return 0.0;
    const auto k = p->second.find(key);
    return k == p->second.end() ? 0.0 : k->second;
  }
  std::string Json() const {
    std::string out = "{";
    for (const auto& [phase, d] : deltas_) {
      out += (out.size() > 1 ? ", " : "") + Quote(phase) + ": " +
             NumMapJson(d);
    }
    return out + "}";
  }

 private:
  std::string phase_;
  std::map<std::string, double> before_;
  std::map<std::string, std::map<std::string, double>> deltas_;
};

// --------------------------------------------------------- prune job

struct PruneResult {
  double prune_s = 0.0;     // pretraining + Algorithm 1 + compile
  double top1 = 0.0;        // compiled pruned model, held-out clips
  double data_ms = 0.0;
  double pretrain_s = 0.0;
  double admm_s = 0.0;      // RunAdmmPipeline (rounds, prune, retrain)
  double compile_ms = 0.0;
  double eval_s = 0.0;      // nn::Evaluate of the pretrained model
  double primal_final = 0.0;
};

PruneResult RunPruneJob(const Args& a, uint64_t seed, SpanRecorder& spans) {
  SpanRecorder::Scope job(spans, "bench/prune_job");
  PruneResult out;
  data::SyntheticVideoConfig dcfg;
  dcfg.num_classes = static_cast<int>(a.Int("prune.classes"));
  dcfg.frames = static_cast<int>(a.Int("prune.frames"));
  dcfg.height = static_cast<int>(a.Int("prune.height"));
  dcfg.width = static_cast<int>(a.Int("prune.width"));
  const data::SyntheticVideoDataset dataset(dcfg);
  const int batch = static_cast<int>(a.Int("prune.batch"));
  Rng rng(SubSeed(seed, 1));

  double t = obs::NowUs();
  std::vector<nn::Batch> train, check;
  std::vector<data::Sample> held_out;
  {
    SpanRecorder::Scope s(spans, "data/gen", job.id());
    train = dataset.MakeBatches(static_cast<int>(a.Int("prune.train_clips")),
                                batch, rng);
    check = dataset.MakeBatches(static_cast<int>(a.Int("prune.check_clips")),
                                batch, rng);
    held_out = dataset.MakeSamples(
        static_cast<int>(a.Int("prune.score_clips")), rng);
  }
  out.data_ms = (obs::NowUs() - t) / 1e3;

  models::TinyR2Plus1dConfig mcfg;
  mcfg.num_classes = dcfg.num_classes;
  mcfg.stem_channels = a.Int("prune.stem");
  mcfg.stage1_channels = a.Int("prune.stage1");
  mcfg.stage2_channels = a.Int("prune.stage2");
  models::TinyR2Plus1d model(mcfg, rng);

  const double t_prune = obs::NowUs();
  {
    SpanRecorder::Scope s(spans, "nn/pretrain", job.id());
    const int epochs = static_cast<int>(a.Int("prune.pretrain_epochs"));
    const float lr = static_cast<float>(a.Num("prune.pretrain_lr"));
    nn::Sgd opt(model.Params(),
                {.lr = lr, .momentum = 0.9f, .weight_decay = 0.0f});
    nn::WarmupCosineLr schedule(lr, 1, epochs);
    for (int e = 0; e < epochs; ++e) {
      opt.set_lr(schedule.LrAt(e));
      nn::TrainEpoch(model, opt, train, {});
    }
  }
  out.pretrain_s = (obs::NowUs() - t_prune) / 1e6;

  t = obs::NowUs();
  {
    SpanRecorder::Scope s(spans, "nn/eval", job.id());
    nn::Evaluate(model, check);
  }
  out.eval_s = (obs::NowUs() - t) / 1e6;

  const fpga::Tiling tiling = a.Tiling("prune.tiling");
  std::vector<core::PruneLayerSpec> specs;
  for (nn::Conv3d* c : model.PrunableConvs()) {
    specs.push_back({&c->weight(), tiling.block(), a.Num("prune.eta"),
                     c->name()});
  }
  core::AdmmConfig admm;
  admm.rho_schedule = a.Nums("prune.rho");
  core::AdmmPruner pruner(specs, admm);
  core::PipelineConfig pcfg;
  pcfg.admm = admm;
  pcfg.epochs_per_round = static_cast<int>(a.Int("prune.epochs_per_round"));
  pcfg.retrain_epochs = static_cast<int>(a.Int("prune.retrain_epochs"));
  pcfg.retrain_warmup_epochs = 1;
  pcfg.admm_lr = static_cast<float>(a.Num("prune.lr"));
  pcfg.retrain_lr = static_cast<float>(a.Num("prune.lr"));
  t = obs::NowUs();
  core::PipelineResult pres;
  {
    SpanRecorder::Scope s(spans, "core/admm_pipeline", job.id());
    pres = core::RunAdmmPipeline(model, pruner, train, check, pcfg);
  }
  out.admm_s = (obs::NowUs() - t) / 1e6;
  if (!pres.residual_history.empty()) {
    out.primal_final = pres.residual_history.back().primal;
  }

  fpga::CompiledModelOptions copts;
  copts.tiling = tiling;
  copts.masks = pruner.masks();
  copts.executor = fpga::ExecMode::kFast;
  t = obs::NowUs();
  std::optional<fpga::CompiledTinyR2Plus1d> compiled;
  {
    SpanRecorder::Scope s(spans, "fpga/compile", job.id());
    auto c = fpga::CompiledTinyR2Plus1d::Compile(model, copts);
    if (!c.ok()) throw std::runtime_error(c.status().ToString());
    compiled.emplace(std::move(c).value());
  }
  out.compile_ms = (obs::NowUs() - t) / 1e3;
  out.prune_s = (obs::NowUs() - t_prune) / 1e6;

  SpanRecorder::Scope s(spans, "fpga/score", job.id());
  int64_t hits = 0;
  for (const data::Sample& sample : held_out) {
    hits += compiled->Classify(sample.clip) == sample.label ? 1 : 0;
  }
  out.top1 = static_cast<double>(hits) / static_cast<double>(held_out.size());
  return out;
}

// ------------------------------------------------------- serving setup

struct Serving {
  std::vector<TensorF> pool;  // distinct clips; requests perturb them
  std::unique_ptr<models::TinyR2Plus1d> model;
  fpga::CompiledModelOptions copts;
  std::optional<fpga::CompiledTinyR2Plus1d> compiled;
  std::unique_ptr<serve::InferenceServer> server;
  double setup_s = 0.0, data_ms = 0.0, compile_ms = 0.0, start_ms = 0.0;

  // The clip of request `id`: a pool clip with one pixel raised by an
  // amount unique to the id, so no two requests carry the same input
  // (before or after Q7.8 quantization).
  TensorF Clip(int64_t id) const {
    const int64_t p = static_cast<int64_t>(pool.size());
    TensorF c = pool[static_cast<size_t>(id % p)];
    const int64_t k = id / p;
    c[k % c.numel()] += 0.25f * static_cast<float>(1 + k / c.numel());
    return c;
  }
};

serve::ServerConfig ServerConfigFrom(const Args& a) {
  serve::ServerConfig cfg;
  cfg.replicas = static_cast<int>(a.Int("server.replicas"));
  cfg.max_batch = static_cast<int>(a.Int("server.max_batch"));
  cfg.max_delay_us = a.Int("server.max_delay_us");
  cfg.queue_capacity = static_cast<size_t>(a.Int("server.queue_capacity"));
  return cfg;
}

// Keeps `keep` of every block of the grid, evenly spaced in row-major
// block order (sparsity 0.9 keeps every tenth block).
core::BlockMask EvenMask(const core::BlockPartition& part, double keep) {
  core::BlockMask m = part.FullMask();
  int64_t idx = 0;
  for (int64_t bm = 0; bm < m.blocks_m; ++bm) {
    for (int64_t bn = 0; bn < m.blocks_n; ++bn, ++idx) {
      const bool on = std::floor((idx + 1) * keep) > std::floor(idx * keep) ||
                      keep >= 1.0;
      m.set(bm, bn, on);
    }
  }
  return m;
}

std::unique_ptr<Serving> SetUpServing(const Args& a, uint64_t seed,
                                      SpanRecorder& spans) {
  SpanRecorder::Scope setup(spans, "bench/setup");
  auto s = std::make_unique<Serving>();
  const double t0 = obs::NowUs();
  data::SyntheticVideoConfig dcfg;
  dcfg.num_classes = static_cast<int>(a.Int("model.classes"));
  dcfg.frames = static_cast<int>(a.Int("clip.frames"));
  dcfg.height = static_cast<int>(a.Int("clip.height"));
  dcfg.width = static_cast<int>(a.Int("clip.width"));
  const data::SyntheticVideoDataset dataset(dcfg);
  Rng rng(SubSeed(seed, 2));
  std::vector<nn::Batch> adapt;
  {
    SpanRecorder::Scope sp(spans, "data/gen", setup.id());
    for (data::Sample& x : dataset.MakeSamples(
             static_cast<int>(a.Int("pool.clips")), rng)) {
      s->pool.push_back(std::move(x.clip));
    }
    adapt = dataset.MakeBatches(static_cast<int>(a.Int("adapt.clips")),
                                kAdaptBatch, rng);
  }
  const double t1 = obs::NowUs();

  models::TinyR2Plus1dConfig mcfg;
  mcfg.num_classes = dcfg.num_classes;
  mcfg.stem_channels = a.Int("model.stem");
  mcfg.stage1_channels = a.Int("model.stage1");
  mcfg.stage2_channels = a.Int("model.stage2");
  s->model = std::make_unique<models::TinyR2Plus1d>(mcfg, rng);
  {
    // One epoch so the folded BN statistics are those of real clips.
    SpanRecorder::Scope sp(spans, "nn/adapt", setup.id());
    nn::Sgd opt(s->model->Params(),
                {.lr = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f});
    nn::TrainEpoch(*s->model, opt, adapt, {});
  }
  const double t2 = obs::NowUs();

  s->copts.tiling = a.Tiling("model.tiling");
  s->copts.executor = fpga::ExecMode::kFast;
  const double sparsity = a.Num("model.sparsity");
  if (sparsity > 0.0) {
    for (nn::Conv3d* c : s->model->PrunableConvs()) {
      core::BlockPartition part(c->weight().value.shape(),
                                s->copts.tiling.block());
      s->copts.masks.push_back(EvenMask(part, 1.0 - sparsity));
    }
  }
  {
    SpanRecorder::Scope sp(spans, "fpga/compile", setup.id());
    auto c = fpga::CompiledTinyR2Plus1d::Compile(*s->model, s->copts);
    if (!c.ok()) throw std::runtime_error(c.status().ToString());
    s->compiled.emplace(std::move(c).value());
  }
  const double t3 = obs::NowUs();
  {
    SpanRecorder::Scope sp(spans, "serve/start", setup.id());
    s->server = std::make_unique<serve::InferenceServer>(*s->compiled,
                                                         ServerConfigFrom(a));
  }
  const double t4 = obs::NowUs();
  s->data_ms = (t1 - t0) / 1e3;
  s->compile_ms = (t3 - t2) / 1e3;
  s->start_ms = (t4 - t3) / 1e3;
  s->setup_s = (t4 - t0) / 1e6;
  return s;
}

// ---------------------------------------------------- served responses

bool SameStats(const fpga::CompiledRunStats& x,
               const fpga::CompiledRunStats& y) {
  return x.modeled_cycles == y.modeled_cycles &&
         x.blocks_loaded == y.blocks_loaded &&
         x.blocks_skipped == y.blocks_skipped &&
         x.macs_executed == y.macs_executed;
}

bool SameLogits(const TensorF& x, const TensorF& y) {
  return x.numel() == y.numel() &&
         std::memcmp(x.data(), y.data(), sizeof(float) * x.numel()) == 0;
}

// Everything the benchmark keeps from served responses.
struct Responses {
  int classes = 0;
  int max_batch = 0;
  int replicas = 0;
  uint64_t seed = 0;
  int64_t sample_every = 1;   // keep every n-th (seeded) response
  size_t sample_cap = 0;
  bool keep_samples = false;  // only during the base and high phases
  int64_t trace_every = 1;    // request spans for every n-th request
  bool record_spans = false;
  int64_t untruthful = 0;
  std::vector<std::string> problems;
  std::vector<Outcome> samples;
  std::vector<double> queue_us, service_us, submit_us;
  bool collect_layer = false;
  SpanRecorder* spans = nullptr;

  void Problem(const std::string& p) {
    if (problems.size() < 20) problems.push_back(p);
  }

  void operator()(const Outcome& o) {
    if (!o.resolved) {
      Problem("request " + std::to_string(o.id) + ": future never resolved");
      return;
    }
    if (!o.result.ok()) {
      Problem("request " + std::to_string(o.id) + ": " +
              o.result.status().ToString());
      return;
    }
    const serve::InferenceResult& r = o.result.value();
    int arg = 0;
    for (int64_t k = 1; k < r.logits.numel(); ++k) {
      if (r.logits[k] > r.logits[arg]) arg = static_cast<int>(k);
    }
    const bool truthful = r.logits.numel() == classes && r.label == arg &&
                          r.batch_size >= 1 && r.batch_size <= max_batch &&
                          r.replica >= 0 && r.replica < replicas &&
                          r.queue_us >= 0.0 && r.queue_us <= r.total_us;
    if (!truthful) {
      ++untruthful;
      Problem("request " + std::to_string(o.id) + ": inconsistent result");
    }
    if (collect_layer) {
      queue_us.push_back(r.queue_us);
      service_us.push_back(r.total_us - r.queue_us);
      submit_us.push_back(o.submit_us);
    }
    if (keep_samples && samples.size() < sample_cap &&
        SubSeed(seed, static_cast<uint64_t>(o.id)) %
                static_cast<uint64_t>(sample_every) ==
            0) {
      samples.push_back(o);
    }
    if (record_spans && o.id % trace_every == 0) {
      const double enq = o.sent_us;
      const uint64_t root = spans->Add("loadgen/request", 0, o.id, o.due_us,
                                       o.due_us + o.latency_us());
      spans->Add("loadgen/lag", root, o.id, o.due_us, o.sent_us);
      spans->Add("serve/submit", root, o.id, o.sent_us,
                 o.sent_us + o.submit_us);
      spans->Add("serve/queue", root, o.id, enq, enq + r.queue_us);
      spans->Add("serve/service", root, o.id, enq + r.queue_us,
                 enq + r.total_us);
    }
  }
};

// ------------------------------------------------------------ phases

struct Rung {
  double rate = 0.0;
  double p95_ms = 0.0;
  bool pass = false;
  PhaseResult r;
};

struct LoadPlan {
  std::string arrival;
  perfbench::BurstShape burst;
  double slo_ms = 0.0;
  int64_t in_flight_cap = 0;  // replicas * max_batch
};

std::vector<double> Schedule(const LoadPlan& plan, double rate,
                             double seconds, uint64_t seed) {
  if (plan.arrival == "burst") {
    return perfbench::BurstSchedule(rate, seconds, plan.burst, seed);
  }
  if (plan.arrival == "poisson") {
    return perfbench::PoissonSchedule(rate, seconds, seed);
  }
  throw std::runtime_error("unknown arrival process " + plan.arrival);
}

// Requests that may legitimately be unfinished at `rate`: a full set of
// batches in service plus what arrives within two SLOs. One SLO's worth
// is too tight for a single-lane server: a queue that drains within the
// SLO still exceeded it now and then when sending ended, which failed a
// rung whose p95 met the SLO. A backlog that grows exceeds two SLOs'
// worth by far within a rung.
int64_t BacklogLimit(const LoadPlan& plan, double rate) {
  return plan.in_flight_cap +
         static_cast<int64_t>(std::ceil(2.0 * rate * plan.slo_ms / 1e3));
}

// Runs one open-loop phase at `rate` and scores it against the SLO:
// p95 from due time within the SLO, no failures, and no backlog growth.
Rung RunRung(serve::InferenceServer& server, const LoadPlan& plan,
             double rate, double seconds, uint64_t seed, int64_t& next_id,
             const Serving& serving, Responses& sink) {
  Rung g;
  g.rate = rate;
  const std::vector<double> sched = Schedule(plan, rate, seconds, seed);
  perfbench::LoadOptions opts;
  opts.abort_backlog = 4 * BacklogLimit(plan, rate);
  g.r = perfbench::RunOpenLoop(
      server, sched, next_id,
      [&serving](int64_t id) { return serving.Clip(id); },
      [&sink](const Outcome& o) { sink(o); }, opts);
  next_id += static_cast<int64_t>(sched.size());
  g.p95_ms = Percentile(g.r.latency_us, 0.95) / 1e3;
  g.pass = !g.r.aborted && g.r.failed == 0 && g.p95_ms <= plan.slo_ms &&
           g.r.backlog_at_end <= BacklogLimit(plan, rate);
  return g;
}

// Highest rate meeting the SLO. Rungs climb until the first miss; the
// rate is interpolated between the last rung that met the SLO and the
// first that missed it, at the point where their p95s cross the SLO.
double SloRate(const std::vector<Rung>& rungs, double slo_ms) {
  size_t pass = 0;
  while (pass < rungs.size() && rungs[pass].pass) ++pass;
  if (pass == 0) return 0.0;
  const Rung& lo = rungs[pass - 1];
  if (pass == rungs.size()) return lo.rate;
  const Rung& hi = rungs[pass];
  // A rung can miss on failures or backlog with its p95 still in the
  // SLO; then nothing above the passing rung is credited.
  const double frac =
      hi.p95_ms > slo_ms && hi.p95_ms > lo.p95_ms
          ? (slo_ms - lo.p95_ms) / (hi.p95_ms - lo.p95_ms)
          : 0.0;
  return lo.rate + std::clamp(frac, 0.0, 1.0) * (hi.rate - lo.rate);
}

int64_t PeakRssKb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) try {
  SetLogLevel(LogLevel::Warning);
  const Args a(argc, argv);
  const std::string workload = a.Str("workload");
  const uint64_t seed = static_cast<uint64_t>(a.Int("seed"));
  const double seconds = a.Num("seconds");
  const bool trace = a.Int("trace") != 0;
  const int threads = ThreadPool::Get().threads();
  SpanRecorder spans(trace);
  PhaseCounters counters;
  MetricMap e2e, layer;
  std::map<std::string, double> info;

  // 1. Offline prune job.
  counters.Begin("prune");
  const PruneResult prune = RunPruneJob(a, seed, spans);
  counters.End();
  std::fprintf(stderr, "[%s] prune job: %.2f s, top-1 %.4f\n",
               workload.c_str(), prune.prune_s, prune.top1);

  // 2. Serving set-up, repeated; the last one serves.
  counters.Begin("setup");
  std::unique_ptr<Serving> serving;
  std::vector<double> setup_s, data_ms, compile_ms, start_ms;
  for (int i = 0; i < kSetupReps; ++i) {
    serving.reset();
    serving = SetUpServing(a, seed, spans);
    setup_s.push_back(serving->setup_s);
    data_ms.push_back(serving->data_ms);
    compile_ms.push_back(serving->compile_ms);
    start_ms.push_back(serving->start_ms);
  }
  counters.End();
  serve::InferenceServer& server = *serving->server;
  const serve::ServerConfig scfg = server.config();

  LoadPlan plan;
  plan.arrival = a.Str("load.arrival");
  if (plan.arrival == "burst") {
    plan.burst.period_ms = a.Num("load.burst_period_ms");
    plan.burst.on_frac = a.Num("load.burst_on_frac");
    plan.burst.on_mult = a.Num("load.burst_on_mult");
  }
  plan.slo_ms = a.Num("load.slo_p95_ms");
  plan.in_flight_cap = static_cast<int64_t>(scfg.replicas) * scfg.max_batch;
  const double base_cps = a.Num("load.base_cps");
  const double high_cps = a.Num("load.high_cps");
  const std::vector<double> ladder = a.Nums("load.ladder_cps");
  const double peak_s = seconds * a.Num("phase.peak");
  const double base_s = seconds * a.Num("phase.base");
  const double high_s = seconds * a.Num("phase.high");
  const double rung_s = seconds * a.Num("phase.rung");

  Responses sink;
  sink.classes = static_cast<int>(a.Int("model.classes"));
  sink.max_batch = scfg.max_batch;
  sink.replicas = scfg.replicas;
  sink.seed = seed;
  sink.sample_cap = static_cast<size_t>(a.Int("check.samples"));
  sink.sample_every = std::max<int64_t>(
      1, static_cast<int64_t>(base_cps * base_s /
                              (2.0 * static_cast<double>(sink.sample_cap))));
  sink.trace_every = a.Int("trace.sample_every");
  sink.spans = &spans;
  const auto clip = [&serving](int64_t id) { return serving->Clip(id); };
  const auto collect = [&sink](const Outcome& o) { sink(o); };
  int64_t next_id = 0;
  int64_t attempted = 0, failed = 0;
  const auto tally = [&](const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  };

  // Warm-up: fills thread-local scratch and the allocator; not measured.
  const int in_flight = static_cast<int>(a.Int("load.closed_in_flight"));
  {
    perfbench::PhaseResult w = perfbench::RunClosedLoop(
        server, in_flight, kWarmupS, next_id, clip, collect);
    next_id += w.attempted;
    tally(w);
  }

  // 3a. Closed loop: peak throughput.
  counters.Begin("peak");
  sink.record_spans = trace;
  const PhaseResult peak = perfbench::RunClosedLoop(
      server, in_flight, peak_s, next_id, clip, collect);
  next_id += peak.attempted;
  tally(peak);
  counters.End();
  const double peak_cps =
      static_cast<double>(peak.completed_in_window) / peak_s;

  // 3b. Base rate. A traced run first repeats it untraced, for the
  // tracing overhead.
  double untraced_p50_ms = 0.0;
  if (trace) {
    sink.record_spans = false;
    const Rung u = RunRung(server, plan, base_cps, base_s, SubSeed(seed, 10),
                           next_id, *serving, sink);
    tally(u.r);
    untraced_p50_ms = Percentile(u.r.latency_us, 0.5) / 1e3;
    sink.record_spans = true;
  }
  counters.Begin("base");
  sink.keep_samples = true;
  sink.collect_layer = true;
  const Rung base = RunRung(server, plan, base_cps, base_s, SubSeed(seed, 11),
                            next_id, *serving, sink);
  tally(base.r);
  counters.End();
  sink.keep_samples = false;
  const std::vector<double> base_service_us = sink.service_us;
  std::vector<Rung> rungs = {base};

  // 3c. Traced runs: the high rate, then the ladder, whose first rungs
  // are base and high; it climbs until a rung misses.
  if (trace) {
    counters.Begin("high");
    rungs.push_back(RunRung(server, plan, high_cps, high_s,
                            SubSeed(seed, 12), next_id, *serving, sink));
    tally(rungs.back().r);
    counters.End();
    sink.collect_layer = false;
    counters.Begin("ladder");
    for (size_t i = 0; i < ladder.size() && base.pass && rungs.back().pass;
         ++i) {
      rungs.push_back(RunRung(server, plan, ladder[i], rung_s,
                              SubSeed(seed, 20 + i), next_id, *serving,
                              sink));
      tally(rungs.back().r);
    }
    counters.End();
  }
  server.Shutdown();
  const serve::ServerStats stats = server.Stats();
  std::vector<double> lag_us;
  for (const Rung& g : rungs) {
    lag_us.insert(lag_us.end(), g.r.lag_us.begin(), g.r.lag_us.end());
  }
  const double lag_p99_ms = Percentile(lag_us, 0.99) / 1e3;

  // 4. Checks against direct Infer and the kSimulate oracle.
  counters.Begin("check");
  const fpga::CompiledTinyR2Plus1d& fast = *serving->compiled;
  int64_t mismatches = 0;
  for (const Outcome& o : sink.samples) {
    fpga::CompiledRunStats st;
    const TensorF logits = fast.Infer(serving->Clip(o.id), &st);
    const serve::InferenceResult& r = o.result.value();
    if (!SameLogits(logits, r.logits) || !SameStats(st, r.stats)) {
      ++mismatches;
      sink.Problem("request " + std::to_string(o.id) +
                   ": served result differs from direct Infer");
    }
  }
  fpga::CompiledModelOptions sim_opts = serving->copts;
  sim_opts.executor = fpga::ExecMode::kSimulate;
  auto sim = fpga::CompiledTinyR2Plus1d::Compile(*serving->model, sim_opts);
  if (!sim.ok()) throw std::runtime_error(sim.status().ToString());
  std::vector<double> sim_ms;
  const size_t sim_checks = std::min<size_t>(
      sink.samples.size(), static_cast<size_t>(a.Int("check.sim_samples")));
  for (size_t i = 0; i < sim_checks; ++i) {
    const Outcome& o = sink.samples[i];
    SpanRecorder::Scope sp(spans, "fpga/sim_infer");
    fpga::CompiledRunStats st;
    const double t = obs::NowUs();
    const TensorF logits = sim->Infer(serving->Clip(o.id), &st);
    sim_ms.push_back((obs::NowUs() - t) / 1e3);
    if (!SameLogits(logits, o.result.value().logits) ||
        !SameStats(st, o.result.value().stats)) {
      ++mismatches;
      sink.Problem("request " + std::to_string(o.id) +
                   ": served result differs from the kSimulate oracle");
    }
  }
  counters.End();
  const int64_t checks = static_cast<int64_t>(sink.samples.size() + sim_checks);
  attempted += checks;
  failed += mismatches + sink.untruthful;
  if (sink.samples.empty()) sink.Problem("no served response was sampled");

  // Direct serial Infer with the server out of the way (traced runs).
  fpga::CompiledRunStats per_clip;
  std::vector<double> infer_ms;
  if (trace) {
    counters.Begin("direct");
    const int64_t n = a.Int("check.direct_clips");
    for (int64_t i = 0; i < n; ++i) {
      const TensorF c = serving->Clip(next_id + i);
      SpanRecorder::Scope sp(spans, "fpga/infer");
      per_clip = {};
      const double t = obs::NowUs();
      (void)fast.Infer(c, &per_clip);
      infer_ms.push_back((obs::NowUs() - t) / 1e3);
    }
    counters.End();
  } else {
    (void)fast.Infer(serving->Clip(next_id), &per_clip);
  }

  // ---------------------------------------------------------- metrics
  const double peak_rss_mb = static_cast<double>(PeakRssKb()) / 1024.0;
  e2e["setup_s"] = {Median(setup_s), "s"};
  e2e["peak_cps"] = {peak_cps, "1/s"};
  e2e["p50_ms"] = {Percentile(base.r.latency_us, 0.5) / 1e3, "ms"};
  e2e["prune_s"] = {prune.prune_s, "s"};
  e2e["top1_acc"] = {prune.top1, "ratio"};
  e2e["peak_rss_mb"] = {peak_rss_mb, "MB"};

  const double freq_mhz = fpga::Zcu102().default_freq_mhz;
  info["modeled_ms_per_clip_unvalidated"] =
      static_cast<double>(per_clip.modeled_cycles) / (freq_mhz * 1e3);
  info["fail_ratio"] =
      static_cast<double>(failed) / static_cast<double>(attempted);
  info["threads"] = threads;
  info["base_samples"] = static_cast<double>(base.r.latency_us.size());
  info["peak_samples"] = static_cast<double>(peak.completed_in_window);
  info["p95_ms"] = base.p95_ms;
  info["ladder_rungs_passed"] = 0;
  for (const Rung& g : rungs) {
    if (!g.pass) break;
    info["ladder_rungs_passed"] += 1;
  }
  info["rungs_run"] = static_cast<double>(rungs.size());
  info["last_rung_cps"] = rungs.back().rate;
  info["last_rung_p95_ms"] = rungs.back().p95_ms;
  info["checks"] = static_cast<double>(checks);
  info["mismatches"] = static_cast<double>(mismatches);

  if (trace) {
    const double infer_p50 = Median(infer_ms);
    const double service_p50 = Median(base_service_us) / 1e3;
    const double macs = static_cast<double>(per_clip.macs_executed);
    const double blocks =
        static_cast<double>(per_clip.blocks_loaded + per_clip.blocks_skipped);
    const double gemm_us = counters.Delta("prune", "kernels.gemm.compute_us");
    const double pack_us = counters.Delta("prune", "kernels.gemm.pack_us");
    layer["loadgen.lag_p99_ms"] = {lag_p99_ms, "ms"};
    layer["loadgen.p95_ms"] = {base.p95_ms, "ms"};
    layer["loadgen.p95_ms_hi"] = {rungs[1].p95_ms, "ms"};
    layer["loadgen.slo_cps"] = {SloRate(rungs, plan.slo_ms), "1/s"};
    layer["serve.queue_wait_ms_p50"] = {Median(sink.queue_us) / 1e3, "ms"};
    layer["serve.queue_wait_ms_p99"] = {
        Percentile(sink.queue_us, 0.99) / 1e3, "ms"};
    layer["serve.service_ms_p50"] = {service_p50, "ms"};
    layer["serve.overhead_ms_p50"] = {service_p50 - infer_p50, "ms"};
    layer["serve.submit_us_p50"] = {Median(sink.submit_us), "us"};
    layer["serve.batch_mean"] = {
        counters.Delta("peak", "serve.completed") /
            std::max(1.0, counters.Delta("peak", "serve.batches")),
        "count"};
    layer["serve.rejected"] = {static_cast<double>(stats.rejected), "count"};
    layer["serve.deadline_exceeded"] = {
        static_cast<double>(stats.deadline_exceeded), "count"};
    layer["serve.start_ms"] = {Median(start_ms), "ms"};
    layer["fpga.infer_ms_p50"] = {infer_p50, "ms"};
    layer["fpga.gmacs_per_s"] = {macs / (infer_p50 * 1e6), "GMAC/s"};
    layer["fpga.macs_per_clip"] = {macs, "count"};
    layer["fpga.blocks_skipped_frac"] = {
        static_cast<double>(per_clip.blocks_skipped) / std::max(1.0, blocks),
        "ratio"};
    layer["fpga.modeled_cycles_per_clip"] = {
        static_cast<double>(per_clip.modeled_cycles), "cycles"};
    layer["fpga.compile_ms"] = {Median(compile_ms), "ms"};
    layer["fpga.sim_infer_ms"] = {Median(sim_ms), "ms"};
    layer["kernels.gemm_gflops"] = {
        counters.Delta("prune", "kernels.gemm.flops") /
            std::max(1.0, gemm_us) / 1e3,
        "GFLOP/s"};
    layer["kernels.pack_frac"] = {pack_us / std::max(1.0, pack_us + gemm_us),
                                  "ratio"};
    layer["kernels.im2col_s"] = {
        counters.Delta("prune", "kernels.im2col.us") / 1e6, "s"};
    layer["kernels.col2im_s"] = {
        counters.Delta("prune", "kernels.col2im.us") / 1e6, "s"};
    layer["kernels.pool_regions_per_clip"] = {
        counters.Delta("base", "kernels.pool.regions") /
            std::max<double>(1.0, static_cast<double>(base.r.ok)),
        "count"};
    layer["kernels.scratch_mb"] = {
        CounterValues()["kernels.scratch_bytes"] / (1024.0 * 1024.0), "MB"};
    layer["nn.train_cps"] = {
        counters.Delta("prune", "train.samples") /
            (prune.pretrain_s + prune.admm_s),
        "1/s"};
    layer["nn.eval_s"] = {prune.eval_s, "s"};
    layer["core.admm_s"] = {prune.admm_s, "s"};
    layer["core.admm_updates"] = {counters.Delta("prune", "admm.updates"),
                                  "count"};
    layer["core.primal_residual_final"] = {prune.primal_final, "ratio"};
    layer["data.gen_ms"] = {Median(data_ms), "ms"};
    layer["trace.overhead_p50_ms"] = {
        e2e["p50_ms"].value - untraced_p50_ms, "ms"};
  }

  bool valid = true;
  if (lag_p99_ms > a.Num("loadgen.lag_limit_ms")) {
    valid = false;
    sink.Problem("load generator fell behind: lag p99 " +
                 std::to_string(lag_p99_ms) + " ms");
  }
  const bool correct = valid && failed == 0 && !sink.samples.empty();

  std::string trace_path = a.Str("trace-out", "");
  std::map<std::string, double> self_ms;
  if (trace) {
    for (const auto& [l, us] : spans.SelfTimeByLayer()) self_ms[l] = us / 1e3;
    if (!trace_path.empty() && !spans.WriteChromeJson(trace_path)) {
      sink.Problem("cannot write " + trace_path);
    }
  }

  std::string problems = "[";
  for (const std::string& p : sink.problems) {
    problems += (problems.size() > 1 ? ", " : "") + Quote(p);
  }
  problems += "]";
  std::ofstream os(a.Str("out"));
  os << "{\"workload\": " << Quote(workload) << ", \"seed\": " << seed
     << ", \"trace\": " << (trace ? 1 : 0)
     << ", \"correct\": " << (correct ? "true" : "false")
     << ", \"valid\": " << (valid ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ",\n \"e2e\": " << MetricsJson(e2e)
     << ",\n \"layers\": " << MetricsJson(layer)
     << ",\n \"info\": " << NumMapJson(info)
     << ",\n \"self_ms_by_layer\": " << NumMapJson(self_ms)
     << ",\n \"phase_counters\": " << counters.Json()
     << ",\n \"problems\": " << problems << "}\n";
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", a.Str("out").c_str());
    return 2;
  }
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench: %s\n", e.what());
  return 2;
}
