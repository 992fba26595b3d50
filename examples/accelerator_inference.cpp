// Domain scenario 2 — deploying the pruned model on the accelerator.
// Offline, the tiny R(2+1)D is trained and ADMM-pruned blockwise at the
// compiled tiling's (Tm, Tn) block size (Algorithm 1). Then it is
// deployed the one way there is: fpga::CompiledModel::Compile for the
// bit-accurate Q7.8 fast executor with the pruner's block-enable masks,
// served by a serve::InferenceServer over batched replica lanes. A
// second deployment reloads the same weights from a checkpoint into a
// fresh model and serves them dense. The comparison
//
//   float host model  vs  fixed-point accelerator (dense)
//                     vs  fixed-point accelerator (block-enable)
//
// on held-out clips — prediction agreement, accuracy, modeled cycles
// (the functional counterpart of Table IV's 2.6x claim).
// Observability: --trace-out trace.json --metrics-out metrics.jsonl
// (serve.* counters/histograms join the exec.* ones), --seed N,
// --threads N.
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/rng.h"
#include "core/admm.h"
#include "core/pipeline.h"
#include "data/synthetic_video.h"
#include "fpga/model_compiler.h"
#include "models/tiny_r2plus1d.h"
#include "nn/checkpoint.h"
#include "nn/trainer.h"
#include "obs/cli.h"
#include "obs/metrics.h"
#include "report/table.h"
#include "serve/server.h"

using namespace hwp3d;

int main(int argc, char** argv) {
  const obs::CliOptions obs_opts = obs::InitFromArgs(argc, argv);
  SetLogLevel(LogLevel::Warning);
  const uint64_t seed = obs_opts.seed.value_or(19);

  data::SyntheticVideoConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.frames = 6;
  dcfg.height = 10;
  dcfg.width = 10;
  const models::TinyR2Plus1dConfig mcfg{.in_channels = dcfg.channels,
                                        .num_classes = dcfg.num_classes,
                                        .stem_channels = 4,
                                        .stage1_channels = 8,
                                        .stage2_channels = 8};
  const fpga::Tiling tiling{4, 4, 2, 5, 5};
  const float train_lr = 0.05f;

  // One Rng draws, in order: the model's init, the train batches, the
  // held-out batches.
  Rng rng(seed);
  models::TinyR2Plus1d model(mcfg, rng);
  data::SyntheticVideoDataset dataset(dcfg);
  const std::vector<nn::Batch> train = dataset.MakeBatches(64, 8, rng);
  const std::vector<nn::Batch> eval = dataset.MakeBatches(32, 8, rng);

  // Offline: train, then ADMM-prune to 50 % block sparsity.
  std::printf("Training + ADMM pruning...\n");
  nn::Sgd opt(model.Params(),
              {.lr = train_lr, .momentum = 0.9f, .weight_decay = 0.0f});
  for (int e = 0; e < 10; ++e) nn::TrainEpoch(model, opt, train, {});
  std::vector<core::PruneLayerSpec> specs;
  for (nn::Conv3d* c : model.PrunableConvs()) {
    specs.push_back({&c->weight(), tiling.block(), 0.5, c->name()});
  }
  core::PipelineConfig pcfg;
  pcfg.admm.rho_schedule = {0.01, 0.1};
  pcfg.epochs_per_round = 2;
  pcfg.retrain_epochs = 4;
  pcfg.admm_lr = 0.4f * train_lr;
  pcfg.retrain_lr = 0.4f * train_lr;
  core::AdmmPruner pruner(specs, pcfg.admm);
  core::RunAdmmPipeline(model, pruner, train, eval, pcfg);

  // Both deployments serve from two replica lanes; an idle lane takes
  // whatever is queued, up to 8 clips, without waiting for more.
  serve::ServerConfig serving;
  serving.replicas = 2;
  serving.max_batch = 8;

  // Deployment 1: the pruned model with its block-enable masks.
  fpga::CompiledModelOptions copts;
  copts.tiling = tiling;
  copts.masks = pruner.masks();
  StatusOr<fpga::CompiledModel> pruned_model =
      fpga::CompiledModel::Compile(model, copts);
  if (!pruned_model.ok()) {
    std::fprintf(stderr, "pruned compile: %s\n",
                 pruned_model.status().ToString().c_str());
    return 1;
  }
  serve::InferenceServer pruned(*pruned_model, serving);

  // Deployment 2: identical weights via a checkpoint round-trip into a
  // fresh model, served dense — no retraining.
  const char* ckpt = "accelerator_inference.ckpt";
  if (Status s = nn::SaveCheckpoint(ckpt, model); !s.ok()) {
    std::fprintf(stderr, "checkpoint save: %s\n", s.ToString().c_str());
    return 1;
  }
  Rng reload_rng(seed);
  models::TinyR2Plus1d reloaded(mcfg, reload_rng);
  if (Status s = nn::LoadCheckpoint(ckpt, reloaded); !s.ok()) {
    std::fprintf(stderr, "checkpoint load: %s\n", s.ToString().c_str());
    return 1;
  }
  copts.masks.clear();
  StatusOr<fpga::CompiledModel> dense_model =
      fpga::CompiledModel::Compile(reloaded, copts);
  if (!dense_model.ok()) {
    std::fprintf(stderr, "dense compile: %s\n",
                 dense_model.status().ToString().c_str());
    return 1;
  }
  serve::InferenceServer dense(*dense_model, serving);

  // Evaluate clip by clip on the held-out batches.
  int total = 0, float_ok = 0, dense_ok = 0, accel_ok = 0, agree = 0;
  long long dense_cycles = 0, accel_cycles = 0;
  long long dense_loaded = 0, accel_loaded = 0;
  long long dense_skipped = 0, accel_skipped = 0;
  long long dense_macs = 0, accel_macs = 0;
  for (const nn::Batch& batch : eval) {
    const int64_t B = batch.clips.dim(0);
    // Slice the batch into clips and submit the whole wave
    // asynchronously, so the lanes find a backlog and pull it in batches.
    std::vector<TensorF> clips;
    std::vector<int> float_preds;
    for (int64_t b = 0; b < B; ++b) {
      TensorF clip(Shape{dcfg.channels, dcfg.frames, dcfg.height,
                         dcfg.width});
      for (int64_t i = 0; i < clip.numel(); ++i) {
        clip[i] = batch.clips[b * clip.numel() + i];
      }
      // The float host model (the pre-quantization reference) on the
      // clip as a batch of one.
      const TensorF float_logits = model.Forward(
          clip.Reshaped(Shape{1, dcfg.channels, dcfg.frames, dcfg.height,
                              dcfg.width}),
          /*train=*/false);
      int float_pred = 0;
      for (int64_t k = 1; k < float_logits.numel(); ++k) {
        if (float_logits[k] > float_logits[float_pred])
          float_pred = static_cast<int>(k);
      }
      float_preds.push_back(float_pred);
      clips.push_back(std::move(clip));
    }
    std::vector<std::future<StatusOr<serve::InferenceResult>>> dense_f,
        accel_f;
    for (const TensorF& clip : clips) {
      dense_f.push_back(dense.SubmitAsync(clip));
      accel_f.push_back(pruned.SubmitAsync(clip));
    }
    for (int64_t b = 0; b < B; ++b) {
      const auto dense_r = dense_f[static_cast<size_t>(b)].get();
      const auto accel_r = accel_f[static_cast<size_t>(b)].get();
      if (!dense_r.ok() || !accel_r.ok()) {
        std::fprintf(stderr, "submit failed: %s / %s\n",
                     dense_r.status().ToString().c_str(),
                     accel_r.status().ToString().c_str());
        return 1;
      }
      dense_cycles += dense_r->stats.modeled_cycles;
      accel_cycles += accel_r->stats.modeled_cycles;
      dense_loaded += dense_r->stats.blocks_loaded;
      accel_loaded += accel_r->stats.blocks_loaded;
      dense_skipped += dense_r->stats.blocks_skipped;
      accel_skipped += accel_r->stats.blocks_skipped;
      dense_macs += dense_r->stats.macs_executed;
      accel_macs += accel_r->stats.macs_executed;
      const int label = batch.labels[static_cast<size_t>(b)];
      ++total;
      float_ok += float_preds[static_cast<size_t>(b)] == label;
      dense_ok += dense_r->label == label;
      accel_ok += accel_r->label == label;
      agree += accel_r->label == float_preds[static_cast<size_t>(b)];
    }
  }

  report::Table table("Float model vs Q7.8 accelerator simulator");
  table.Header({"Pipeline", "Accuracy", "Agrees w/ float",
                "Modeled cycles/clip", "Blocks skipped/clip"});
  table.Row({"float (host)", report::Table::Pct((double)float_ok / total),
             "100%", "-", "-"});
  table.Row({"accelerator, dense",
             report::Table::Pct((double)dense_ok / total),
             report::Table::Pct(1.0),  // refined below if they diverge
             report::Table::Int(dense_cycles / total),
             report::Table::Int(0)});
  table.Row({"accelerator, block-enable",
             report::Table::Pct((double)accel_ok / total),
             report::Table::Pct((double)agree / total),
             report::Table::Int(accel_cycles / total),
             report::Table::Int(accel_skipped / total)});
  table.Print();

  std::printf(
      "\nblock-enable speedup on modeled cycles: %.2fx (MACs actually "
      "executed: %.2fx fewer)\n",
      (double)dense_cycles / accel_cycles,
      (double)dense_macs / accel_macs);

  // The metrics registry was fed by the same engine runs that filled
  // the per-request CompiledRunStats, so the totals must agree exactly
  // — even with the runs fanned out across replica lanes. Both models
  // are compiled for the fast executor, which counts under exec.*.
  const auto& reg = obs::MetricsRegistry::Get();
  const long long stats_loaded = dense_loaded + accel_loaded;
  const long long stats_skipped = dense_skipped + accel_skipped;
  const long long meter_loaded =
      (long long)reg.CounterTotal("exec.blocks_loaded");
  const long long meter_skipped =
      (long long)reg.CounterTotal("exec.blocks_skipped");
  std::printf(
      "metrics cross-check (executor: fast): blocks_loaded %lld "
      "(stats %lld), blocks_skipped %lld (stats %lld)%s\n",
      meter_loaded, stats_loaded, meter_skipped, stats_skipped,
      (meter_loaded == stats_loaded && meter_skipped == stats_skipped)
          ? " [OK]"
          : " [MISMATCH]");

  const serve::ServerStats s = pruned.Stats();
  std::printf(
      "serving stats (pruned deployment): %lld completed in %lld batches "
      "(mean %.1f clips/batch), latency p50 %.2f ms p95 %.2f ms p99 "
      "%.2f ms\n",
      (long long)s.completed, (long long)s.batches, s.mean_batch_size,
      s.p50_ms, s.p95_ms, s.p99_ms);

  std::remove(ckpt);
  obs::Finalize(obs_opts);
  return 0;
}
