// Domain scenario 1 — edge video analytics: take a trained video action
// classifier and compress it for an FPGA deployment with Algorithm 1:
// multi-rho ADMM training, hard pruning, masked retraining. Prints the
// accuracy trajectory and the achieved per-layer block sparsity.
//
// This is the miniature of the paper's Section V pipeline (their
// schedule: 4 rounds x 50 epochs, rho in {1e-4..1e-1}, 100 retrain
// epochs on UCF101; ours is scaled to the synthetic dataset).
// Observability: --trace-out trace.json --metrics-out metrics.jsonl
#include <cstdio>

#include "common/logging.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "data/synthetic_video.h"
#include "models/tiny_r2plus1d.h"
#include "obs/cli.h"
#include "report/table.h"

using namespace hwp3d;

int main(int argc, char** argv) {
  const obs::CliOptions obs_opts = obs::InitFromArgs(argc, argv);
  SetLogLevel(LogLevel::Warning);
  Rng rng(obs_opts.seed.value_or(7));

  data::SyntheticVideoConfig dcfg;
  dcfg.num_classes = 6;
  dcfg.frames = 6;
  dcfg.height = 10;
  dcfg.width = 10;
  data::SyntheticVideoDataset dataset(dcfg);
  const auto train = dataset.MakeBatches(72, 8, rng);
  const auto test = dataset.MakeBatches(36, 8, rng);

  models::TinyR2Plus1dConfig mcfg;
  mcfg.num_classes = dcfg.num_classes;
  mcfg.stem_channels = 4;
  mcfg.stage1_channels = 12;
  mcfg.stage2_channels = 12;
  models::TinyR2Plus1d model(mcfg, rng);

  // Pretrain the dense model (warmup + cosine, as the paper's tricks).
  std::printf("Pretraining dense model...\n");
  nn::Sgd opt(model.Params(),
              {.lr = 0.06f, .momentum = 0.9f, .weight_decay = 0.0f});
  nn::WarmupCosineLr schedule(0.06f, 2, 14);
  for (int e = 0; e < 14; ++e) {
    opt.set_lr(schedule.LrAt(e));
    nn::TrainEpoch(model, opt, train, {});
  }
  const double dense_acc = nn::Evaluate(model, test).accuracy;
  std::printf("dense test accuracy: %.1f%%\n\n", dense_acc * 100);

  // Algorithm 1: prune every residual-stage conv to 70% block sparsity.
  std::vector<core::PruneLayerSpec> specs;
  for (nn::Conv3d* c : model.PrunableConvs()) {
    specs.push_back({&c->weight(), {4, 4}, 0.7, c->name()});
  }
  core::AdmmConfig admm_cfg;
  admm_cfg.rho_schedule = {0.003, 0.03, 0.3};  // multi-rho rounds
  core::AdmmPruner pruner(specs, admm_cfg);

  core::PipelineConfig cfg;
  cfg.admm = admm_cfg;
  cfg.epochs_per_round = 3;
  cfg.retrain_epochs = 10;
  cfg.admm_lr = 0.02f;
  cfg.retrain_lr = 0.02f;
  cfg.on_epoch = [](int epoch, const char* phase,
                    const nn::EpochStats& stats) {
    std::printf("  [%s] epoch %2d  loss %.3f  acc %.0f%%\n", phase, epoch,
                stats.mean_loss, stats.accuracy * 100);
  };
  const core::PipelineResult result =
      core::RunAdmmPipeline(model, pruner, train, test, cfg);

  report::Table table("Pruning outcome");
  table.Header({"Layer", "Blocks", "Kept", "Sparsity", "Rate"});
  for (const auto& s : result.layer_stats) {
    table.Row({s.name, report::Table::Int(s.total_blocks),
               report::Table::Int(s.kept_blocks),
               report::Table::Pct(s.achieved_sparsity()),
               report::Table::Ratio(s.prune_rate(), 1)});
  }
  table.Print();

  std::printf(
      "\naccuracy: dense %.1f%% -> hard-pruned %.1f%% -> retrained %.1f%%\n",
      dense_acc * 100, result.hard_prune_test_acc * 100,
      result.retrained_test_acc * 100);
  std::printf("(paper at full scale: 89.0%% -> 88.66%% after retraining)\n");

  obs::Finalize(obs_opts);
  return 0;
}
