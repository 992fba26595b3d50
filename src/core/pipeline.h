// End-to-end Algorithm 1: ADMM training rounds -> hard prune -> masked
// retraining, driving an nn::Module through the training loop.
//
// This is the orchestration the paper describes in Section V: multiple
// rho rounds, a fixed number of epochs per round with periodic Z/V
// updates, label smoothing during ADMM training, and warmup + cosine lr
// during masked retraining.
#pragma once

#include <functional>
#include <vector>

#include "core/admm.h"
#include "nn/module.h"
#include "nn/trainer.h"

namespace hwp3d::core {

struct PipelineConfig {
  AdmmConfig admm;
  int epochs_per_round = 4;  // epoch_rho in Algorithm 1
  int retrain_epochs = 8;
  float admm_lr = 5e-4f;
  float retrain_lr = 5e-4f;
  int retrain_warmup_epochs = 2;  // warmup + cosine during retraining
  // Optional per-epoch observer (epoch index, phase, train stats).
  std::function<void(int, const char*, const nn::EpochStats&)> on_epoch;
};

struct PipelineResult {
  double admm_final_train_acc = 0.0;
  double hard_prune_test_acc = 0.0;   // right after projection, no retrain
  double retrained_test_acc = 0.0;
  std::vector<LayerPruneStats> layer_stats;
  std::vector<AdmmResiduals> residual_history;
};

// Runs Algorithm 1 on `model` with the given pruner. `train`/`test` are
// pre-batched epochs (reused each epoch).
PipelineResult RunAdmmPipeline(nn::Module& model, AdmmPruner& pruner,
                               const std::vector<nn::Batch>& train,
                               const std::vector<nn::Batch>& test,
                               const PipelineConfig& cfg);

}  // namespace hwp3d::core
