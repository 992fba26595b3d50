// hwp3d::InferenceSession — the one public entry point for deploying a
// pruned 3D-CNN on the simulated accelerator and serving requests
// against it.
//
// Wraps the whole flow the examples used to hand-wire:
//
//   synthetic data ─▶ train (or load checkpoint) ─▶ ADMM prune ─▶
//   quantize + BN-fold + compile ─▶ batched serving lanes over one model
//
// behind a builder, with Status-based errors instead of bool/throw:
//
//   serve::ServerConfig serving;            // lanes, batching, retry...
//   serving.replicas = 4;
//   serving.max_batch = 8;
//   auto session = InferenceSession::Builder()
//                      .DataConfig(dcfg)
//                      .TrainEpochs(10)
//                      .PruneToSparsity(0.5)   // hardware-aware blocks
//                      .Serving(serving)
//                      .Build();
//   if (!session.ok()) { ... session.status() ... }
//   StatusOr<serve::InferenceResult> r = (*session)->Submit(clip);
//
// The pruning block size is always the compiled tiling's (Tm, Tn) —
// the hardware/pruning co-design the paper is about — so masks are
// valid block-enable inputs for the engine by construction.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "data/synthetic_video.h"
#include "fpga/model_compiler.h"
#include "models/tiny_r2plus1d.h"
#include "serve/server.h"

namespace hwp3d {

class InferenceSession {
 public:
  class Builder {
   public:
    // --- model & data -------------------------------------------------
    Builder& ModelConfig(const models::TinyR2Plus1dConfig& cfg);
    Builder& DataConfig(const data::SyntheticVideoConfig& cfg);
    Builder& Seed(uint64_t seed);

    // --- weight source: train from scratch (default) or a checkpoint --
    Builder& TrainEpochs(int epochs);
    Builder& TrainLr(float lr);
    Builder& TrainData(int batch_count, int batch_size);
    Builder& EvalData(int batch_count);
    Builder& FromCheckpoint(std::string path);

    // --- hardware-aware pruning (optional) ----------------------------
    // Runs Algorithm 1 (multi-rho ADMM -> hard prune -> masked
    // retraining) at the given block sparsity; block size = tiling (Tm, Tn).
    Builder& PruneToSparsity(double eta);
    Builder& AdmmRhoSchedule(std::vector<double> rhos);
    Builder& AdmmEpochsPerRound(int epochs);
    Builder& RetrainEpochs(int epochs);
    // Derive block-enable masks from exactly-zero weight blocks instead
    // of training — for serving an already-pruned checkpoint.
    Builder& UseZeroBlockMasks(bool enable = true);

    // --- accelerator design point -------------------------------------
    Builder& Tiling(const fpga::Tiling& tiling);
    Builder& Ports(const fpga::Ports& ports);

    // --- serving ------------------------------------------------------
    // Replica lanes, batching, queue, deadlines, retry, quarantine and
    // watchdog, all in one serve::ServerConfig (checked by
    // serve::ValidateServerConfig). The model is compiled for the fast
    // executor.
    Builder& Serving(const serve::ServerConfig& config);

    // Validates the configuration, builds the model (train or load),
    // prunes, compiles, and starts the server.
    StatusOr<std::unique_ptr<InferenceSession>> Build();

   private:
    models::TinyR2Plus1dConfig model_cfg_{
        .num_classes = 4, .stem_channels = 4, .stage1_channels = 8,
        .stage2_channels = 8};
    data::SyntheticVideoConfig data_cfg_{
        .num_classes = 4, .frames = 6, .height = 10, .width = 10};
    uint64_t seed_ = 42;
    int train_epochs_ = 10;
    float train_lr_ = 0.05f;
    int train_batch_count_ = 64;
    int batch_size_ = 8;
    int eval_batch_count_ = 32;
    std::string checkpoint_;
    bool prune_ = false;
    double sparsity_ = 0.5;
    std::vector<double> rho_schedule_ = {0.01, 0.1};
    int admm_epochs_per_round_ = 2;
    int retrain_epochs_ = 4;
    bool zero_block_masks_ = false;
    fpga::Tiling tiling_{4, 4, 2, 4, 4};
    fpga::Ports ports_;
    serve::ServerConfig server_;
  };

  ~InferenceSession();  // drains in-flight requests

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  // --- serving --------------------------------------------------------
  // Runs one [C][D][H][W] clip through the compiled model.
  // Errors: kResourceExhausted (queue full), kDeadlineExceeded,
  // kUnavailable (after Drain), kInvalidArgument (bad clip shape).
  StatusOr<serve::InferenceResult> Submit(const TensorF& clip,
                                          int64_t deadline_us = 0);
  std::future<StatusOr<serve::InferenceResult>> SubmitAsync(
      TensorF clip, int64_t deadline_us = 0);

  serve::ServerStats Stats() const;

  // Graceful shutdown: stops admission, completes every accepted
  // request. Idempotent; the destructor calls it too.
  Status Drain();

  // --- model access ---------------------------------------------------
  // Float host-model logits for one clip (the pre-quantization
  // reference). Not thread-safe against itself; safe alongside Submit.
  TensorF HostLogits(const TensorF& clip);

  Status SaveCheckpoint(const std::string& path) const;

  // Pruning outcome; empty masks / null result when built dense.
  const std::vector<core::BlockMask>& masks() const { return masks_; }
  const core::PipelineResult* prune_result() const {
    return prune_result_ ? prune_result_.get() : nullptr;
  }

  // The held-out batches generated during Build (empty when built from
  // a checkpoint with no eval data) — lets callers score accuracy on
  // exactly the distribution the model was trained on.
  const std::vector<nn::Batch>& eval_batches() const {
    return eval_batches_;
  }

  const data::SyntheticVideoConfig& data_config() const {
    return data_cfg_;
  }

 private:
  friend class Builder;
  InferenceSession() = default;

  data::SyntheticVideoConfig data_cfg_;
  std::unique_ptr<models::TinyR2Plus1d> model_;
  std::vector<core::BlockMask> masks_;
  std::unique_ptr<core::PipelineResult> prune_result_;
  std::vector<nn::Batch> eval_batches_;
  std::unique_ptr<serve::InferenceServer> server_;
};

}  // namespace hwp3d
