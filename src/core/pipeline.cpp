#include "core/pipeline.h"

#include "common/logging.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwp3d::core {

namespace {

// SGD for both phases.
constexpr float kMomentum = 0.9f;
constexpr float kWeightDecay = 0.0f;
// "Bag of tricks" during ADMM; retraining uses none.
constexpr float kAdmmLabelSmoothing = 0.1f;

}  // namespace

PipelineResult RunAdmmPipeline(nn::Module& model, AdmmPruner& pruner,
                               const std::vector<nn::Batch>& train,
                               const std::vector<nn::Batch>& test,
                               const PipelineConfig& cfg) {
  HWP_TRACE_SCOPE("core/RunAdmmPipeline");
  PipelineResult result;
  auto& reg = obs::MetricsRegistry::Get();

  // --- ADMM training rounds (W-step epochs with periodic Z/V updates) ---
  nn::SgdConfig opt_cfg;
  opt_cfg.lr = cfg.admm_lr;
  opt_cfg.momentum = kMomentum;
  opt_cfg.weight_decay = kWeightDecay;
  nn::Sgd admm_opt(model.Params(), opt_cfg);

  nn::TrainOptions admm_opts;
  admm_opts.label_smoothing = kAdmmLabelSmoothing;
  admm_opts.post_backward = [&pruner]() { pruner.AddProximalGradients(); };

  int global_epoch = 0;
  for (int round = 0; round < pruner.num_rounds(); ++round) {
    obs::TraceScope round_span("admm/round");
    pruner.StartRound(round);
    round_span.AddArg("round", static_cast<int64_t>(round));
    round_span.AddArg("rho", pruner.rho());
    HWP_LOG(Info) << "ADMM round " << round << " rho=" << pruner.rho();
    for (int e = 0; e < cfg.epochs_per_round; ++e, ++global_epoch) {
      const nn::EpochStats stats = nn::TrainEpoch(model, admm_opt, train,
                                                  admm_opts);
      result.admm_final_train_acc = stats.accuracy;
      reg.GetCounter("pipeline.epochs", {{"phase", "admm"}}).Add(1);
      if (cfg.on_epoch) cfg.on_epoch(global_epoch, "admm", stats);
      // epoch_admm = 1: the Z/V update follows every W-step epoch.
      const AdmmResiduals res = pruner.UpdateAuxiliaries();
      result.residual_history.push_back(res);
      reg.GetCounter("admm.updates").Add(1);
      reg.GetHistogram("admm.primal_residual").Observe(res.primal);
      reg.GetHistogram("admm.dual_residual").Observe(res.dual);
      obs::Tracer::Get().Counter("admm.primal_residual", res.primal);
      obs::Tracer::Get().Counter("admm.dual_residual", res.dual);
      HWP_LOG(Debug) << "  epoch " << global_epoch << " loss="
                     << stats.mean_loss << " acc=" << stats.accuracy
                     << " primal=" << res.primal << " dual=" << res.dual;
      if (res.converged) {
        reg.GetCounter("admm.converged_early").Add(1);
        break;
      }
    }
  }

  // --- Hard prune ---
  {
    HWP_TRACE_SCOPE("admm/hard_prune");
    pruner.HardPrune();
  }
  result.hard_prune_test_acc = nn::Evaluate(model, test).accuracy;
  result.layer_stats = pruner.Stats();
  reg.GetGauge("pipeline.admm_final_train_acc")
      .Set(result.admm_final_train_acc);
  reg.GetGauge("pipeline.hard_prune_test_acc").Set(result.hard_prune_test_acc);

  // --- Masked retraining (warmup + cosine lr, no label smoothing) ---
  HWP_TRACE_SCOPE("admm/retrain");
  nn::SgdConfig rt_cfg = opt_cfg;
  rt_cfg.lr = cfg.retrain_lr;
  nn::Sgd retrain_opt(model.Params(), rt_cfg);
  nn::WarmupCosineLr schedule(cfg.retrain_lr, cfg.retrain_warmup_epochs,
                              cfg.retrain_epochs);
  nn::TrainOptions rt_opts;
  rt_opts.post_backward = [&pruner]() { pruner.MaskGradients(); };
  rt_opts.post_step = [&pruner]() { pruner.ReapplyMasks(); };
  for (int e = 0; e < cfg.retrain_epochs; ++e, ++global_epoch) {
    retrain_opt.set_lr(schedule.LrAt(e));
    const nn::EpochStats stats =
        nn::TrainEpoch(model, retrain_opt, train, rt_opts);
    reg.GetCounter("pipeline.epochs", {{"phase", "retrain"}}).Add(1);
    if (cfg.on_epoch) cfg.on_epoch(global_epoch, "retrain", stats);
    HWP_LOG(Debug) << "  retrain epoch " << e << " lr=" << retrain_opt.lr()
                   << " loss=" << stats.mean_loss << " acc=" << stats.accuracy;
  }
  pruner.ReapplyMasks();
  result.retrained_test_acc = nn::Evaluate(model, test).accuracy;
  reg.GetGauge("pipeline.retrained_test_acc").Set(result.retrained_test_acc);
  return result;
}

}  // namespace hwp3d::core
