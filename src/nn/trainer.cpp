#include "nn/trainer.h"

#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/storage.h"

namespace hwp3d::nn {

EpochStats TrainEpoch(Module& model, Sgd& opt,
                      const std::vector<Batch>& batches,
                      const TrainOptions& options) {
  HWP_TRACE_SCOPE("nn/TrainEpoch");
  EpochStats stats;
  double loss_sum = 0.0;
  int64_t correct = 0;
  // From the second batch on, a batch reuses the tensor blocks the one
  // before it freed instead of faulting fresh pages in
  // (tensor/storage.h); a one-batch epoch keeps malloc's peak.
  std::optional<StorageRecycleScope> recycle;
  for (const Batch& batch : batches) {
    HWP_TRACE_SCOPE("nn/batch");
    opt.ZeroGrad();
    model.ZeroGrad();
    const TensorF logits = model.Forward(batch.clips, /*train=*/true);
    const LossResult loss =
        SoftmaxCrossEntropy(logits, batch.labels, options.label_smoothing);
    model.Backward(loss.grad);
    if (options.post_backward) options.post_backward();
    opt.Step();
    if (options.post_step) options.post_step();

    const int64_t bsz = batch.clips.dim(0);
    loss_sum += static_cast<double>(loss.loss) * bsz;
    correct += loss.correct;
    stats.samples += bsz;
    if (!recycle) recycle.emplace();
  }
  if (stats.samples > 0) {
    stats.mean_loss = static_cast<float>(loss_sum / stats.samples);
    stats.accuracy = static_cast<double>(correct) / stats.samples;
  }
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetCounter("train.epochs").Add(1);
  reg.GetCounter("train.samples").Add(stats.samples);
  reg.GetGauge("train.loss").Set(stats.mean_loss);
  reg.GetGauge("train.accuracy").Set(stats.accuracy);
  obs::Tracer::Get().Counter("train.loss", stats.mean_loss);
  obs::Tracer::Get().Counter("train.accuracy", stats.accuracy);
  return stats;
}

EpochStats Evaluate(Module& model, const std::vector<Batch>& batches) {
  HWP_TRACE_SCOPE("nn/Evaluate");
  EpochStats stats;
  double loss_sum = 0.0;
  int64_t correct = 0;
  std::optional<StorageRecycleScope> recycle;  // as in TrainEpoch
  for (const Batch& batch : batches) {
    const TensorF logits = model.Forward(batch.clips, /*train=*/false);
    const LossResult loss = SoftmaxCrossEntropy(logits, batch.labels, 0.0f);
    const int64_t bsz = batch.clips.dim(0);
    loss_sum += static_cast<double>(loss.loss) * bsz;
    correct += loss.correct;
    stats.samples += bsz;
    if (!recycle) recycle.emplace();
  }
  if (stats.samples > 0) {
    stats.mean_loss = static_cast<float>(loss_sum / stats.samples);
    stats.accuracy = static_cast<double>(correct) / stats.samples;
  }
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetCounter("eval.runs").Add(1);
  reg.GetCounter("eval.samples").Add(stats.samples);
  reg.GetGauge("eval.loss").Set(stats.mean_loss);
  reg.GetGauge("eval.accuracy").Set(stats.accuracy);
  return stats;
}

}  // namespace hwp3d::nn
