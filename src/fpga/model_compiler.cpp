#include "fpga/model_compiler.h"

#include "common/error.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwp3d::fpga {

namespace {

// Quantizes a folded BN (or identity) into Q7.8 post-op parameters.
PostOps FoldBn(nn::BatchNorm3d* bn, bool relu) {
  PostOps post;
  post.relu = relu;
  if (bn != nullptr) {
    TensorF scale, shift;
    bn->FoldedAffine(scale, shift);
    post.has_affine = true;
    post.scale = Quantize(scale);
    post.shift = Quantize(shift);
  }
  return post;
}

}  // namespace

StatusOr<CompiledTinyR2Plus1d> CompiledTinyR2Plus1d::Compile(
    models::TinyR2Plus1d& model, CompiledModelOptions options) {
  const auto prunable = model.PrunableConvs();
  if (!options.masks.empty() && options.masks.size() != prunable.size()) {
    return InvalidArgumentError(StrFormat(
        "mask count %zu does not match the %zu prunable convs of '%s'; "
        "pass one mask per PrunableConvs() entry or none for dense "
        "execution",
        options.masks.size(), prunable.size(), model.name().c_str()));
  }
  for (size_t i = 0; i < options.masks.size(); ++i) {
    core::BlockPartition part(prunable[i]->weight().value.shape(),
                              options.tiling.block());
    const core::BlockMask& mask = options.masks[i];
    if (mask.blocks_m != part.blocks_m() || mask.blocks_n != part.blocks_n()) {
      return InvalidArgumentError(StrFormat(
          "%s: mask grid %lldx%lld does not match the %lldx%lld block "
          "grid induced by tiling %s — re-run pruning with block size "
          "(Tm=%lld, Tn=%lld) or change the tiling",
          prunable[i]->name().c_str(), (long long)mask.blocks_m,
          (long long)mask.blocks_n, (long long)part.blocks_m(),
          (long long)part.blocks_n(),
          options.tiling.ToString().c_str(), (long long)options.tiling.Tm,
          (long long)options.tiling.Tn));
    }
  }
  try {
    return CompiledTinyR2Plus1d(model, std::move(options));
  } catch (const Error& e) {
    // Anything the pre-validation above missed is a library bug, but
    // surface it as a Status rather than tearing the server down.
    return InternalError(StrFormat("model compilation failed: %s", e.what()));
  }
}

CompiledTinyR2Plus1d::ConvStage CompiledTinyR2Plus1d::MakeStage(
    nn::Conv3d& conv, nn::BatchNorm3d* bn, bool relu,
    const core::BlockMask* mask) const {
  ConvStage stage;
  stage.name = conv.name();
  stage.weights = Quantize(conv.weight().value);
  stage.stride = conv.config().stride;
  stage.padding = conv.config().padding;
  stage.post = FoldBn(bn, relu);
  if (mask != nullptr) {
    core::BlockPartition part(conv.weight().value.shape(),
                              options_.tiling.block());
    HWP_CHECK_MSG(mask->blocks_m == part.blocks_m() &&
                      mask->blocks_n == part.blocks_n(),
                  conv.name() << ": mask grid does not match tiling "
                              << options_.tiling.ToString());
    stage.mask = *mask;
  }
  if (options_.executor == ExecMode::kFast) {
    stage.packed = std::make_shared<PackedConvLayer>(
        stage.weights, options_.tiling, options_.ports,
        stage.mask.has_value() ? &*stage.mask : nullptr);
    obs::MetricsRegistry::Get()
        .GetGauge("exec.int32_exact_frac", {{"layer", stage.name}})
        .Set(stage.packed->int32_exact_frac());
  }
  return stage;
}

TensorQ CompiledTinyR2Plus1d::RunStage(const ConvStage& stage,
                                       const TensorQ& x,
                                       const TensorQ* shortcut,
                                       CompiledRunStats* stats) const {
  PostOps post = stage.post;
  post.shortcut = shortcut;
  // The fast path folds the zero halo into its gather; the simulator
  // runs on a padded copy, as the paper's host pads for the engine.
  TiledConvResult r =
      options_.executor == ExecMode::kFast
          ? stage.packed->Run(x, stage.stride, stage.padding, post,
                              stage.name)
          : sim_.Run(stage.weights, PadInput(x, stage.padding), stage.stride,
                     stage.mask.has_value() ? &*stage.mask : nullptr, post,
                     stage.name);
  if (stats != nullptr) {
    stats->modeled_cycles += r.stats.modeled_cycles;
    stats->blocks_loaded += r.stats.blocks_loaded;
    stats->blocks_skipped += r.stats.blocks_skipped;
    stats->macs_executed += r.stats.macs_executed;
  }
  return std::move(r.output);
}

TensorQ CompiledTinyR2Plus1d::RunConv2Plus1d(const ConvStage& spatial,
                                             const ConvStage& temporal,
                                             const TensorQ& x,
                                             const TensorQ* shortcut,
                                             CompiledRunStats* stats) const {
  const TensorQ mid = RunStage(spatial, x, nullptr, stats);
  return RunStage(temporal, mid, shortcut, stats);
}

CompiledTinyR2Plus1d::CompiledTinyR2Plus1d(models::TinyR2Plus1d& model,
                                           CompiledModelOptions options)
    : options_(std::move(options)),
      sim_(options_.tiling, options_.ports) {
  const auto prunable = model.PrunableConvs();
  HWP_CHECK_MSG(options_.masks.empty() ||
                    options_.masks.size() == prunable.size(),
                "mask count " << options_.masks.size() << " vs "
                              << prunable.size() << " prunable convs");
  const auto mask_for = [&](size_t i) -> const core::BlockMask* {
    return options_.masks.empty() ? nullptr : &options_.masks[i];
  };

  // Stem: spatial (+bn_mid+relu) -> temporal (+stem_bn+relu). Unpruned.
  stem_spatial_ =
      MakeStage(model.stem().spatial(), &model.stem().bn_mid(), true, nullptr);
  stem_temporal_ =
      MakeStage(model.stem().temporal(), &model.stem_bn(), true, nullptr);

  // Residual stages: prunable conv order is
  // [c1.spatial, c1.temporal, c2.spatial, c2.temporal] per stage.
  const auto build_block = [&](nn::ResidualBlock& rb, size_t base) {
    Block b;
    b.c1_spatial = MakeStage(rb.conv1().spatial(), &rb.conv1().bn_mid(), true,
                             mask_for(base + 0));
    b.c1_temporal =
        MakeStage(rb.conv1().temporal(), &rb.bn1(), true, mask_for(base + 1));
    b.c2_spatial = MakeStage(rb.conv2().spatial(), &rb.conv2().bn_mid(), true,
                             mask_for(base + 2));
    // bn2's affine is applied before the shortcut add + final ReLU.
    b.c2_temporal =
        MakeStage(rb.conv2().temporal(), &rb.bn2(), true, mask_for(base + 3));
    if (rb.has_projection()) {
      b.shortcut =
          MakeStage(*rb.shortcut_conv(), rb.shortcut_bn(), false, nullptr);
    }
    return b;
  };
  stage1_ = build_block(model.stage1(), 0);
  stage2_ = build_block(model.stage2(), 4);

  fc_weight_ = model.fc().weight().value;
  fc_bias_ = model.fc().bias().value;
}

TensorF CompiledTinyR2Plus1d::Infer(const TensorF& clip,
                                    CompiledRunStats* stats) const {
  HWP_TRACE_SCOPE("compiled/Infer");
  HWP_SHAPE_CHECK_MSG(clip.rank() == 4,
                      "Infer expects a [C][D][H][W] clip, got "
                          << clip.shape().ToString());
  TensorQ x = Quantize(clip);

  // Stem.
  x = RunConv2Plus1d(stem_spatial_, stem_temporal_, x, nullptr, stats);

  // Residual stages.
  const auto run_block = [&](const Block& b, const TensorQ& in) {
    const TensorQ shortcut =
        b.shortcut.has_value() ? RunStage(*b.shortcut, in, nullptr, stats)
                               : in;
    TensorQ h = RunConv2Plus1d(b.c1_spatial, b.c1_temporal, in, nullptr,
                               stats);
    // conv2's temporal stage applies bn2, adds the shortcut tile and the
    // final ReLU inside the post-processing unit.
    return RunConv2Plus1d(b.c2_spatial, b.c2_temporal, h, &shortcut, stats);
  };
  x = run_block(stage1_, x);
  x = run_block(stage2_, x);

  // Host side: global average pool + FC, in float (as in the paper the
  // FC layer contributes negligibly and runs on the PS).
  const int64_t C = x.dim(0);
  const int64_t vol = x.dim(1) * x.dim(2) * x.dim(3);
  TensorF pooled(Shape{C});
  for (int64_t c = 0; c < C; ++c) {
    double acc = 0.0;
    for (int64_t i = 0; i < vol; ++i) acc += x[c * vol + i].ToFloat();
    pooled[c] = static_cast<float>(acc / static_cast<double>(vol));
  }
  const int64_t K = fc_weight_.dim(0);
  TensorF logits(Shape{K});
  for (int64_t k = 0; k < K; ++k) {
    double acc = fc_bias_[k];
    for (int64_t c = 0; c < C; ++c) acc += fc_weight_(k, c) * pooled[c];
    logits[k] = static_cast<float>(acc);
  }
  return logits;
}

int CompiledTinyR2Plus1d::Classify(const TensorF& clip,
                                   CompiledRunStats* stats) const {
  const TensorF logits = Infer(clip, stats);
  int best = 0;
  for (int64_t k = 1; k < logits.numel(); ++k) {
    if (logits[k] > logits[best]) best = static_cast<int>(k);
  }
  return best;
}

}  // namespace hwp3d::fpga
