#include "fpga/model_compiler.h"

#include <algorithm>

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

void AddStats(const TiledConvStats& r, CompiledRunStats* stats) {
  if (stats == nullptr) return;
  stats->modeled_cycles += r.modeled_cycles;
  stats->blocks_loaded += r.blocks_loaded;
  stats->blocks_skipped += r.blocks_skipped;
  stats->macs_executed += r.macs_executed;
}

// Per-dimension maximum: a halo wide enough for both paddings.
std::array<int64_t, 3> Widest(std::array<int64_t, 3> a,
                              std::array<int64_t, 3> b) {
  return {std::max(a[0], b[0]), std::max(a[1], b[1]), std::max(a[2], b[2])};
}

// Global average pool of each channel over its D×R×C values, summed in
// [D][R][C] order in double, in both activation types.
TensorF GlobalAvgPool(const TensorQ& x) {
  const int64_t C = x.dim(0);
  const int64_t vol = x.dim(1) * x.dim(2) * x.dim(3);
  TensorF pooled(Shape{C});
  for (int64_t c = 0; c < C; ++c) {
    double acc = 0.0;
    for (int64_t i = 0; i < vol; ++i) acc += x[c * vol + i].ToFloat();
    pooled[c] = static_cast<float>(acc / static_cast<double>(vol));
  }
  return pooled;
}

TensorF GlobalAvgPool(const QActivation& x) {
  // Both channels of a pair in one pass: two independent sums, each in
  // its channel's [D][R][C] order.
  const auto [D, R, C] = x.extent();
  TensorF pooled(Shape{x.channels()});
  for (int64_t q = 0; q < x.pairs(); ++q) {
    const int16_t* plane = x.data() + 2 * q * x.plane();
    double acc[2] = {0.0, 0.0};
    for (int64_t d = 0; d < D; ++d) {
      for (int64_t r = 0; r < R; ++r) {
        const int16_t* row = plane + 2 * x.Interior(d, r, 0);
        for (int64_t c = 0; c < 2 * C; c += 2) {
          acc[0] += Fixed16::FromRaw(row[c]).ToFloat();
          acc[1] += Fixed16::FromRaw(row[c + 1]).ToFloat();
        }
      }
    }
    for (int64_t h = 0; h < 2 && 2 * q + h < x.channels(); ++h) {
      pooled[2 * q + h] =
          static_cast<float>(acc[h] / static_cast<double>(D * R * C));
    }
  }
  return pooled;
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
        stage.mask.has_value() ? &*stage.mask : nullptr, stage.name);
    auto& reg = obs::MetricsRegistry::Get();
    reg.GetGauge("exec.int32_exact_frac", {{"layer", stage.name}})
        .Set(stage.packed->int32_exact_frac());
    reg.GetGauge("exec.direct_frac", {{"layer", stage.name}})
        .Set(PackedConvLayer::ReadsInPlace(stage.stride) ? 1.0 : 0.0);
  }
  return stage;
}

TensorQ CompiledTinyR2Plus1d::RunStage(const ConvStage& stage,
                                       const TensorQ& x,
                                       const TensorQ* shortcut,
                                       CompiledRunStats* stats) const {
  // The simulator runs on a padded copy, as the paper's host pads for
  // the engine.
  PostOps post = stage.post;
  post.shortcut = shortcut;
  TiledConvResult r =
      sim_.Run(stage.weights, PadInput(x, stage.padding), stage.stride,
               stage.mask.has_value() ? &*stage.mask : nullptr, post,
               stage.name);
  AddStats(r.stats, stats);
  return std::move(r.output);
}

QActivation CompiledTinyR2Plus1d::RunStage(const ConvStage& stage,
                                           const QActivation& x,
                                           const QActivation* shortcut,
                                           CompiledRunStats* stats) const {
  PackedConvLayer::Result r =
      stage.packed->Run(x, stage.stride, stage.padding, stage.post, shortcut,
                        stage.out_halo);
  AddStats(r.stats, stats);
  return std::move(r.output);
}

template <typename Act>
Act CompiledTinyR2Plus1d::RunConv2Plus1d(const ConvStage& spatial,
                                         const ConvStage& temporal,
                                         const Act& x, const Act* shortcut,
                                         CompiledRunStats* stats) const {
  const Act mid = RunStage(spatial, x, nullptr, stats);
  return RunStage(temporal, mid, shortcut, stats);
}

template <typename Act>
TensorF CompiledTinyR2Plus1d::Forward(const Act& clip,
                                      CompiledRunStats* stats) const {
  // Stem.
  Act x = RunConv2Plus1d<Act>(stem_spatial_, stem_temporal_, clip, nullptr,
                               stats);

  // Residual stages.
  const auto run_block = [&](const Block& b, const Act& in) {
    Act projected;
    const Act* shortcut = &in;
    if (b.shortcut.has_value()) {
      projected = RunStage(*b.shortcut, in, nullptr, stats);
      shortcut = &projected;
    }
    const Act h = RunConv2Plus1d<Act>(b.c1_spatial, b.c1_temporal, in,
                                      nullptr, stats);
    // conv2's temporal stage applies bn2, adds the shortcut tile and the
    // final ReLU inside the post-processing unit.
    return RunConv2Plus1d(b.c2_spatial, b.c2_temporal, h, shortcut, stats);
  };
  x = run_block(stage1_, x);
  x = run_block(stage2_, x);

  // Host side: global average pool (the FC follows in Infer).
  return GlobalAvgPool(x);
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

  // Fast path: each activation's halo is the widest padding among the
  // stages that read it as a conv input (a shortcut is read interior
  // only, and the pooled output not at all).
  const auto block_input_halo = [](const Block& b) {
    return b.shortcut.has_value()
               ? Widest(b.c1_spatial.padding, b.shortcut->padding)
               : b.c1_spatial.padding;
  };
  in_halo_ = stem_spatial_.padding;
  stem_spatial_.out_halo = stem_temporal_.padding;
  stem_temporal_.out_halo = block_input_halo(stage1_);
  for (Block* b : {&stage1_, &stage2_}) {
    b->c1_spatial.out_halo = b->c1_temporal.padding;
    b->c1_temporal.out_halo = b->c2_spatial.padding;
    b->c2_spatial.out_halo = b->c2_temporal.padding;
  }
  stage1_.c2_temporal.out_halo = block_input_halo(stage2_);

  fc_weight_ = model.fc().weight().value;
  fc_bias_ = model.fc().bias().value;
}

TensorF CompiledTinyR2Plus1d::Infer(const TensorF& clip,
                                    CompiledRunStats* stats) const {
  HWP_TRACE_SCOPE("compiled/Infer");
  HWP_SHAPE_CHECK_MSG(clip.rank() == 4,
                      "Infer expects a [C][D][H][W] clip, got "
                          << clip.shape().ToString());
  // The fast path quantizes the clip straight into its layout.
  const TensorF pooled =
      options_.executor == ExecMode::kFast
          ? Forward(QActivation::Quantize(clip, in_halo_), stats)
          : Forward(Quantize(clip), stats);
  const int64_t C = pooled.numel();
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
