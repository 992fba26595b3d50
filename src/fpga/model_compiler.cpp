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
// [D][R][C] order in double. Both channels of a pair in one pass: two
// independent sums, each in its channel's order.
TensorF GlobalAvgPool(const QActivation& x) {
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

CompiledTinyR2Plus1d::Op CompiledTinyR2Plus1d::MakeOp(
    nn::Conv3d& conv, nn::BatchNorm3d* bn, bool relu,
    const core::BlockMask* mask) const {
  Op op;
  op.name = conv.name();
  op.weights = Quantize(conv.weight().value);
  op.stride = conv.config().stride;
  op.padding = conv.config().padding;
  op.post = FoldBn(bn, relu);
  if (mask != nullptr) op.mask = *mask;
  // Packed whatever the executor: MacsFor reads the plan's MACs off it.
  op.packed = std::make_shared<PackedConvLayer>(
      op.weights, options_.tiling, options_.ports,
      op.mask.has_value() ? &*op.mask : nullptr, op.name);
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetGauge("exec.int32_exact_frac", {{"layer", op.name}})
      .Set(op.packed->int32_exact_frac());
  reg.GetGauge("exec.direct_frac", {{"layer", op.name}})
      .Set(PackedConvLayer::ReadsInPlace(op.stride) ? 1.0 : 0.0);
  return op;
}

CompiledTinyR2Plus1d::CompiledTinyR2Plus1d(models::TinyR2Plus1d& model,
                                           CompiledModelOptions options)
    : options_(std::move(options)),
      sim_(options_.tiling, options_.ports) {
  // The topology. Every conv's BN (and ReLU) folds into its
  // post-processing unit; a residual block's conv2 temporal op applies
  // bn2, adds the shortcut and applies the final ReLU there. Prunable
  // convs take their masks in PrunableConvs() order: [c1.spatial,
  // c1.temporal, c2.spatial, c2.temporal] per stage.
  const auto add = [&](nn::Conv3d& conv, nn::BatchNorm3d* bn, bool relu,
                       int input, const core::BlockMask* mask = nullptr,
                       std::optional<int> shortcut = {}) {
    ops_.push_back(MakeOp(conv, bn, relu, mask));
    ops_.back().input = input;
    ops_.back().shortcut = shortcut;
    return static_cast<int>(ops_.size()) - 1;
  };
  size_t prunable = 0;
  const auto next_mask = [&]() -> const core::BlockMask* {
    const size_t i = prunable++;
    return options_.masks.empty() ? nullptr : &options_.masks[i];
  };
  nn::Conv2Plus1d& stem = model.stem();
  int x = add(stem.spatial(), &stem.bn_mid(), true, -1);
  x = add(stem.temporal(), &model.stem_bn(), true, x);
  for (nn::ResidualBlock* rb : {&model.stage1(), &model.stage2()}) {
    const int shortcut =
        rb->has_projection()
            ? add(*rb->shortcut_conv(), rb->shortcut_bn(), false, x)
            : x;
    int h = add(rb->conv1().spatial(), &rb->conv1().bn_mid(), true, x,
                next_mask());
    h = add(rb->conv1().temporal(), &rb->bn1(), true, h, next_mask());
    h = add(rb->conv2().spatial(), &rb->conv2().bn_mid(), true, h,
            next_mask());
    x = add(rb->conv2().temporal(), &rb->bn2(), true, h, next_mask(),
            shortcut);
  }

  // Walking the plan backwards, each activation's first reader seen is
  // its last, which frees it. Its halo is the widest padding among the
  // ops that convolve it (a shortcut is read interior only, and the
  // pooled output not at all).
  std::vector<bool> read(ops_.size() + 1, false);  // [0] is the clip
  const auto last_read = [&](int activation) {
    const size_t a = static_cast<size_t>(activation + 1);
    const bool last = !read[a];
    read[a] = true;
    return last;
  };
  for (size_t i = ops_.size(); i-- > 0;) {
    Op& op = ops_[i];
    std::array<int64_t, 3>& halo =
        op.input < 0 ? in_halo_ : ops_[static_cast<size_t>(op.input)].out_halo;
    halo = Widest(halo, op.padding);
    op.frees_input = last_read(op.input);
    if (op.shortcut.has_value()) op.frees_shortcut = last_read(*op.shortcut);
  }

  fc_weight_ = model.fc().weight().value;
  fc_bias_ = model.fc().bias().value;
}

QActivation CompiledTinyR2Plus1d::RunOp(const Op& op, const QActivation& x,
                                        const QActivation* shortcut,
                                        CompiledRunStats* stats) const {
  if (options_.executor == ExecMode::kFast) {
    PackedConvLayer::Result r = op.packed->Run(x, op.stride, op.padding,
                                               op.post, shortcut, op.out_halo);
    AddStats(r.stats, stats);
    return std::move(r.output);
  }
  // The simulator runs on a padded dense copy, as the paper's host pads
  // for the engine. Both layout conversions are lossless.
  TensorQ dense_shortcut;
  PostOps post = op.post;
  if (shortcut != nullptr) {
    dense_shortcut = shortcut->ToTensor();
    post.shortcut = &dense_shortcut;
  }
  TiledConvResult r =
      sim_.Run(op.weights, PadInput(x.ToTensor(), op.padding), op.stride,
               op.mask.has_value() ? &*op.mask : nullptr, post, op.name);
  AddStats(r.stats, stats);
  return QActivation::FromTensor(r.output, op.out_halo);
}

TensorF CompiledTinyR2Plus1d::Infer(const TensorF& clip,
                                    CompiledRunStats* stats) const {
  HWP_TRACE_SCOPE("compiled/Infer");
  HWP_SHAPE_CHECK_MSG(clip.rank() == 4,
                      "Infer expects a [C][D][H][W] clip, got "
                          << clip.shape().ToString());
  // The clip is quantized straight into its layout. An activation is
  // freed as soon as the op that reads it last has run.
  QActivation quantized = QActivation::Quantize(clip, in_halo_);
  std::vector<QActivation> acts(ops_.size());
  const auto act = [&](int i) -> QActivation& {
    return i < 0 ? quantized : acts[static_cast<size_t>(i)];
  };
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    acts[i] = RunOp(op, act(op.input),
                    op.shortcut.has_value() ? &act(*op.shortcut) : nullptr,
                    stats);
    if (op.frees_input) act(op.input) = QActivation();
    if (op.frees_shortcut) act(*op.shortcut) = QActivation();
  }

  // Host side: global average pool and the FC.
  const TensorF pooled = GlobalAvgPool(acts.back());
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

int64_t CompiledTinyR2Plus1d::MacsFor(const Shape& clip) const {
  HWP_SHAPE_CHECK_MSG(clip.rank() == 4, "expects a [C][D][H][W] clip, got "
                                            << clip.ToString());
  // The first op convolves the clip; the lowering matches every other
  // op's input channels to its producer.
  HWP_SHAPE_CHECK_MSG(clip[0] == ops_.front().weights.dim(1),
                      "input channel mismatch: " << clip[0] << " vs "
                          << ops_.front().weights.dim(1));
  const std::array<int64_t, 3> clip_extent = {clip[1], clip[2], clip[3]};
  std::vector<std::array<int64_t, 3>> extents(ops_.size());
  int64_t macs = 0;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    extents[i] = op.packed->OutputExtent(
        op.input < 0 ? clip_extent : extents[static_cast<size_t>(op.input)],
        op.stride, op.padding);
    macs += op.packed->Macs(extents[i]);
  }
  return macs;
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
