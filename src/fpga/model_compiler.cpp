#include "fpga/model_compiler.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"
#include "nn/activations.h"
#include "nn/batchnorm3d.h"
#include "nn/conv3d.h"
#include "nn/linear.h"
#include "nn/pool3d.h"
#include "nn/r2plus1d_block.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwp3d::fpga {

namespace {

// The leaf modules of `m` in execution order: nested Sequentials are
// flattened (they only chain their children).
void Flatten(nn::Module& m, std::vector<nn::Module*>& out) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&m)) {
    for (size_t i = 0; i < seq->size(); ++i) Flatten(*seq->child(i), out);
  } else {
    out.push_back(&m);
  }
}

std::vector<nn::Module*> Leaves(nn::Module& m) {
  std::vector<nn::Module*> out;
  Flatten(m, out);
  return out;
}

// Why a module that reached the trunk's walk does not lower there.
Status Unsupported(nn::Module* m) {
  const char* why =
      dynamic_cast<nn::BatchNorm3d*>(m) != nullptr
          ? "a BatchNorm3d folds only into the Conv3d right before it"
      : dynamic_cast<nn::ReLU*>(m) != nullptr
          ? "a ReLU folds only into the Conv3d (and its BatchNorm3d) "
            "right before it"
      : dynamic_cast<nn::Linear*>(m) != nullptr ||
              dynamic_cast<nn::GlobalAvgPool3d*>(m) != nullptr
          ? "GlobalAvgPool3d + Linear lower only as the model's last two "
            "modules (the host head)"
          : "the accelerator runs Conv3d [+ BatchNorm3d] [+ ReLU], "
            "MaxPool3d and ResidualBlock";
  return InvalidArgumentError(
      StrFormat("cannot lower '%s': %s", m->name().c_str(), why));
}

// A conv's post-processing unit: its BN (if any) folded into a
// per-channel affine, its bias into the shift (scale 1 without a BN),
// quantized to Q7.8; then the ReLU.
PostOps FoldPost(nn::Conv3d& conv, nn::BatchNorm3d* bn, bool relu) {
  PostOps post;
  post.relu = relu;
  const nn::Param* bias = conv.bias();
  if (bn == nullptr && bias == nullptr) return post;
  TensorF scale, shift;
  if (bn != nullptr) {
    bn->FoldedAffine(scale, shift);
  } else {
    scale = TensorF(bias->value.shape(), 1.0f);
    shift = TensorF(bias->value.shape());
  }
  if (bias != nullptr) {
    for (int64_t m = 0; m < shift.numel(); ++m) {
      shift[m] += scale[m] * bias->value[m];
    }
  }
  post.has_affine = true;
  post.scale = Quantize(scale);
  post.shift = Quantize(shift);
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

struct CompiledModel::Walk {
  const std::vector<nn::Conv3d*>& prunable;
  std::vector<bool> met;  // [prunable.size()]
};

StatusOr<CompiledModel> CompiledModel::Compile(
    nn::Sequential& model, const std::vector<nn::Conv3d*>& prunable,
    CompiledModelOptions options) {
  if (!options.masks.empty() && options.masks.size() != prunable.size()) {
    return InvalidArgumentError(StrFormat(
        "mask count %zu does not match the %zu prunable convs of '%s'; "
        "pass one mask per prunable conv or none for dense execution",
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
  CompiledModel compiled(std::move(options));
  try {
    const Status lowered = compiled.Lower(model, prunable);
    if (!lowered.ok()) return lowered;
  } catch (const Error& e) {
    // Anything the checks above and the walk's missed is a library bug,
    // but surface it as a Status rather than tearing the server down.
    return InternalError(StrFormat("model compilation failed: %s", e.what()));
  }
  return compiled;
}

CompiledModel::CompiledModel(CompiledModelOptions options)
    : options_(std::move(options)), sim_(options_.tiling, options_.ports) {}

Status CompiledModel::Lower(nn::Sequential& model,
                            const std::vector<nn::Conv3d*>& prunable) {
  std::vector<nn::Module*> trunk = Leaves(model);
  const size_t n = trunk.size();
  auto* fc = n >= 2 ? dynamic_cast<nn::Linear*>(trunk[n - 1]) : nullptr;
  if (fc == nullptr ||
      dynamic_cast<nn::GlobalAvgPool3d*>(trunk[n - 2]) == nullptr) {
    return InvalidArgumentError(StrFormat(
        "cannot lower '%s': it must end in GlobalAvgPool3d + Linear, the "
        "host head, but ends in '%s'",
        model.name().c_str(), n == 0 ? "" : trunk.back()->name().c_str()));
  }
  trunk.resize(n - 2);

  Walk walk{prunable, std::vector<bool>(prunable.size(), false)};
  const StatusOr<int> out = LowerChain(trunk, -1, walk);
  if (!out.ok()) return out.status();
  if (ops_.empty()) {
    return InvalidArgumentError(StrFormat(
        "cannot lower '%s': it has no conv for the accelerator to run",
        model.name().c_str()));
  }
  HWP_CHECK_MSG(*out == static_cast<int>(ops_.size()) - 1,
                "the trunk's output is not its last op's");
  for (size_t i = 0; i < prunable.size(); ++i) {
    if (!walk.met[i]) {
      return InvalidArgumentError(StrFormat(
          "prunable conv '%s' is not in '%s'; its mask would apply to "
          "nothing",
          prunable[i]->name().c_str(), model.name().c_str()));
    }
  }
  fc_weight_ = fc->weight().value;
  fc_bias_ = fc->bias().value;
  if (fc_weight_.dim(1) != ops_.back().channels) {
    return InvalidArgumentError(StrFormat(
        "cannot lower '%s': it takes %lld features, the trunk ends in %lld "
        "channels",
        fc->name().c_str(), (long long)fc_weight_.dim(1),
        (long long)ops_.back().channels));
  }

  // Walking the plan backwards, each activation's first reader seen is
  // its last, which frees it. Its halo is the widest padding among the
  // ops that convolve it (a shortcut is read interior only, as are a
  // pool's input and the pooled output).
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
  return Status::Ok();
}

StatusOr<int> CompiledModel::LowerChain(const std::vector<nn::Module*>& chain,
                                        int x, Walk& walk) {
  for (size_t i = 0; i < chain.size(); ++i) {
    const auto next = [&]() -> nn::Module* {
      return i + 1 < chain.size() ? chain[i + 1] : nullptr;
    };
    StatusOr<int> y = x;
    if (auto* conv = dynamic_cast<nn::Conv3d*>(chain[i])) {
      auto* bn = dynamic_cast<nn::BatchNorm3d*>(next());
      if (bn != nullptr) ++i;
      const bool relu = dynamic_cast<nn::ReLU*>(next()) != nullptr;
      if (relu) ++i;
      y = AddConv(*conv, bn, relu, x, walk);
    } else if (auto* pool = dynamic_cast<nn::MaxPool3d*>(chain[i])) {
      y = AddPool(*pool, x);
    } else if (auto* block = dynamic_cast<nn::ResidualBlock*>(chain[i])) {
      y = LowerBlock(*block, x, walk);
    } else {
      return Unsupported(chain[i]);
    }
    if (!y.ok()) return y;
    x = *y;
  }
  return x;
}

StatusOr<int> CompiledModel::LowerBlock(nn::ResidualBlock& block, int x,
                                        Walk& walk) {
  // The shortcut first, then the main chain: the order the ops run in.
  const StatusOr<int> shortcut = LowerChain(Leaves(block.shortcut()), x, walk);
  if (!shortcut.ok()) return shortcut;
  const int first = static_cast<int>(ops_.size());
  const StatusOr<int> y = LowerChain(Leaves(block.main()), x, walk);
  if (!y.ok()) return y;
  // A join op of its own (a nested block's) already has its ReLU.
  Op* join = *y >= first ? &ops_[static_cast<size_t>(*y)] : nullptr;
  if (join == nullptr || join->pool_window.has_value() || join->post.relu) {
    return InvalidArgumentError(StrFormat(
        "cannot lower '%s': its main chain must end in a Conv3d "
        "[+ BatchNorm3d] without a ReLU, whose post-processing takes the "
        "block's add and final ReLU",
        block.name().c_str()));
  }
  join->shortcut = *shortcut;
  join->post.relu = true;
  return y;
}

StatusOr<int> CompiledModel::AddConv(nn::Conv3d& conv, nn::BatchNorm3d* bn,
                                     bool relu, int x, Walk& walk) {
  const nn::Conv3dConfig& cfg = conv.config();
  if (ops_.empty()) in_channels_ = cfg.in_channels;
  if (cfg.in_channels != Channels(x)) {
    return InvalidArgumentError(StrFormat(
        "cannot lower '%s': it takes %lld channels, its input has %lld",
        conv.name().c_str(), (long long)cfg.in_channels,
        (long long)Channels(x)));
  }
  if (bn != nullptr && bn->channels() != cfg.out_channels) {
    return InvalidArgumentError(StrFormat(
        "cannot lower '%s': it normalizes %lld channels, the conv '%s' "
        "before it has %lld",
        bn->name().c_str(), (long long)bn->channels(), conv.name().c_str(),
        (long long)cfg.out_channels));
  }
  Op op;
  op.name = conv.name();
  op.weights = Quantize(conv.weight().value);
  op.stride = cfg.stride;
  op.padding = cfg.padding;
  op.channels = cfg.out_channels;
  op.post = FoldPost(conv, bn, relu);
  op.input = x;
  const auto it =
      std::find(walk.prunable.begin(), walk.prunable.end(), &conv);
  if (it != walk.prunable.end()) {
    const size_t i = static_cast<size_t>(it - walk.prunable.begin());
    walk.met[i] = true;
    if (!options_.masks.empty()) op.mask = options_.masks[i];
  }
  // Packed whatever the executor: MacsFor reads the plan's MACs off it.
  op.packed = std::make_shared<PackedConvLayer>(
      op.weights, options_.tiling, options_.ports,
      op.mask.has_value() ? &*op.mask : nullptr, op.name);
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetGauge("exec.int32_exact_frac", {{"layer", op.name}})
      .Set(op.packed->int32_exact_frac());
  reg.GetGauge("exec.direct_frac", {{"layer", op.name}})
      .Set(PackedConvLayer::ReadsInPlace(op.stride) ? 1.0 : 0.0);
  ops_.push_back(std::move(op));
  return static_cast<int>(ops_.size()) - 1;
}

StatusOr<int> CompiledModel::AddPool(nn::MaxPool3d& pool, int x) {
  if (ops_.empty()) {
    return InvalidArgumentError(StrFormat(
        "cannot lower '%s': the first op must be a Conv3d, which fixes "
        "the clip's channels",
        pool.name().c_str()));
  }
  Op op;
  op.name = pool.name();
  op.pool_window = pool.config().kernel;
  op.stride = pool.config().stride;
  op.channels = Channels(x);
  op.input = x;
  ops_.push_back(std::move(op));
  return static_cast<int>(ops_.size()) - 1;
}

QActivation CompiledModel::RunOp(const Op& op, const QActivation& x,
                                 const QActivation* shortcut,
                                 CompiledRunStats* stats) const {
  const bool fast = options_.executor == ExecMode::kFast;
  if (op.pool_window.has_value()) {
    // The Q7.8 max on a dense copy, on either executor. A pool adds no
    // MACs and no modeled cycles.
    obs::TraceScope span(fast ? "exec/pool" : "sim/pool");
    if (span.active()) span.SetName((fast ? "exec/" : "sim/") + op.name);
    return QActivation::FromTensor(
        MaxPool3dFixed(x.ToTensor(), *op.pool_window, op.stride),
        op.out_halo);
  }
  if (fast) {
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

TensorF CompiledModel::Infer(const TensorF& clip,
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

int64_t CompiledModel::MacsFor(const Shape& clip) const {
  HWP_SHAPE_CHECK_MSG(clip.rank() == 4, "expects a [C][D][H][W] clip, got "
                                            << clip.ToString());
  // The lowering matched every op's input channels to its producer.
  HWP_SHAPE_CHECK_MSG(clip[0] == in_channels_, "input channel mismatch: "
                                                   << clip[0] << " vs "
                                                   << in_channels_);
  const std::array<int64_t, 3> clip_extent = {clip[1], clip[2], clip[3]};
  std::vector<std::array<int64_t, 3>> extents(ops_.size());
  int64_t macs = 0;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    const std::array<int64_t, 3>& in =
        op.input < 0 ? clip_extent : extents[static_cast<size_t>(op.input)];
    if (op.pool_window.has_value()) {
      extents[i] = PoolExtent(in, *op.pool_window, op.stride);
      continue;
    }
    extents[i] = op.packed->OutputExtent(in, op.stride, op.padding);
    macs += op.packed->Macs(extents[i]);
  }
  return macs;
}

int CompiledModel::Classify(const TensorF& clip,
                            CompiledRunStats* stats) const {
  const TensorF logits = Infer(clip, stats);
  int best = 0;
  for (int64_t k = 1; k < logits.numel(); ++k) {
    if (logits[k] > logits[best]) best = static_cast<int>(k);
  }
  return best;
}

}  // namespace hwp3d::fpga
