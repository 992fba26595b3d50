// Compiles a trained nn::Sequential onto the tiled accelerator. One walk
// over the model's chain, with nested Sequentials flattened into their
// leaf modules, lowers it into an ordered list of ops:
//
//  * Conv3d, then an optional BatchNorm3d, then an optional ReLU: one
//    conv op. Its weights are quantized to Q7.8; the BN folds into the
//    post-processing unit's per-channel affine and a conv bias into its
//    shift (with a scale of 1 when there is no BN).
//  * ResidualBlock: its shortcut() chain (empty: the identity), then its
//    main() chain. The block's add and final ReLU join the
//    post-processing of the main chain's last op, which must be a conv
//    op without a ReLU of its own.
//  * MaxPool3d: a pool op, MaxPool3dFixed on the Q7.8 activation on
//    either executor. Max commutes with the monotonic quantization, so
//    pooling after it is exact.
//  * The chain's last two modules, GlobalAvgPool3d + Linear: the host
//    head.
//
// Any other module, or these in another order (a BatchNorm3d or ReLU
// with no conv before it, a BatchNorm3d wider or narrower than its
// conv, a head that is not last, no head at all, a pool before the
// first conv), makes Compile return kInvalidArgument naming the module.
// The block-enable masks of a pruned model attach to their convs, so
// the engine actually skips pruned tiles.
//
// This is the software counterpart of the paper's deployment flow:
// ADMM-pruned network -> 16-bit fixed-point accelerator with
// block-enable, FC head on the host.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/block_partition.h"
#include "fpga/compiled_executor.h"
#include "fpga/tiled_conv_sim.h"

namespace hwp3d::nn {
class BatchNorm3d;
class Conv3d;
class MaxPool3d;
class Module;
class ResidualBlock;
class Sequential;
}  // namespace hwp3d::nn

namespace hwp3d::fpga {

struct CompiledModelOptions {
  Tiling tiling{4, 4, 2, 4, 4};
  Ports ports;
  // Block masks for the prunable convs, indexed like the `prunable` list
  // Compile takes (a model's PrunableConvs()); empty = dense execution.
  std::vector<core::BlockMask> masks;
  // Which engine runs the conv stages; both are bitwise identical
  // (asserted by compiled_executor_test). Only the simulator checks
  // (compiled_executor_test, bench_serve's comparison) ask for kSimulate.
  ExecMode executor = ExecMode::kFast;
};

struct CompiledRunStats {
  int64_t modeled_cycles = 0;
  int64_t blocks_loaded = 0;
  int64_t blocks_skipped = 0;
  int64_t macs_executed = 0;
  bool operator==(const CompiledRunStats&) const = default;
};

class CompiledModel {
 public:
  // The one way to build a compiled model: validates `options` (mask
  // count and per-conv block grids under tiling.block()), lowers the
  // chain (see file comment) and returns an actionable Status instead of
  // throwing. Mask i applies to prunable[i], matched by pointer during
  // the walk; a prunable conv the walk never meets is an error.
  // Snapshots the model's weights and (eval-mode) BN statistics, so the
  // model must already be trained and the result is self-contained and
  // immutable: Infer/Classify are const and safe to call from many
  // threads concurrently, which is how every serving lane runs the one
  // model an InferenceServer holds.
  static StatusOr<CompiledModel> Compile(
      nn::Sequential& model, const std::vector<nn::Conv3d*>& prunable,
      CompiledModelOptions options);

  // The same for a model that names its own prunable convs.
  template <typename Model>
  static StatusOr<CompiledModel> Compile(Model& model,
                                         CompiledModelOptions options) {
    return Compile(model, model.PrunableConvs(), std::move(options));
  }

  // Runs one clip [C][D][H][W] (float, host side) through the simulated
  // accelerator and the host head; returns the logits.
  TensorF Infer(const TensorF& clip, CompiledRunStats* stats = nullptr) const;

  // Argmax convenience.
  int Classify(const TensorF& clip, CompiledRunStats* stats = nullptr) const;

  // The MACs one Infer on a clip of this shape executes (its
  // CompiledRunStats::macs_executed), read off the clip's plan without
  // running it. Throws ShapeError for a clip Infer would reject.
  int64_t MacsFor(const Shape& clip) const;

  // Clip shapes whose plan the model keeps (see ClipPlan). Clip shapes
  // come from clients, so the cache is bounded: a clip of another shape
  // once it is full gets a plan made for that call alone.
  static constexpr size_t kClipPlans = 4;
  // Clip shapes whose plan the model (and its copies) holds.
  size_t cached_clip_plans() const;

  // The engine Infer dispatches to (options.executor).
  ExecMode executor() const { return options_.executor; }

 private:
  // One op of the plan: a conv with its BN folded into the
  // post-processing unit, or a max pool. Op i writes activation i.
  struct Op {
    std::string name;                 // module name, labels traces/metrics
    // Set for a max pool: its window (the op has no weights).
    std::optional<std::array<int64_t, 3>> pool_window;
    TensorQ weights;                  // conv: [M][N][Kd][Kr][Kc]
    std::array<int64_t, 3> stride{};
    std::array<int64_t, 3> padding{};  // a pool has none
    int64_t channels = 0;             // of the activation it writes
    std::optional<core::BlockMask> mask;
    PostOps post;                     // affine/relu; shortcut set at runtime
    // Block-CSR packed weights of a conv; shared so copies of this model
    // reuse one packed stream.
    std::shared_ptr<const PackedConvLayer> packed;
    // The activation this op reads (-1: the clip) and the one its
    // post-processing unit adds, if any.
    int input = -1;
    std::optional<int> shortcut;
    // Derived from the op list: the halo of the activation this op
    // writes (the widest padding among the ops that convolve it), and
    // whether this op is the last to read its input / its shortcut.
    std::array<int64_t, 3> out_halo{};
    bool frees_input = false;
    bool frees_shortcut = false;
  };

  // The walk's record of the prunable convs it has met.
  struct Walk;

  // Everything a clip's D×R×C extent fixes, from one walk over ops_: per
  // op, a conv's PackedConvLayer plan (a pool's holds only its output
  // extent), and the clip's analytic stats, which are kFast's.
  struct ClipPlan {
    std::array<int64_t, 3> clip{};  // the key
    std::vector<PackedConvLayer::ShapePlan> ops;  // [ops_.size()]
    CompiledRunStats totals;
    bool operator==(const ClipPlan&) const = default;
  };
  // Up to kClipPlans published ClipPlans; shared by copies of the model.
  struct PlanCache;

  explicit CompiledModel(CompiledModelOptions options);

  // Lowers `model` into ops_ and the head (options must already be
  // validated), then derives halos and last readers.
  Status Lower(nn::Sequential& model, const std::vector<nn::Conv3d*>& prunable);
  // Lowers the leaf modules `chain` onto activation x; returns the
  // activation the chain's output is.
  StatusOr<int> LowerChain(const std::vector<nn::Module*>& chain, int x,
                           Walk& walk);
  StatusOr<int> LowerBlock(nn::ResidualBlock& block, int x, Walk& walk);
  StatusOr<int> AddConv(nn::Conv3d& conv, nn::BatchNorm3d* bn, bool relu,
                        int x, Walk& walk);
  StatusOr<int> AddPool(nn::MaxPool3d& pool, int x);

  // Channels of activation a (-1: the clip).
  int64_t Channels(int a) const {
    return a < 0 ? in_channels_ : ops_[static_cast<size_t>(a)].channels;
  }

  // Throws ShapeError for a clip Infer would reject.
  ClipPlan MakeClipPlan(std::array<int64_t, 3> clip) const;
  // The cached plan for this clip shape, made and cached on a miss; when
  // the cache is full, the plan is made into `made`, which the caller
  // holds while it uses the plan.
  const ClipPlan& PlanFor(const Shape& clip,
                          std::unique_ptr<const ClipPlan>& made) const;

  // Runs one op on the executor options_.executor names; the simulator
  // adds its stats to `stats`.
  QActivation RunOp(const Op& op, const PackedConvLayer::ShapePlan& plan,
                    const QActivation& x, const QActivation* shortcut,
                    CompiledRunStats* stats) const;

  CompiledModelOptions options_;
  TiledConvSim sim_;
  // The clip's channels (the first conv's input) and the halo it is
  // quantized into.
  int64_t in_channels_ = 0;
  std::array<int64_t, 3> in_halo_{};
  // The accelerator's part of the network, in execution order; the last
  // op's output is globally average-pooled on the host.
  std::vector<Op> ops_;
  // Host-side FC.
  TensorF fc_weight_;  // [out][in]
  TensorF fc_bias_;    // [out]
  std::shared_ptr<PlanCache> plans_;
};

// perfbench/ still names the compiled model by its old name; the alias
// goes when the benchmark is next changed.
using CompiledTinyR2Plus1d = CompiledModel;

}  // namespace hwp3d::fpga
