// Compiles a trained TinyR2Plus1d onto the tiled accelerator: lowers it
// into an ordered list of conv ops, quantizes every conv weight to Q7.8,
// folds each BatchNorm into the post-processing unit's per-channel
// affine, wires residual shortcuts through the shortcut port, and
// attaches the block-enable masks of a pruned model so the engine
// actually skips pruned tiles.
//
// This is the software counterpart of the paper's deployment flow:
// ADMM-pruned network -> 16-bit fixed-point accelerator with
// block-enable, FC head on the host.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/block_partition.h"
#include "fpga/compiled_executor.h"
#include "fpga/tiled_conv_sim.h"
#include "models/tiny_r2plus1d.h"

namespace hwp3d::fpga {

struct CompiledModelOptions {
  Tiling tiling{4, 4, 2, 4, 4};
  Ports ports;
  // Block masks for the prunable convs, indexed like
  // TinyR2Plus1d::PrunableConvs(); empty = dense execution.
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
};

class CompiledTinyR2Plus1d {
 public:
  // The one way to build a compiled model: validates `options` against
  // the model (mask count and per-conv block grids under tiling.block())
  // and compiles, returning an actionable Status instead of throwing.
  // Snapshots the model's weights and (eval-mode) BN statistics, so the
  // model must already be trained and the result is self-contained and
  // immutable: Infer/Classify are const and safe to call from many
  // threads concurrently, which is how every serving lane runs the one
  // model an InferenceServer holds.
  static StatusOr<CompiledTinyR2Plus1d> Compile(models::TinyR2Plus1d& model,
                                                CompiledModelOptions options);

  // Runs one clip [C][D][H][W] (float, host side) through the simulated
  // accelerator and the host FC; returns the logits.
  TensorF Infer(const TensorF& clip, CompiledRunStats* stats = nullptr) const;

  // Argmax convenience.
  int Classify(const TensorF& clip, CompiledRunStats* stats = nullptr) const;

  // The MACs one Infer on a clip of this shape executes (its
  // CompiledRunStats::macs_executed), worked out from the plan without
  // running it. Throws ShapeError for a clip Infer would reject.
  int64_t MacsFor(const Shape& clip) const;

  // The engine Infer dispatches to (options.executor).
  ExecMode executor() const { return options_.executor; }

 private:
  // One conv of the plan, with its BN folded into the post-processing
  // unit. Op i writes activation i.
  struct Op {
    std::string name;                 // conv layer name, labels traces/metrics
    TensorQ weights;                  // [M][N][Kd][Kr][Kc]
    std::array<int64_t, 3> stride;
    std::array<int64_t, 3> padding;
    std::optional<core::BlockMask> mask;
    PostOps post;                     // affine/relu; shortcut set at runtime
    // Block-CSR packed weights; shared so copies of this model reuse one
    // packed stream.
    std::shared_ptr<const PackedConvLayer> packed;
    // The activation this op convolves (-1: the clip) and the one its
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

  // Lowers `model` into ops_ (options must already be validated).
  CompiledTinyR2Plus1d(models::TinyR2Plus1d& model,
                       CompiledModelOptions options);

  // Builds an op from a conv and the BN that follows it (null = raw).
  Op MakeOp(nn::Conv3d& conv, nn::BatchNorm3d* bn, bool relu,
            const core::BlockMask* mask) const;

  // Runs one op on the executor options_.executor names.
  QActivation RunOp(const Op& op, const QActivation& x,
                    const QActivation* shortcut,
                    CompiledRunStats* stats) const;

  CompiledModelOptions options_;
  TiledConvSim sim_;
  // The halo the clip is quantized into.
  std::array<int64_t, 3> in_halo_{};
  // The accelerator's part of the network, in execution order; the last
  // op's output is globally average-pooled on the host.
  std::vector<Op> ops_;
  // Host-side FC.
  TensorF fc_weight_;  // [out][in]
  TensorF fc_bias_;    // [out]
};

}  // namespace hwp3d::fpga
