// Compiles a trained TinyR2Plus1d onto the tiled accelerator simulator:
// quantizes every conv weight to Q7.8, folds each BatchNorm into the
// post-processing unit's per-channel affine, wires residual shortcuts
// through the shortcut port, and attaches the block-enable masks of a
// pruned model so the engine actually skips pruned tiles.
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
  // Validates `options` against the model (mask count and per-conv
  // block grids under tiling.block()) and compiles; the preferred entry
  // point — returns an actionable Status instead of throwing. The
  // compiled model snapshots weights and BN statistics, so it is
  // self-contained and immutable: Infer/Classify are const and safe to
  // call from many threads concurrently, which is how every serving
  // lane runs the one model an InferenceServer holds.
  static StatusOr<CompiledTinyR2Plus1d> Compile(models::TinyR2Plus1d& model,
                                                CompiledModelOptions options);

  // Snapshots the model's weights and (eval-mode) BN statistics; the
  // model must already be trained. Throws if masks are provided but do
  // not match the prunable convs' block grids under tiling.block().
  CompiledTinyR2Plus1d(models::TinyR2Plus1d& model,
                       CompiledModelOptions options);

  // Runs one clip [C][D][H][W] (float, host side) through the simulated
  // accelerator and the host FC; returns the logits.
  TensorF Infer(const TensorF& clip, CompiledRunStats* stats = nullptr) const;

  // Argmax convenience.
  int Classify(const TensorF& clip, CompiledRunStats* stats = nullptr) const;

  // The engine Infer dispatches to (options.executor).
  ExecMode executor() const { return options_.executor; }

 private:
  struct ConvStage {
    std::string name;                 // conv layer name, labels traces/metrics
    TensorQ weights;                  // [M][N][Kd][Kr][Kc]
    std::array<int64_t, 3> stride;
    std::array<int64_t, 3> padding;
    std::optional<core::BlockMask> mask;
    PostOps post;                     // affine/relu; shortcut set at runtime
    // Block-CSR packed weights for the fast path; shared so copies of
    // this model reuse one packed stream.
    std::shared_ptr<const PackedConvLayer> packed;
    // Fast path: the halo of the activation this stage writes, the widest
    // padding among its consumers.
    std::array<int64_t, 3> out_halo{};
  };

  // Builds a stage from a conv and the BN that follows it (null = raw).
  ConvStage MakeStage(nn::Conv3d& conv, nn::BatchNorm3d* bn, bool relu,
                      const core::BlockMask* mask) const;

  // One stage in each engine's activation type: the simulator's dense
  // TensorQ, or the fast path's QActivation.
  TensorQ RunStage(const ConvStage& stage, const TensorQ& x,
                   const TensorQ* shortcut, CompiledRunStats* stats) const;
  QActivation RunStage(const ConvStage& stage, const QActivation& x,
                       const QActivation* shortcut,
                       CompiledRunStats* stats) const;

  // Runs one (2+1)D pair: spatial (BN-mid + ReLU folded) then temporal.
  template <typename Act>
  Act RunConv2Plus1d(const ConvStage& spatial, const ConvStage& temporal,
                     const Act& x, const Act* shortcut,
                     CompiledRunStats* stats) const;

  // The accelerator part of Infer on a quantized clip, in either
  // activation type, and the host's global average pool; returns the
  // pooled features.
  template <typename Act>
  TensorF Forward(const Act& clip, CompiledRunStats* stats) const;

  CompiledModelOptions options_;
  TiledConvSim sim_;
  // Fast path: the halo the clip is quantized into.
  std::array<int64_t, 3> in_halo_{};

  // Stem.
  ConvStage stem_spatial_, stem_temporal_;
  // Stages: conv1 spatial/temporal, conv2 spatial/temporal, shortcut.
  struct Block {
    ConvStage c1_spatial, c1_temporal, c2_spatial, c2_temporal;
    std::optional<ConvStage> shortcut;
  };
  Block stage1_, stage2_;
  // Host-side FC.
  TensorF fc_weight_;  // [out][in]
  TensorF fc_bias_;    // [out]
};

}  // namespace hwp3d::fpga
