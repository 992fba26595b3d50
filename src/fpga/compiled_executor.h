// Fast-path compiled executor: block-CSR pre-packed weights + Q7.8
// int16 GEMM micro-kernels, with timing split from compute.
//
// TiledConvSim is the oracle: it walks Algorithm 2 cycle-by-cycle,
// counting every MAC and attributing every stall — perfect for DSE and
// ablations, far too slow for serving. PackedConvLayer is the serving
// counterpart of the same layer:
//
//  * Compute is functional. At pack time the quantized weight tensor is
//    re-laid-out into a block-CSR grid of Tm×Tn×Kd×Kr×Kc tiles — one
//    row list per output-channel block, PRUNED TILES PHYSICALLY ELIDED
//    — so per-request work touches only surviving tiles. This mirrors
//    the paper's co-design (the pruning block IS the tile the engine
//    loads): block-enable low means the tile simply isn't in the packed
//    stream, and skipping it costs zero wall-clock instead of a
//    walked-and-skipped loop iteration. A block row is an implicit
//    GEMM (kernels::QGemmInt32/QGemmInt64): M = the block's output
//    channels, K = the (tn, kd, kr, kc) slots of its surviving tiles,
//    stored once, interleaved in pairs for the packed multiply-add (an
//    odd tile tail is padded by a zero weight), N = output columns.
//  * The B operand is a per-task panel: for a run of output rows of one
//    output depth, every K-pair's input taps, gathered once and shared
//    by all output-channel blocks. Only input-channel blocks some
//    surviving tile reads are gathered. The zero halo is folded into
//    that gather — taps outside the input read as zero — so Run takes
//    the unpadded activation and never materialises a padded copy.
//  * Timing is analytic. modeled_cycles / blocks_loaded / blocks_skipped
//    / stall come from PerfModel::LayerCycles + the mask's block counts
//    — the same accounting the simulator reproduces step by step (their
//    equality is asserted by sim_perf_consistency_test and
//    compiled_executor_test), so the cycle model stays bit-for-bit
//    intact while compute no longer pays for it.
//
// Results are bitwise identical to TiledConvSim::Run on the padded
// input. Each output channel's sums are exact: in int32 where the
// pack-time proof Σ|w| × 32768 < 2³¹ holds for every channel of its
// block (kernels::Int32AccumIsExact), else in int64 — so they do not
// depend on accumulation order. Narrowing and the post-processing unit
// reuse the simulator's Q7.8 arithmetic in the same order.
// Output depth × row-run tasks fan out on the hwp3d::ThreadPool; each
// task owns a disjoint output slab, so results are also thread-count
// invariant.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/block_partition.h"
#include "fixed/quantize.h"
#include "fpga/tiled_conv_sim.h"
#include "fpga/tiling.h"
#include "kernels/qgemm_tile.h"

namespace hwp3d {
class ThreadPool;
}

namespace hwp3d::fpga {

// Which engine executes compiled conv stages; chosen only through
// CompiledModelOptions::executor.
//  kFast     — PackedConvLayer, pre-packed tiles + analytic timing. The
//              default: every server runs it.
//  kSimulate — TiledConvSim, step-by-step cycle accounting. The oracle
//              the fast path is checked against.
enum class ExecMode { kSimulate, kFast };

// One conv layer's weights packed for fast execution (see file
// comment). Immutable after construction; Run is const and safe to
// call concurrently, so every serving lane runs the same one.
class PackedConvLayer {
 public:
  // weights: [M][N][Kd][Kr][Kc] quantized. `mask` (optional) must match
  // the ceil(M/Tm) x ceil(N/Tn) grid; its pruned tiles are elided from
  // the packed stream.
  PackedConvLayer(const TensorQ& weights, const Tiling& tiling,
                  const Ports& ports, const core::BlockMask* mask);

  // Mirror of TiledConvSim::Run on PadInput(input, padding) (same
  // PostOps), bitwise identical output and identical stats; `input` is
  // the unpadded [N][D][R][C] activation. `pool` overrides the
  // process-wide ThreadPool (tests use standalone pools to prove
  // thread-count invariance); null uses ThreadPool::Get.
  TiledConvResult Run(const TensorQ& input, std::array<int64_t, 3> stride,
                      std::array<int64_t, 3> padding, const PostOps& post,
                      std::string_view label = {},
                      ThreadPool* pool = nullptr) const;

  int64_t surviving_tiles() const { return surviving_tiles_; }
  int64_t total_tiles() const { return blocks_m_ * blocks_n_; }

  // Fraction of output channels accumulated in int32: the channels of
  // blocks whose every channel passes the pack-time proof. The rest
  // accumulate in int64.
  double int32_exact_frac() const {
    return static_cast<double>(int32_channels_) / static_cast<double>(M_);
  }

 private:
  // One output-channel block's GEMM operands.
  struct BlockRow {
    int64_t w_offset = 0;   // into wdata_: [pair][rows][2]
    int64_t rows = 0;       // tm_n rounded up to kernels::kQMR
    int64_t first_seg = 0;  // into segs_
    int64_t num_segs = 0;
    bool int32_exact = false;
  };

  // Input channels of input-channel block bn (partial at the edge).
  int64_t TnCount(int64_t bn) const { return std::min(t_.Tn, N_ - bn * t_.Tn); }

  // Analytic stats for one run on a D×R×C output (PerfModel + mask).
  TiledConvStats ModelStats(std::array<int64_t, 3> stride, int64_t D,
                            int64_t R, int64_t C) const;

  Tiling t_;
  Ports p_;
  int64_t M_ = 0, N_ = 0, Kd_ = 0, Kr_ = 0, Kc_ = 0;
  int64_t blocks_m_ = 0, blocks_n_ = 0;
  std::vector<BlockRow> block_rows_;       // [blocks_m_]
  std::vector<kernels::QSegment> segs_;   // panel pair runs, in bm order
  std::vector<int16_t> wdata_;            // packed K-pairs, pruned elided
  // Panel pair offset of each input-channel block, -1 when no
  // surviving tile reads it; panel_pairs_ pairs in all.
  std::vector<int64_t> panel_base_;
  int64_t panel_pairs_ = 0;
  std::optional<core::BlockMask> mask_;  // kept for the analytic stats
  int64_t sum_mn_ = 0;  // Σ over surviving tiles of tm_n*tn_n (for MACs)
  int64_t surviving_tiles_ = 0;
  int64_t int32_channels_ = 0;
};

}  // namespace hwp3d::fpga
