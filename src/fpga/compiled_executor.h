// Fast-path compiled executor: block-CSR pre-packed weights + Q7.8
// micro-kernels, with timing split from compute.
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
//    walked-and-skipped loop iteration. Within a tile, weights are
//    stored [tn][kd][kr][kc][tm] so the inner loops stream one packed
//    weight column against one input row (kernels::QOuterMacRow).
//  * Timing is analytic. modeled_cycles / blocks_loaded / blocks_skipped
//    / stall come from PerfModel::LayerCycles + the mask's block counts
//    — the same accounting the simulator reproduces step by step (their
//    equality is asserted by sim_perf_consistency_test and
//    compiled_executor_test), so the cycle model stays bit-for-bit
//    intact while compute no longer pays for it.
//
// Results are bitwise identical to TiledConvSim::Run: products
// accumulate exactly in 64-bit (order-independent), narrowing and the
// post-processing unit reuse the simulator's Fixed16 arithmetic in the
// same order. Output-channel blocks × output depth fan out on the
// hwp3d::ThreadPool; each task owns a disjoint output slab, so results
// are also thread-count invariant.
#pragma once

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

  // Mirror of TiledConvSim::Run (same shapes, same pre-padded input,
  // same PostOps), bitwise identical output and identical stats.
  // `pool` overrides the process-wide ThreadPool (tests use standalone
  // pools to prove thread-count invariance); null uses ThreadPool::Get.
  TiledConvResult Run(const TensorQ& input, std::array<int64_t, 3> stride,
                      const PostOps& post, std::string_view label = {},
                      ThreadPool* pool = nullptr) const;

  // Packed-stream footprint: surviving tiles only.
  int64_t packed_weights() const {
    return static_cast<int64_t>(wdata_.size());
  }
  int64_t surviving_tiles() const {
    return static_cast<int64_t>(tiles_.size());
  }
  int64_t total_tiles() const { return blocks_m_ * blocks_n_; }

 private:
  struct Tile {
    int32_t bn = 0;       // input-channel block index
    int32_t tn_n = 0;     // channels in this block (partial at the edge)
    int64_t w_offset = 0; // into wdata_, layout [tn][kd][kr][kc][tm]
  };

  // Analytic stats for one run on a D×R×C output (PerfModel + mask).
  TiledConvStats ModelStats(std::array<int64_t, 3> stride, int64_t D,
                            int64_t R, int64_t C) const;

  Tiling t_;
  Ports p_;
  int64_t M_ = 0, N_ = 0, Kd_ = 0, Kr_ = 0, Kc_ = 0;
  int64_t blocks_m_ = 0, blocks_n_ = 0;
  std::vector<Tile> tiles_;      // rows concatenated in bm order
  std::vector<int64_t> row_ptr_; // [blocks_m_+1] offsets into tiles_
  std::vector<Fixed16> wdata_;   // packed tile weights, pruned elided
  std::optional<core::BlockMask> mask_;  // kept for the analytic stats
  int64_t sum_mn_ = 0;  // Σ over surviving tiles of tm_n*tn_n (for MACs)
};

}  // namespace hwp3d::fpga
