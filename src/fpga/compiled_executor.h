// Fast-path compiled executor: block-CSR pre-packed weights + Q7.8
// int16 GEMM micro-kernels over a halo-padded activation layout, with
// timing split from compute.
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
//    channels, K = (input-channel pair, kd, kr, kc) of its surviving
//    tiles, N = output columns.
//  * Activations live in one layout, QActivation: channel pairs
//    interleaved (the two int16 a packed multiply-add takes) around a
//    physical zero halo, as the paper's host pads each input tile for
//    the engine. So the B row of K-pair (pair q, tap kd/kr/kc) is, for a
//    task of output rows of one depth, one contiguous span of the input
//    at a fixed offset from the task's origin: a conv with stride 1 in
//    rows and columns reads B in place, with no lowering (Algorithm 2
//    reads its input buffer at every kernel offset the same way). Each
//    output row's span runs on through the row's halo columns; those
//    columns are computed and dropped. Column-strided convs gather a
//    compact panel per task from the same layout instead.
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
// depend on accumulation order, nor on what the dropped halo columns
// read. Narrowing and the post-processing unit reuse the simulator's
// Q7.8 arithmetic in the same order, and write channel pairs into the
// interior of the consumer's layout.
// Output depth × row-run tasks fan out on the hwp3d::ThreadPool; each
// task owns a disjoint output slab, so results are also thread-count
// invariant.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/block_partition.h"
#include "fixed/quantize.h"
#include "fpga/tiled_conv_sim.h"
#include "fpga/tiling.h"
#include "kernels/qgemm_tile.h"

namespace hwp3d {
class ThreadPool;
}

namespace hwp3d::obs {
class Counter;
}

namespace hwp3d::fpga {

// Which engine executes compiled conv stages; chosen only through
// CompiledModelOptions::executor.
//  kFast     — PackedConvLayer, pre-packed tiles + analytic timing. The
//              default: every server runs it.
//  kSimulate — TiledConvSim, step-by-step cycle accounting. The oracle
//              the fast path is checked against.
enum class ExecMode { kSimulate, kFast };

namespace detail {
// Hands a QActivation's storage to the free list (or frees it when that
// is full). `layout` is the channels, extent and halo it held: a buffer
// reused for the same layout is still zero outside the interior.
struct RecycleActivation {
  std::array<int64_t, 7> layout{};
  void operator()(std::vector<int16_t>* storage) const;
};
}  // namespace detail

// A fast-path activation of `channels` × D×R×C Q7.8 values, stored as
//   [ceil(channels/2)][D+2hd][R+2hr][C+2hc][2] int16
// plus kSlackPairs zero pairs after the last plane: element (n, d, r, c)
// is half n % 2 of pair Interior(d, r, c) of channel-pair plane n / 2.
// The halo (hd, hr, hc) is a zero border wide enough for every consumer's
// padding. Only interior elements of real channels are ever written, so
// the halo, the slack and, for an odd channel count, the last pair's
// second half stay zero.
//
// Storage is recycled: a released activation's buffer goes to a small
// process-wide free list and backs the next activation that fits, so
// serving a clip reuses resident memory instead of having the allocator
// return its largest activations to the OS and fault them back in. A
// buffer that held the same layout needs no zeroing; any other has its
// border zeroed.
class QActivation {
 public:
  // Zero pairs past the last plane. Every tap of a kept output column
  // lies inside the padded extents, and a direct-path task computes at
  // most kQNR - 1 columns past the last one it keeps, so it reads at
  // most kQNR - 1 pairs past the last plane.
  static constexpr int64_t kSlackPairs = kernels::kQNR;

  QActivation() = default;
  // Zero outside the interior. The interior is unspecified until its
  // producer writes it; every producer writes all of it.
  QActivation(int64_t channels, std::array<int64_t, 3> extent,
              std::array<int64_t, 3> halo);

  // The layout of `t` ([N][D][R][C]) with the given halo, and back.
  static QActivation FromTensor(const TensorQ& t, std::array<int64_t, 3> halo);
  // Quantizes a float [N][D][R][C] clip straight into the layout.
  static QActivation Quantize(const TensorF& t, std::array<int64_t, 3> halo);
  TensorQ ToTensor() const;

  int64_t channels() const { return channels_; }
  int64_t pairs() const { return (channels_ + 1) / 2; }
  const std::array<int64_t, 3>& extent() const { return extent_; }
  const std::array<int64_t, 3>& halo() const { return halo_; }
  // Padded extents: a row holds Cp() pairs, a plane Rp() rows.
  int64_t Dp() const { return extent_[0] + 2 * halo_[0]; }
  int64_t Rp() const { return extent_[1] + 2 * halo_[1]; }
  int64_t Cp() const { return extent_[2] + 2 * halo_[2]; }
  // Pairs per channel-pair plane.
  int64_t plane() const { return Dp() * Rp() * Cp(); }
  // Pair index of interior element (d, r, c) within a plane.
  int64_t Interior(int64_t d, int64_t r, int64_t c) const {
    return ((d + halo_[0]) * Rp() + r + halo_[1]) * Cp() + c + halo_[2];
  }

  // The raw Q7.8 values.
  const int16_t* data() const { return data_->data(); }
  int16_t* data() { return data_->data(); }
  int64_t size_pairs() const { return pairs() * plane() + kSlackPairs; }

 private:
  int64_t channels_ = 0;
  std::array<int64_t, 3> extent_{};
  std::array<int64_t, 3> halo_{};
  // At least 2 * size_pairs() values.
  std::unique_ptr<std::vector<int16_t>, detail::RecycleActivation> data_;
};

// One conv layer's weights packed for fast execution (see file
// comment). Immutable after construction: Run is const and safe to call
// concurrently, so every serving lane runs the same one.
class PackedConvLayer {
 public:
  // weights: [M][N][Kd][Kr][Kc] quantized. `mask` (optional) must match
  // the ceil(M/Tm) x ceil(N/Tn) grid; its pruned tiles are elided from
  // the packed stream. `label` names the layer in traces (`exec/<label>`
  // spans) and metrics (the `layer` label of its `exec.*` counters,
  // which are looked up once, here).
  PackedConvLayer(const TensorQ& weights, const Tiling& tiling,
                  const Ports& ports, const core::BlockMask* mask,
                  std::string label = {});

  // True when Run reads the B operand in place (stride 1 in rows and
  // columns); other strides gather a panel per task.
  static bool ReadsInPlace(std::array<int64_t, 3> stride) {
    return stride[1] == 1 && stride[2] == 1;
  }

  // Everything a run derives from its input layout (extent and halo),
  // stride and padding alone: the output extent, the task grid, every
  // K-pair's B offset and the analytic stats. Made once per clip shape
  // by the compiled model's plan, immutable, and shared by every lane
  // and pool worker.
  struct ShapePlan {
    std::array<int64_t, 3> extent{}, halo{}, stride{}, padding{};  // input
    std::array<int64_t, 3> out{};  // D, R, C
    int64_t pitch = 0;       // GEMM columns per output row
    int64_t depth_cols = 0;  // GEMM columns per output depth
    int64_t chunks = 0;      // tasks per output depth
    std::vector<int64_t> pair_off;  // [taps_.size()]
    // Timing split from compute: PerfModel::RunCycles + the mask's
    // block counts, not a walk of the loop nest.
    TiledConvStats stats;
    bool operator==(const ShapePlan&) const = default;
  };

  // The plan of a run on a D×R×C input `extent` with `halo`, `stride`
  // and `padding`. Throws ShapeError when the output is empty or the
  // halo does not cover the padding.
  ShapePlan MakePlan(std::array<int64_t, 3> extent,
                     std::array<int64_t, 3> halo, std::array<int64_t, 3> stride,
                     std::array<int64_t, 3> padding) const;

  // The engine: mirror of TiledConvSim::Run on the padded input with the
  // same PostOps; the run's stats are plan.stats. `plan` must be this
  // layer's plan for `input`'s extent and halo. The output gets halo
  // `out_halo`; `shortcut` (optional, in its own layout, with the
  // output's channels and extent) replaces post.shortcut, which must be
  // null. `pool` overrides the process-wide ThreadPool (tests use
  // standalone pools to prove thread-count invariance); null uses
  // ThreadPool::Get.
  QActivation Run(const QActivation& input, const ShapePlan& plan,
                  const PostOps& post, const QActivation* shortcut,
                  std::array<int64_t, 3> out_halo,
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
    int64_t w_offset = 0;    // into wdata_: [pair][rows][2]
    int64_t rows = 0;        // tm_n rounded up to kernels::kQMR
    int64_t first_pair = 0;  // into taps_
    int64_t pairs = 0;
    bool int32_exact = false;
  };

  // What B row a K-pair reads: input-channel pair q at kernel offset
  // (kd, kr, kc).
  struct PairTap {
    int32_t q = 0, kd = 0, kr = 0, kc = 0;
  };

  // Input channels of input-channel block bn (partial at the edge).
  int64_t TnCount(int64_t bn) const { return std::min(t_.Tn, N_ - bn * t_.Tn); }

  Tiling t_;
  Ports p_;
  int64_t M_ = 0, N_ = 0, Kd_ = 0, Kr_ = 0, Kc_ = 0;
  int64_t blocks_m_ = 0, blocks_n_ = 0;
  std::vector<BlockRow> block_rows_;  // [blocks_m_]
  std::vector<PairTap> taps_;         // every block row's K-pairs, in bm order
  std::vector<int16_t> wdata_;        // packed K-pairs, pruned elided
  // For the gather: the input-channel pairs some K-pair reads, and each
  // one's index among them (-1 when none does); the panel holds Kd·Kr·Kc
  // rows per gathered pair.
  std::vector<int64_t> gathered_q_;
  std::vector<int64_t> panel_q_;  // [ceil(N/2)]
  std::optional<core::BlockMask> mask_;  // kept for the analytic stats
  std::string label_;
  // exec.runs, exec.macs_executed, exec.blocks_loaded,
  // exec.blocks_skipped, exec.modeled_cycles for label_.
  std::array<obs::Counter*, 5> counters_{};
  int64_t sum_mn_ = 0;  // Σ over surviving tiles of tm_n*tn_n (for MACs)
  int64_t surviving_tiles_ = 0;
  int64_t int32_channels_ = 0;
};

}  // namespace hwp3d::fpga
