// Functional (bit-accurate) simulator of the tiled convolution engine,
// Algorithm 2 of the paper, in Q7.8 fixed point.
//
// The simulator walks the exact loop nest of Algorithm 2: output tiles
// (d, r, c), output-channel blocks m, input-channel blocks n; for each
// (m, n) block the block-enable signal decides whether the weight tile
// and input tile are loaded and the Tm x Tn MAC array runs, or whether
// the iteration is skipped entirely (pruned block). Partial sums live in
// a wide accumulator (DSP48-style) and are narrowed to Q7.8 only when the
// post-processing unit (bias/BN affine, shortcut add, ReLU) stores the
// output tile.
//
// Inputs are pre-padded on the host, as in the paper's implementation:
// the engine computes a valid convolution with I = (O-1)*S + K.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "core/block_partition.h"
#include "fixed/quantize.h"
#include "fpga/perf_model.h"
#include "fpga/tiling.h"

namespace hwp3d::fpga {

// Per-channel post-processing configuration (the post-processing unit of
// Fig. 2). Applied in order: affine (folded BN or bias), shortcut add,
// ReLU.
struct PostOps {
  bool has_affine = false;
  TensorQ scale;  // [M], used when has_affine
  TensorQ shift;  // [M]
  const TensorQ* shortcut = nullptr;  // [M][D][R][C] or null
  bool relu = false;
};

struct TiledConvStats {
  int64_t tile_iterations = 0;  // (d,r,c,m) iterations
  int64_t blocks_loaded = 0;
  int64_t blocks_skipped = 0;
  int64_t macs_executed = 0;
  int64_t modeled_cycles = 0;  // PerfModel cycles for the same run
  // Per-stage cycle attribution, accumulated tile row by tile row with
  // the same accounting as PerfModel (RowCycleBreakdown); stall.total()
  // equals modeled_cycles.
  StallBreakdown stall;
  bool operator==(const TiledConvStats&) const = default;
};

struct TiledConvResult {
  TensorQ output;  // [M][D][R][C]
  TiledConvStats stats;
};

class TiledConvSim {
 public:
  TiledConvSim(Tiling tiling, Ports ports) : t_(tiling), p_(ports) {}

  // weights: [M][N][Kd][Kr][Kc]; input: [N][Di][Ri][Ci] (pre-padded).
  // `mask` (optional) must match the ceil(M/Tm) x ceil(N/Tn) grid.
  // `label` names the layer in traces and metrics (e.g. "conv2a");
  // empty runs unlabeled.
  TiledConvResult Run(const TensorQ& weights, const TensorQ& input,
                      std::array<int64_t, 3> stride,
                      const core::BlockMask* mask, const PostOps& post,
                      std::string_view label = {}) const;

  const Tiling& tiling() const { return t_; }

 private:
  Tiling t_;
  Ports p_;
};

// Dense reference 3D convolution in the same fixed-point arithmetic
// (single wide accumulator per output), for validating the simulator.
TensorQ ReferenceConv3dFixed(const TensorQ& weights, const TensorQ& input,
                             std::array<int64_t, 3> stride);

// Host-side helpers used when mapping whole networks onto the engine.
TensorQ PadInput(const TensorQ& input, std::array<int64_t, 3> pad);
TensorQ MaxPool3dFixed(const TensorQ& input, std::array<int64_t, 3> kernel,
                       std::array<int64_t, 3> stride);

}  // namespace hwp3d::fpga
