// Cycle-level performance model of the tiled accelerator
// (Section IV-B.2, Eqs. 19-25), extended with block-enable skipping.
//
// Per tile iteration:
//   t_wgt  = Tm*Tn*Kd*Kr*Kc / p_wgt          (Eq. 19)
//   t_in   = Tn*T'd*T'r*T'c / p_in           (Eq. 20), T'x = (Tx-1)Sx + Kx
//   t_out  = Tm*Td*Tr*Tc / p_out             (Eq. 21)
//   t_comp = Kd*Kr*Kc*Td*Tr*Tc               (Eq. 22)
//   t_L3   = max(t_wgt, t_in, t_comp)        (Eq. 23, double buffering)
//   t_L2   = max(t_L3 * ceil(N/Tn) + t_comp, t_out)   (Eq. 24)
//   t_tot  = ceil(D/Td) ceil(R/Tr) ceil(C/Tc) ceil(M/Tm) t_L2 + t_out (25)
//
// Pruning: the block-enable signal skips the load+compute of pruned
// (m-block, n-block) tiles, so ceil(N/Tn) in Eq. 24 becomes the number of
// ENABLED input blocks for that output block row. The output still has to
// be post-processed and stored, so a fully-pruned row costs
// max(t_comp_min, t_out) — the pipeline still drains one tile.
#pragma once

#include <array>
#include <optional>

#include "core/block_partition.h"
#include "fpga/tiling.h"
#include "models/network_spec.h"
#include "tensor/shape.h"

namespace hwp3d::fpga {

// Stall attribution: every cycle of a layer/run is charged to the
// pipeline stage that bound it — the weight load, input load, or MAC
// array (whichever wins Eq. 23's max; ties prefer compute, then
// weights, then input), or the output store when Eq. 24's t_out term or
// the final drain dominates. Invariant: total() equals the modeled
// cycle count, so memory- vs compute-bound layers are directly visible.
struct StallBreakdown {
  int64_t wgt = 0;   // cycles bound by the weight-load port
  int64_t in = 0;    // cycles bound by the input-load port
  int64_t comp = 0;  // cycles bound by the MAC array
  int64_t out = 0;   // cycles bound by the output store / drain
  int64_t total() const { return wgt + in + comp + out; }
  bool operator==(const StallBreakdown&) const = default;
  void Accumulate(const StallBreakdown& o, int64_t multiplicity = 1) {
    wgt += o.wgt * multiplicity;
    in += o.in * multiplicity;
    comp += o.comp * multiplicity;
    out += o.out * multiplicity;
  }
};

// Cycle cost and attribution of ONE output-block row (Eq. 24) whose
// block-enable row keeps `enabled` input blocks. Shared by
// PerfModel::LayerCycles and TiledConvSim::Run so the analytic model
// and the functional simulator account cycles identically.
StallBreakdown RowCycleBreakdown(const Ports& ports, int64_t t_wgt,
                                 int64_t t_in, int64_t t_comp, int64_t t_out,
                                 int64_t enabled);

struct LayerLatency {
  int64_t cycles = 0;
  int64_t t_wgt = 0, t_in = 0, t_out = 0, t_comp = 0, t_L3 = 0;
  // Diagnostics.
  int64_t tile_iterations = 0;   // (d,r,c,m) tile count
  int64_t blocks_loaded = 0;     // weight blocks actually loaded
  int64_t blocks_skipped = 0;    // pruned blocks skipped by block-enable
  StallBreakdown stall;          // sums to `cycles`
  double MsAt(double freq_mhz) const {
    return static_cast<double>(cycles) / (freq_mhz * 1e3);
  }
};

class PerfModel {
 public:
  PerfModel(Tiling tiling, Ports ports) : t_(tiling), p_(ports) {}

  // Latency of one CONV layer. When `mask` is provided, its grid must
  // match ceil(M/Tm) x ceil(N/Tn) for the layer and pruned blocks are
  // skipped; otherwise the dense Eq. 24/25 applies.
  LayerLatency LayerCycles(const models::ConvLayerSpec& layer,
                           const core::BlockMask* mask = nullptr) const;

  // LayerCycles of one engine run: a conv with [M][N][Kd][Kr][Kc]
  // `weights` and `stride` that writes a D×R×C `output`. The account
  // TiledConvSim and PackedConvLayer both report.
  LayerLatency RunCycles(const Shape& weights, std::array<int64_t, 3> stride,
                         std::array<int64_t, 3> output,
                         const core::BlockMask* mask) const;

  // Sum over all layers of a network. `masks` (if given) must be indexed
  // like spec.layers, with disabled entries for unpruned layers allowed
  // to be nullptr.
  LayerLatency NetworkCycles(
      const models::NetworkSpec& spec,
      const std::vector<const core::BlockMask*>* masks = nullptr) const;

  const Tiling& tiling() const { return t_; }
  const Ports& ports() const { return p_; }

 private:
  Tiling t_;
  Ports p_;
};

}  // namespace hwp3d::fpga
