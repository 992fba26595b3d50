#include "fpga/perf_model.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.h"
#include "tensor/shape.h"

namespace hwp3d::fpga {

namespace {

// Distinct output-tile extents along one axis with their multiplicities:
// e.g. D = 7 with Td = 4 yields one full tile of 4 and one partial of 3.
// HLS tile loops run with variable bounds min(Tx, X - x0), so partial
// tiles cost proportionally fewer cycles — without this refinement the
// paper's Eq. 22 over-charges conv5_x (2x7x7 outputs on 4x14x14 tiles)
// by ~8x and flattens the pruning speedup.
struct TileExtents {
  int64_t full_count = 0;
  int64_t full_extent = 0;
  int64_t partial_extent = 0;  // 0 when the axis divides evenly
};

TileExtents SplitAxis(int64_t extent, int64_t tile) {
  TileExtents e;
  e.full_count = extent / tile;
  e.full_extent = tile;
  e.partial_extent = extent % tile;
  return e;
}

}  // namespace

StallBreakdown RowCycleBreakdown(const Ports& ports, int64_t t_wgt,
                                 int64_t t_in, int64_t t_comp, int64_t t_out,
                                 int64_t enabled) {
  StallBreakdown b;
  if (enabled <= 0) {
    // Nothing to compute: the post-processing unit still emits the
    // (bias/BN/shortcut) output tile.
    b.out = t_out;
    return b;
  }
  if (!ports.double_buffered) {
    // Serial load -> compute -> store: each phase is charged as-is.
    b.wgt = t_wgt * enabled;
    b.in = t_in * enabled;
    b.comp = t_comp * enabled;
    b.out = t_out;
    return b;
  }
  // Double buffering (Eq. 23): the overlapped phase costs max(t_wgt,
  // t_in, t_comp) per block; charge it to the stage that bound it.
  const int64_t t_l3 = std::max({t_wgt, t_in, t_comp});
  if (t_comp >= t_wgt && t_comp >= t_in) {
    b.comp = t_l3 * enabled;
  } else if (t_wgt >= t_in) {
    b.wgt = t_l3 * enabled;
  } else {
    b.in = t_l3 * enabled;
  }
  b.comp += t_comp;  // last block's pipeline drain (Eq. 24)
  const int64_t inner = t_l3 * enabled + t_comp;
  if (t_out > inner) b.out = t_out - inner;  // store-bound row
  return b;
}

LayerLatency PerfModel::RunCycles(const Shape& weights,
                                  std::array<int64_t, 3> stride,
                                  std::array<int64_t, 3> output,
                                  const core::BlockMask* mask) const {
  models::ConvLayerSpec spec;
  spec.M = weights[0];
  spec.N = weights[1];
  spec.Kd = weights[2];
  spec.Kr = weights[3];
  spec.Kc = weights[4];
  spec.Sd = stride[0];
  spec.Sr = stride[1];
  spec.Sc = stride[2];
  spec.D = output[0];
  spec.R = output[1];
  spec.C = output[2];
  return LayerCycles(spec, mask);
}

LayerLatency PerfModel::LayerCycles(const models::ConvLayerSpec& l,
                                    const core::BlockMask* mask) const {
  LayerLatency out;
  const int64_t k_vol = l.Kd * l.Kr * l.Kc;

  // Reported per-tile quantities use full-tile extents (Eqs. 19-22).
  {
    const int64_t tile_d = (t_.Td - 1) * l.Sd + l.Kd;
    const int64_t tile_r = (t_.Tr - 1) * l.Sr + l.Kr;
    const int64_t tile_c = (t_.Tc - 1) * l.Sc + l.Kc;
    out.t_wgt = CeilDiv(t_.Tm * t_.Tn * k_vol, p_.p_wgt);
    out.t_in = CeilDiv(t_.Tn * tile_d * tile_r * tile_c, p_.p_in);
    out.t_out = CeilDiv(t_.Tm * t_.Td * t_.Tr * t_.Tc, p_.p_out);
    out.t_comp = k_vol * t_.Td * t_.Tr * t_.Tc;
    out.t_L3 = std::max({out.t_wgt, out.t_in, out.t_comp});
  }

  const int64_t blocks_m = CeilDiv(l.M, t_.Tm);
  const int64_t blocks_n = CeilDiv(l.N, t_.Tn);
  if (mask != nullptr) {
    HWP_CHECK_MSG(mask->blocks_m == blocks_m && mask->blocks_n == blocks_n,
                  l.name << ": mask grid " << mask->blocks_m << "x"
                         << mask->blocks_n << " vs layer " << blocks_m << "x"
                         << blocks_n);
  }

  const TileExtents ed = SplitAxis(l.D, t_.Td);
  const TileExtents er = SplitAxis(l.R, t_.Tr);
  const TileExtents ec = SplitAxis(l.C, t_.Tc);
  const std::array<std::pair<int64_t, int64_t>, 2> d_opts = {
      std::make_pair(ed.full_count, ed.full_extent),
      std::make_pair(ed.partial_extent > 0 ? int64_t{1} : int64_t{0},
                     ed.partial_extent)};
  const std::array<std::pair<int64_t, int64_t>, 2> r_opts = {
      std::make_pair(er.full_count, er.full_extent),
      std::make_pair(er.partial_extent > 0 ? int64_t{1} : int64_t{0},
                     er.partial_extent)};
  const std::array<std::pair<int64_t, int64_t>, 2> c_opts = {
      std::make_pair(ec.full_count, ec.full_extent),
      std::make_pair(ec.partial_extent > 0 ? int64_t{1} : int64_t{0},
                     ec.partial_extent)};

  int64_t spatial_tiles = 0;
  int64_t cycles = 0;
  int64_t last_t_out = 0;
  for (const auto& [cnt_d, td] : d_opts) {
    if (cnt_d == 0) continue;
    for (const auto& [cnt_r, tr] : r_opts) {
      if (cnt_r == 0) continue;
      for (const auto& [cnt_c, tc] : c_opts) {
        if (cnt_c == 0) continue;
        const int64_t multiplicity = cnt_d * cnt_r * cnt_c;
        spatial_tiles += multiplicity;

        // Effective per-tile latencies for this extent combination.
        const int64_t in_d = (td - 1) * l.Sd + l.Kd;
        const int64_t in_r = (tr - 1) * l.Sr + l.Kr;
        const int64_t in_c = (tc - 1) * l.Sc + l.Kc;
        const int64_t t_in = CeilDiv(t_.Tn * in_d * in_r * in_c, p_.p_in);
        const int64_t t_out = CeilDiv(t_.Tm * td * tr * tc, p_.p_out);
        const int64_t t_comp = k_vol * td * tr * tc;
        last_t_out = t_out;

        // Eq. 24/25 per output-block row; block-enable shrinks the inner
        // trip count row by row. RowCycleBreakdown applies Eq. 23's
        // double-buffer overlap and attributes the cycles to stages.
        int64_t row_cycles = 0;
        for (int64_t bm = 0; bm < blocks_m; ++bm) {
          const int64_t enabled =
              mask != nullptr ? mask->CountEnabledInRow(bm) : blocks_n;
          const StallBreakdown row =
              RowCycleBreakdown(p_, out.t_wgt, t_in, t_comp, t_out, enabled);
          row_cycles += row.total();
          out.stall.Accumulate(row, multiplicity);
          out.blocks_loaded += multiplicity * enabled;
          out.blocks_skipped += multiplicity * (blocks_n - enabled);
        }
        cycles += multiplicity * row_cycles;
      }
    }
  }
  out.tile_iterations = spatial_tiles * blocks_m;
  out.cycles = cycles + last_t_out;  // final store drain (Eq. 25)
  out.stall.out += last_t_out;
  return out;
}

LayerLatency PerfModel::NetworkCycles(
    const models::NetworkSpec& spec,
    const std::vector<const core::BlockMask*>* masks) const {
  if (masks != nullptr) {
    HWP_CHECK_MSG(masks->size() == spec.layers.size(),
                  "mask list size mismatch");
  }
  LayerLatency total;
  for (size_t i = 0; i < spec.layers.size(); ++i) {
    const core::BlockMask* mask =
        masks != nullptr ? (*masks)[i] : nullptr;
    const LayerLatency l = LayerCycles(spec.layers[i], mask);
    total.cycles += l.cycles;
    total.tile_iterations += l.tile_iterations;
    total.blocks_loaded += l.blocks_loaded;
    total.blocks_skipped += l.blocks_skipped;
    total.stall.Accumulate(l.stall);
  }
  return total;
}

}  // namespace hwp3d::fpga
