#include "fpga/tiled_conv_sim.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/shape.h"

namespace hwp3d::fpga {

TiledConvResult TiledConvSim::Run(const TensorQ& weights, const TensorQ& input,
                                  std::array<int64_t, 3> stride,
                                  const core::BlockMask* mask,
                                  const PostOps& post,
                                  std::string_view label) const {
  obs::TraceScope span("sim/conv");
  if (span.active() && !label.empty()) {
    span.SetName("sim/" + std::string(label));
  }
  HWP_SHAPE_CHECK_MSG(weights.rank() == 5, "weights must be rank-5");
  HWP_SHAPE_CHECK_MSG(input.rank() == 4, "input must be rank-4 [N][D][R][C]");
  const int64_t M = weights.dim(0), N = weights.dim(1);
  const int64_t Kd = weights.dim(2), Kr = weights.dim(3), Kc = weights.dim(4);
  const auto [Sd, Sr, Sc] = stride;
  HWP_SHAPE_CHECK_MSG(input.dim(0) == N, "input channel mismatch: "
                                             << input.dim(0) << " vs " << N);
  const int64_t Di = input.dim(1), Ri = input.dim(2), Ci = input.dim(3);
  const int64_t D = WindowExtent(Di, Kd, Sd);
  const int64_t R = WindowExtent(Ri, Kr, Sr);
  const int64_t C = WindowExtent(Ci, Kc, Sc);
  HWP_SHAPE_CHECK_MSG(D > 0 && R > 0 && C > 0, "empty output");

  const int64_t blocks_m = CeilDiv(M, t_.Tm);
  const int64_t blocks_n = CeilDiv(N, t_.Tn);
  if (mask != nullptr) {
    HWP_CHECK_MSG(mask->blocks_m == blocks_m && mask->blocks_n == blocks_n,
                  "block mask grid mismatch");
  }
  if (post.has_affine) {
    HWP_SHAPE_CHECK_MSG(post.scale.numel() == M && post.shift.numel() == M,
                        "affine params must be [M]");
  }
  if (post.shortcut != nullptr) {
    HWP_SHAPE_CHECK_MSG(post.shortcut->rank() == 4 &&
                            post.shortcut->dim(0) == M &&
                            post.shortcut->dim(1) == D &&
                            post.shortcut->dim(2) == R &&
                            post.shortcut->dim(3) == C,
                        "shortcut shape mismatch");
  }

  TiledConvResult result;
  result.output = TensorQ(Shape{M, D, R, C});
  TensorQ& out = result.output;

  // Wide accumulators standing in for the output buffer O_buf: one per
  // element of the current output tile, kept at DSP-accumulator width
  // until post-processing.
  std::vector<FixedAccum> o_buf(
      static_cast<size_t>(t_.Tm * t_.Td * t_.Tr * t_.Tc));
  const auto obuf_at = [&](int64_t tm, int64_t td, int64_t tr,
                           int64_t tc) -> FixedAccum& {
    return o_buf[static_cast<size_t>(
        ((tm * t_.Td + td) * t_.Tr + tr) * t_.Tc + tc)];
  };

  // Per-tile cycle terms shared with PerfModel: the weight-load time
  // (Eq. 19) is extent-independent; the rest depend on the effective
  // (possibly partial) tile extents and are computed per spatial tile.
  const int64_t k_vol = Kd * Kr * Kc;
  const int64_t t_wgt = CeilDiv(t_.Tm * t_.Tn * k_vol, p_.p_wgt);
  int64_t last_t_out = 0;

  // Outer tile loops over output (d, r, c) and output-channel blocks m —
  // the loop nest of Algorithm 2.
  for (int64_t d0 = 0; d0 < D; d0 += t_.Td) {
    const int64_t td_n = std::min(t_.Td, D - d0);
    for (int64_t r0 = 0; r0 < R; r0 += t_.Tr) {
      const int64_t tr_n = std::min(t_.Tr, R - r0);
      for (int64_t c0 = 0; c0 < C; c0 += t_.Tc) {
        const int64_t tc_n = std::min(t_.Tc, C - c0);
        // Effective per-tile latencies (Eqs. 20-22) for this tile.
        const int64_t in_d = (td_n - 1) * Sd + Kd;
        const int64_t in_r = (tr_n - 1) * Sr + Kr;
        const int64_t in_c = (tc_n - 1) * Sc + Kc;
        const int64_t t_in = CeilDiv(t_.Tn * in_d * in_r * in_c, p_.p_in);
        const int64_t t_out = CeilDiv(t_.Tm * td_n * tr_n * tc_n, p_.p_out);
        const int64_t t_comp = k_vol * td_n * tr_n * tc_n;
        last_t_out = t_out;
        for (int64_t bm = 0; bm < blocks_m; ++bm) {
          const int64_t m0 = bm * t_.Tm;
          const int64_t tm_n = std::min(t_.Tm, M - m0);
          ++result.stats.tile_iterations;
          int64_t row_enabled = 0;
          for (auto& acc : o_buf) acc.Reset();

          for (int64_t bn = 0; bn < blocks_n; ++bn) {
            // Block-enable: skip load + compute of pruned blocks.
            if (mask != nullptr && !mask->at(bm, bn)) {
              ++result.stats.blocks_skipped;
              continue;
            }
            ++result.stats.blocks_loaded;
            ++row_enabled;
            const int64_t n0 = bn * t_.Tn;
            const int64_t tn_n = std::min(t_.Tn, N - n0);

            // Compute(): kernel loops outside, pipelined tile loops, and
            // the Tm x Tn MAC array innermost (loops L2/L3 unrolled in
            // hardware; sequential here but numerically identical thanks
            // to the wide accumulator).
            for (int64_t kd = 0; kd < Kd; ++kd)
              for (int64_t kr = 0; kr < Kr; ++kr)
                for (int64_t kc = 0; kc < Kc; ++kc)
                  for (int64_t td = 0; td < td_n; ++td) {
                    const int64_t id = (d0 + td) * Sd + kd;
                    for (int64_t tr = 0; tr < tr_n; ++tr) {
                      const int64_t ir = (r0 + tr) * Sr + kr;
                      for (int64_t tc = 0; tc < tc_n; ++tc) {
                        const int64_t ic = (c0 + tc) * Sc + kc;
                        for (int64_t tm = 0; tm < tm_n; ++tm)
                          for (int64_t tn = 0; tn < tn_n; ++tn) {
                            obuf_at(tm, td, tr, tc)
                                .MulAdd(weights(m0 + tm, n0 + tn, kd, kr, kc),
                                        input(n0 + tn, id, ir, ic));
                            ++result.stats.macs_executed;
                          }
                      }
                    }
                  }
          }

          // Cycle accounting for this output-block row, mirroring the
          // analytic model (Eq. 24 via RowCycleBreakdown).
          result.stats.stall.Accumulate(
              RowCycleBreakdown(p_, t_wgt, t_in, t_comp, t_out, row_enabled));

          // Post-processing unit: affine -> shortcut -> ReLU, then store.
          for (int64_t tm = 0; tm < tm_n; ++tm) {
            const int64_t m = m0 + tm;
            for (int64_t td = 0; td < td_n; ++td)
              for (int64_t tr = 0; tr < tr_n; ++tr)
                for (int64_t tc = 0; tc < tc_n; ++tc) {
                  Fixed16 v = obuf_at(tm, td, tr, tc).ToFixed16();
                  if (post.has_affine) {
                    v = v * post.scale[m] + post.shift[m];
                  }
                  if (post.shortcut != nullptr) {
                    v = v + (*post.shortcut)(m, d0 + td, r0 + tr, c0 + tc);
                  }
                  if (post.relu && v < Fixed16::FromFloat(0.0f)) {
                    v = Fixed16::FromFloat(0.0f);
                  }
                  out(m, d0 + td, r0 + tr, c0 + tc) = v;
                }
          }
        }
      }
    }
  }

  // Final store drain (Eq. 25), charged to the output stage.
  result.stats.stall.out += last_t_out;

  // Cross-check cycles with the analytic model on an equivalent layer.
  result.stats.modeled_cycles =
      PerfModel(t_, p_).RunCycles(weights.shape(), stride, {D, R, C}, mask)
          .cycles;

  // Observability: one span + per-layer counters per Run (outside the
  // hot loops, so the disabled-tracing cost is a single atomic load).
  const TiledConvStats& s = result.stats;
  if (span.active()) {
    if (!label.empty()) span.AddArg("layer", std::string(label));
    span.AddArg("macs", s.macs_executed);
    span.AddArg("blocks_loaded", s.blocks_loaded);
    span.AddArg("blocks_skipped", s.blocks_skipped);
    span.AddArg("modeled_cycles", s.modeled_cycles);
    span.AddArg("stall_wgt", s.stall.wgt);
    span.AddArg("stall_in", s.stall.in);
    span.AddArg("stall_comp", s.stall.comp);
    span.AddArg("stall_out", s.stall.out);
  }
  auto& reg = obs::MetricsRegistry::Get();
  obs::LabelSet labels;
  if (!label.empty()) labels = {{"layer", std::string(label)}};
  reg.GetCounter("sim.runs", labels).Add(1);
  reg.GetCounter("sim.macs_executed", labels).Add(s.macs_executed);
  reg.GetCounter("sim.blocks_loaded", labels).Add(s.blocks_loaded);
  reg.GetCounter("sim.blocks_skipped", labels).Add(s.blocks_skipped);
  reg.GetCounter("sim.modeled_cycles", labels).Add(s.modeled_cycles);
  reg.GetCounter("sim.stall.wgt_cycles", labels).Add(s.stall.wgt);
  reg.GetCounter("sim.stall.in_cycles", labels).Add(s.stall.in);
  reg.GetCounter("sim.stall.comp_cycles", labels).Add(s.stall.comp);
  reg.GetCounter("sim.stall.out_cycles", labels).Add(s.stall.out);
  return result;
}

TensorQ ReferenceConv3dFixed(const TensorQ& weights, const TensorQ& input,
                             std::array<int64_t, 3> stride) {
  const int64_t M = weights.dim(0), N = weights.dim(1);
  const int64_t Kd = weights.dim(2), Kr = weights.dim(3), Kc = weights.dim(4);
  const auto [Sd, Sr, Sc] = stride;
  const int64_t D = WindowExtent(input.dim(1), Kd, Sd);
  const int64_t R = WindowExtent(input.dim(2), Kr, Sr);
  const int64_t C = WindowExtent(input.dim(3), Kc, Sc);
  TensorQ out(Shape{M, D, R, C});
  for (int64_t m = 0; m < M; ++m)
    for (int64_t d = 0; d < D; ++d)
      for (int64_t r = 0; r < R; ++r)
        for (int64_t c = 0; c < C; ++c) {
          FixedAccum acc;
          for (int64_t n = 0; n < N; ++n)
            for (int64_t kd = 0; kd < Kd; ++kd)
              for (int64_t kr = 0; kr < Kr; ++kr)
                for (int64_t kc = 0; kc < Kc; ++kc)
                  acc.MulAdd(weights(m, n, kd, kr, kc),
                             input(n, d * Sd + kd, r * Sr + kr, c * Sc + kc));
          out(m, d, r, c) = acc.ToFixed16();
        }
  return out;
}

TensorQ PadInput(const TensorQ& input, std::array<int64_t, 3> pad) {
  HWP_SHAPE_CHECK_MSG(input.rank() == 4, "PadInput expects [N][D][R][C]");
  const auto [Pd, Pr, Pc] = pad;
  const int64_t N = input.dim(0), D = input.dim(1), R = input.dim(2),
                C = input.dim(3);
  TensorQ out(Shape{N, D + 2 * Pd, R + 2 * Pr, C + 2 * Pc});
  for (int64_t n = 0; n < N; ++n)
    for (int64_t d = 0; d < D; ++d)
      for (int64_t r = 0; r < R; ++r)
        for (int64_t c = 0; c < C; ++c)
          out(n, d + Pd, r + Pr, c + Pc) = input(n, d, r, c);
  return out;
}

std::array<int64_t, 3> PoolExtent(std::array<int64_t, 3> input,
                                  std::array<int64_t, 3> kernel,
                                  std::array<int64_t, 3> stride) {
  const std::array<int64_t, 3> out = {
      WindowExtent(input[0], kernel[0], stride[0]),
      WindowExtent(input[1], kernel[1], stride[1]),
      WindowExtent(input[2], kernel[2], stride[2])};
  HWP_SHAPE_CHECK_MSG(out[0] > 0 && out[1] > 0 && out[2] > 0,
                      "pooling window larger than the input");
  return out;
}

TensorQ MaxPool3dFixed(const TensorQ& input, std::array<int64_t, 3> kernel,
                       std::array<int64_t, 3> stride) {
  HWP_SHAPE_CHECK_MSG(input.rank() == 4, "MaxPool3dFixed expects [N][D][R][C]");
  const auto [Kd, Kr, Kc] = kernel;
  const auto [Sd, Sr, Sc] = stride;
  const int64_t N = input.dim(0);
  const auto [D, R, C] =
      PoolExtent({input.dim(1), input.dim(2), input.dim(3)}, kernel, stride);
  TensorQ out(Shape{N, D, R, C});
  for (int64_t n = 0; n < N; ++n)
    for (int64_t d = 0; d < D; ++d)
      for (int64_t r = 0; r < R; ++r)
        for (int64_t c = 0; c < C; ++c) {
          Fixed16 best = Fixed16::FromRaw(Fixed16::kRawMin);
          for (int64_t kd = 0; kd < Kd; ++kd)
            for (int64_t kr = 0; kr < Kr; ++kr)
              for (int64_t kc = 0; kc < Kc; ++kc) {
                const Fixed16 v =
                    input(n, d * Sd + kd, r * Sr + kr, c * Sc + kc);
                if (v > best) best = v;
              }
          out(n, d, r, c) = best;
        }
  return out;
}

}  // namespace hwp3d::fpga
