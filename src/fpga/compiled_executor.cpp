#include "fpga/compiled_executor.h"

#include <algorithm>

#include "common/error.h"
#include "fpga/perf_model.h"
#include "kernels/qgemm_tile.h"
#include "kernels/scratch.h"
#include "kernels/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/shape.h"

namespace hwp3d::fpga {

namespace {

int64_t OutExtent(int64_t in, int64_t k, int64_t s) {
  return (in - k) / s + 1;
}

// Accumulator strips are post-processed in cache-resident column
// blocks: a full [Tm][kColBlock] strip of wide accumulators is 8 KiB at
// Tm=64 — it stays in L1 across the whole surviving-tile list.
constexpr int64_t kColBlock = 128;

}  // namespace

PackedConvLayer::PackedConvLayer(const TensorQ& weights, const Tiling& tiling,
                                 const Ports& ports,
                                 const core::BlockMask* mask)
    : t_(tiling), p_(ports) {
  HWP_SHAPE_CHECK_MSG(weights.rank() == 5, "weights must be rank-5");
  M_ = weights.dim(0);
  N_ = weights.dim(1);
  Kd_ = weights.dim(2);
  Kr_ = weights.dim(3);
  Kc_ = weights.dim(4);
  blocks_m_ = CeilDiv(M_, t_.Tm);
  blocks_n_ = CeilDiv(N_, t_.Tn);
  if (mask != nullptr) {
    HWP_CHECK_MSG(mask->blocks_m == blocks_m_ && mask->blocks_n == blocks_n_,
                  "block mask grid mismatch");
    mask_ = *mask;
  }

  const int64_t k_vol = Kd_ * Kr_ * Kc_;
  row_ptr_.reserve(static_cast<size_t>(blocks_m_) + 1);
  row_ptr_.push_back(0);
  for (int64_t bm = 0; bm < blocks_m_; ++bm) {
    const int64_t m0 = bm * t_.Tm;
    const int64_t tm_n = std::min(t_.Tm, M_ - m0);
    for (int64_t bn = 0; bn < blocks_n_; ++bn) {
      if (mask != nullptr && !mask->at(bm, bn)) continue;  // elided
      const int64_t n0 = bn * t_.Tn;
      const int64_t tn_n = std::min(t_.Tn, N_ - n0);
      Tile tile;
      tile.bn = static_cast<int32_t>(bn);
      tile.tn_n = static_cast<int32_t>(tn_n);
      tile.w_offset = static_cast<int64_t>(wdata_.size());
      // Layout [tn][kd][kr][kc][tm]: the executor walks (tn, kd, kr,
      // kc) outer and reads one contiguous tm-column per slot.
      wdata_.resize(wdata_.size() +
                    static_cast<size_t>(tn_n * k_vol * tm_n));
      Fixed16* w = wdata_.data() + tile.w_offset;
      for (int64_t tn = 0; tn < tn_n; ++tn)
        for (int64_t kd = 0; kd < Kd_; ++kd)
          for (int64_t kr = 0; kr < Kr_; ++kr)
            for (int64_t kc = 0; kc < Kc_; ++kc)
              for (int64_t tm = 0; tm < tm_n; ++tm)
                *w++ = weights(m0 + tm, n0 + tn, kd, kr, kc);
      tiles_.push_back(tile);
      sum_mn_ += tm_n * tn_n;
    }
    row_ptr_.push_back(static_cast<int64_t>(tiles_.size()));
  }
}

TiledConvStats PackedConvLayer::ModelStats(std::array<int64_t, 3> stride,
                                           int64_t D, int64_t R,
                                           int64_t C) const {
  models::ConvLayerSpec spec;
  spec.M = M_;
  spec.N = N_;
  spec.Kd = Kd_;
  spec.Kr = Kr_;
  spec.Kc = Kc_;
  spec.Sd = stride[0];
  spec.Sr = stride[1];
  spec.Sc = stride[2];
  spec.D = D;
  spec.R = R;
  spec.C = C;
  const PerfModel pm(t_, p_);
  const LayerLatency lat =
      pm.LayerCycles(spec, mask_.has_value() ? &*mask_ : nullptr);
  TiledConvStats stats;
  stats.tile_iterations = lat.tile_iterations;
  stats.blocks_loaded = lat.blocks_loaded;
  stats.blocks_skipped = lat.blocks_skipped;
  stats.modeled_cycles = lat.cycles;
  stats.stall = lat.stall;
  // The simulator counts one MAC per (enabled block element, kernel
  // element, output element); spatial tiles partition D×R×C exactly, so
  // the count factorizes over the surviving-tile channel area.
  stats.macs_executed = sum_mn_ * Kd_ * Kr_ * Kc_ * D * R * C;
  return stats;
}

TiledConvResult PackedConvLayer::Run(const TensorQ& input,
                                     std::array<int64_t, 3> stride,
                                     const PostOps& post,
                                     std::string_view label,
                                     ThreadPool* pool) const {
  obs::TraceScope span("exec/conv");
  if (span.active() && !label.empty()) {
    span.SetName("exec/" + std::string(label));
  }
  HWP_SHAPE_CHECK_MSG(input.rank() == 4, "input must be rank-4 [N][D][R][C]");
  HWP_SHAPE_CHECK_MSG(input.dim(0) == N_, "input channel mismatch: "
                                              << input.dim(0) << " vs " << N_);
  const auto [Sd, Sr, Sc] = stride;
  const int64_t Di = input.dim(1), Ri = input.dim(2), Ci = input.dim(3);
  const int64_t D = OutExtent(Di, Kd_, Sd);
  const int64_t R = OutExtent(Ri, Kr_, Sr);
  const int64_t C = OutExtent(Ci, Kc_, Sc);
  HWP_SHAPE_CHECK_MSG(D > 0 && R > 0 && C > 0, "empty output");
  if (post.has_affine) {
    HWP_SHAPE_CHECK_MSG(post.scale.numel() == M_ && post.shift.numel() == M_,
                        "affine params must be [M]");
  }
  if (post.shortcut != nullptr) {
    HWP_SHAPE_CHECK_MSG(post.shortcut->rank() == 4 &&
                            post.shortcut->dim(0) == M_ &&
                            post.shortcut->dim(1) == D &&
                            post.shortcut->dim(2) == R &&
                            post.shortcut->dim(3) == C,
                        "shortcut shape mismatch");
  }

  TiledConvResult result;
  result.output = TensorQ(Shape{M_, D, R, C});
  Fixed16* out = result.output.data();
  const Fixed16* in = input.data();

  // One task per (output-channel block, output depth): disjoint output
  // slabs, fixed inner order — bitwise identical for any thread count.
  const auto run_slab = [&](int64_t idx) {
    const int64_t bm = idx / D;
    const int64_t d = idx % D;
    const int64_t m0 = bm * t_.Tm;
    const int64_t tm_n = std::min(t_.Tm, M_ - m0);
    const Tile* row_begin = tiles_.data() + row_ptr_[bm];
    const Tile* row_end = tiles_.data() + row_ptr_[bm + 1];

    thread_local kernels::ScratchBuffer<FixedAccum> acc_scratch;
    FixedAccum* acc =
        acc_scratch.Resize(static_cast<size_t>(tm_n * std::min(C, kColBlock)));

    for (int64_t r = 0; r < R; ++r) {
      for (int64_t c0 = 0; c0 < C; c0 += kColBlock) {
        const int64_t cb = std::min(kColBlock, C - c0);
        for (int64_t i = 0; i < tm_n * cb; ++i) acc[i].Reset();
        // Only surviving tiles exist in the packed row: pruned blocks
        // cost nothing here, not even a branch.
        for (const Tile* tile = row_begin; tile != row_end; ++tile) {
          const int64_t n0 = static_cast<int64_t>(tile->bn) * t_.Tn;
          const Fixed16* wt = wdata_.data() + tile->w_offset;
          for (int64_t tn = 0; tn < tile->tn_n; ++tn) {
            const Fixed16* in_chan = in + (n0 + tn) * Di * Ri * Ci;
            for (int64_t kd = 0; kd < Kd_; ++kd) {
              const int64_t id = d * Sd + kd;
              for (int64_t kr = 0; kr < Kr_; ++kr) {
                const int64_t ir = r * Sr + kr;
                const Fixed16* in_row =
                    in_chan + (id * Ri + ir) * Ci + c0 * Sc;
                const Fixed16* w_slot =
                    wt + ((tn * Kd_ + kd) * Kr_ + kr) * Kc_ * tm_n;
                for (int64_t kc = 0; kc < Kc_; ++kc) {
                  kernels::QOuterMacRow(acc, cb, w_slot + kc * tm_n, tm_n,
                                        in_row + kc, Sc, cb);
                }
              }
            }
          }
        }
        // Post-processing unit, per output channel of the block.
        for (int64_t tm = 0; tm < tm_n; ++tm) {
          const int64_t m = m0 + tm;
          const int64_t out_off = ((m * D + d) * R + r) * C + c0;
          kernels::QPostProcessRow(
              acc + tm * cb, cb, post.has_affine,
              post.has_affine ? post.scale[m] : Fixed16{},
              post.has_affine ? post.shift[m] : Fixed16{},
              post.shortcut != nullptr ? post.shortcut->data() + out_off
                                       : nullptr,
              post.relu, out + out_off);
        }
      }
    }
  };

  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::Get();
  tp.For(0, blocks_m_ * D, run_slab);

  // Timing split from compute: the cycle accounting comes from the
  // analytic model + mask counts, not from walking the loop nest.
  result.stats = ModelStats(stride, D, R, C);

  const TiledConvStats& s = result.stats;
  if (span.active()) {
    if (!label.empty()) span.AddArg("layer", std::string(label));
    span.AddArg("macs", s.macs_executed);
    span.AddArg("blocks_loaded", s.blocks_loaded);
    span.AddArg("blocks_skipped", s.blocks_skipped);
    span.AddArg("modeled_cycles", s.modeled_cycles);
    span.AddArg("packed_tiles", surviving_tiles());
  }
  auto& reg = obs::MetricsRegistry::Get();
  obs::LabelSet labels;
  if (!label.empty()) labels = {{"layer", std::string(label)}};
  reg.GetCounter("exec.runs", labels).Add(1);
  reg.GetCounter("exec.macs_executed", labels).Add(s.macs_executed);
  reg.GetCounter("exec.blocks_loaded", labels).Add(s.blocks_loaded);
  reg.GetCounter("exec.blocks_skipped", labels).Add(s.blocks_skipped);
  reg.GetCounter("exec.modeled_cycles", labels).Add(s.modeled_cycles);
  return result;
}

}  // namespace hwp3d::fpga
