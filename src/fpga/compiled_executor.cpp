#include "fpga/compiled_executor.h"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

int64_t RoundUp(int64_t a, int64_t b) { return CeilDiv(a, b) * b; }

// Output columns per task: a task gathers the panel of a run of whole
// output rows up to this many columns (a 324-pair panel of 128 columns
// is 162 KiB, resident in L2) and runs every output-channel block on it.
constexpr int64_t kTaskCols = 128;

// A K slot of an input-channel block, ordered [tn][kd][kr][kc].
struct Slot {
  int64_t tn, kd, kr, kc;
};

Slot DecodeSlot(int64_t s, int64_t Kd, int64_t Kr, int64_t Kc) {
  return {s / (Kd * Kr * Kc), s / (Kr * Kc) % Kd, s / Kc % Kr, s % Kc};
}

// The output columns whose tap of one K slot lies inside the input row:
// output column c reads input column c * stride + off, inside for c in
// [first, end).
struct ColRange {
  int64_t off = 0, first = 0, end = 0;
};

ColRange Inside(int64_t off, int64_t stride, int64_t width, int64_t cols) {
  const int64_t last = width - 1 - off;
  const int64_t first = std::min(cols, off >= 0 ? 0 : CeilDiv(-off, stride));
  const int64_t end = last < 0 ? 0 : std::min(cols, last / stride + 1);
  return {off, first, std::max(first, end)};
}

// Writes one panel pair row: dst[2c] = tap of slot a, dst[2c+1] = tap of
// slot b, for `cols` output columns. A null row (a tap row in the zero
// halo) and columns outside [first, end) read as zero.
void GatherPairRow(const Fixed16* ra, const ColRange& a, const Fixed16* rb,
                   const ColRange& b, int64_t stride, int64_t cols,
                   int16_t* __restrict dst) {
  const auto tap = [stride](const Fixed16* row, const ColRange& x,
                            int64_t c) -> int16_t {
    return row != nullptr && c >= x.first && c < x.end
               ? row[c * stride + x.off].raw()
               : 0;
  };
  // [lo, hi): both taps inside.
  int64_t lo = cols, hi = cols;
  if (ra != nullptr && rb != nullptr) {
    lo = std::max(a.first, b.first);
    hi = std::max(lo, std::min(a.end, b.end));
  }
  for (int64_t c = 0; c < lo; ++c) {
    dst[2 * c] = tap(ra, a, c);
    dst[2 * c + 1] = tap(rb, b, c);
  }
#if defined(__SSE2__)
  if (stride == 1 && hi - lo >= 8) {
    // Eight columns per step; the last step overlaps the one before
    // rather than running a scalar tail (it rewrites the same values).
    for (int64_t c = lo;; c += 8) {
      c = std::min(c, hi - 8);
      const __m128i va = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(ra + (c + a.off)));
      const __m128i vb = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(rb + (c + b.off)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * c),
                       _mm_unpacklo_epi16(va, vb));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * c + 8),
                       _mm_unpackhi_epi16(va, vb));
      if (c + 8 >= hi) break;
    }
  } else
#endif
  {
    for (int64_t c = lo; c < hi; ++c) {
      dst[2 * c] = ra[c * stride + a.off].raw();
      dst[2 * c + 1] = rb[c * stride + b.off].raw();
    }
  }
  for (int64_t c = hi; c < cols; ++c) {
    dst[2 * c] = tap(ra, a, c);
    dst[2 * c + 1] = tap(rb, b, c);
  }
}

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
  const auto kept = [&](int64_t bm, int64_t bn) {
    return mask == nullptr || mask->at(bm, bn);
  };
  const int64_t k_vol = Kd_ * Kr_ * Kc_;
  // An input-channel block's K slots, [tn][kd][kr][kc], in pairs.
  const auto pair_count = [&](int64_t bn) {
    return CeilDiv(TnCount(bn) * k_vol, 2);
  };

  // Panel layout: the input-channel blocks some surviving tile reads.
  panel_base_.assign(static_cast<size_t>(blocks_n_), -1);
  for (int64_t bn = 0; bn < blocks_n_; ++bn) {
    for (int64_t bm = 0; bm < blocks_m_; ++bm) {
      if (!kept(bm, bn)) continue;
      panel_base_[bn] = panel_pairs_;
      panel_pairs_ += pair_count(bn);
      break;
    }
  }

  block_rows_.resize(static_cast<size_t>(blocks_m_));
  for (int64_t bm = 0; bm < blocks_m_; ++bm) {
    const int64_t m0 = bm * t_.Tm;
    const int64_t tm_n = std::min(t_.Tm, M_ - m0);
    BlockRow& row = block_rows_[bm];
    row.w_offset = static_cast<int64_t>(wdata_.size());
    row.rows = RoundUp(tm_n, kernels::kQMR);
    row.first_seg = static_cast<int64_t>(segs_.size());
    std::vector<int64_t> abs_sum(static_cast<size_t>(tm_n), 0);
    for (int64_t bn = 0; bn < blocks_n_; ++bn) {
      if (!kept(bm, bn)) continue;  // elided
      const int64_t n0 = bn * t_.Tn;
      const int64_t slots = TnCount(bn) * k_vol;
      const int64_t pairs = pair_count(bn);
      // Consecutive surviving blocks are consecutive in the panel too:
      // one segment covers both.
      if (static_cast<int64_t>(segs_.size()) > row.first_seg &&
          segs_.back().first + segs_.back().count == panel_base_[bn]) {
        segs_.back().count += pairs;
      } else {
        segs_.push_back({panel_base_[bn], pairs});
      }
      // Weights [pair][rows][2]; zero pads the odd tail and the rows
      // past tm_n.
      const size_t base = wdata_.size();
      wdata_.resize(base + static_cast<size_t>(pairs * row.rows * 2), 0);
      int16_t* w = wdata_.data() + base;
      for (int64_t s = 0; s < slots; ++s) {
        const Slot k = DecodeSlot(s, Kd_, Kr_, Kc_);
        for (int64_t tm = 0; tm < tm_n; ++tm) {
          const int16_t v =
              weights(m0 + tm, n0 + k.tn, k.kd, k.kr, k.kc).raw();
          w[(s / 2 * row.rows + tm) * 2 + s % 2] = v;
          abs_sum[tm] += v < 0 ? -int64_t{v} : int64_t{v};
        }
      }
      ++surviving_tiles_;
      sum_mn_ += tm_n * TnCount(bn);
    }
    row.num_segs = static_cast<int64_t>(segs_.size()) - row.first_seg;
    row.int32_exact =
        std::all_of(abs_sum.begin(), abs_sum.end(), [](int64_t a) {
          return kernels::Int32AccumIsExact(kernels::Int32AccumBound(a));
        });
    if (row.int32_exact) int32_channels_ += tm_n;
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
                                     std::array<int64_t, 3> padding,
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
  const auto [Pd, Pr, Pc] = padding;
  HWP_SHAPE_CHECK_MSG(Pd >= 0 && Pr >= 0 && Pc >= 0, "negative padding");
  const int64_t Di = input.dim(1), Ri = input.dim(2), Ci = input.dim(3);
  const int64_t D = OutExtent(Di + 2 * Pd, Kd_, Sd);
  const int64_t R = OutExtent(Ri + 2 * Pr, Kr_, Sr);
  const int64_t C = OutExtent(Ci + 2 * Pc, Kc_, Sc);
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
  const int64_t k_vol = Kd_ * Kr_ * Kc_;
  const int64_t task_rows = std::clamp<int64_t>(kTaskCols / C, 1, R);
  const int64_t row_runs = CeilDiv(R, task_rows);

  // Gathers the panel of output depth d, rows [r0, r0 + nr): pair p of
  // input-channel block bn is row panel_base_[bn] + p, `cols` pairs
  // wide, zero past nr * C.
  const auto gather = [&](int64_t d, int64_t r0, int64_t nr, int64_t cols,
                          int16_t* panel) {
    // Slot s of block bn at depth d: its input plane (null in the depth
    // halo and for the odd tail's pad slot), kernel row and columns.
    struct Taps {
      const Fixed16* plane = nullptr;
      int64_t kr = 0;
      ColRange cols;
    };
    const auto slot_taps = [&](int64_t bn, int64_t s) -> Taps {
      if (s >= TnCount(bn) * k_vol) return {};
      const Slot k = DecodeSlot(s, Kd_, Kr_, Kc_);
      const int64_t id = d * Sd + k.kd - Pd;
      if (id < 0 || id >= Di) return {};
      const int64_t n = bn * t_.Tn + k.tn;
      return {in + (n * Di + id) * Ri * Ci, k.kr,
              Inside(k.kc - Pc, Sc, Ci, C)};
    };
    // The slot's input row for output row r, null in the row halo.
    const auto tap_row = [&](const Taps& sl, int64_t r) -> const Fixed16* {
      const int64_t ir = r * Sr + sl.kr - Pr;
      if (sl.plane == nullptr || ir < 0 || ir >= Ri) return nullptr;
      return sl.plane + ir * Ci;
    };
    for (int64_t bn = 0; bn < blocks_n_; ++bn) {
      if (panel_base_[bn] < 0) continue;
      const int64_t pairs = CeilDiv(TnCount(bn) * k_vol, 2);
      for (int64_t p = 0; p < pairs; ++p) {
        const Taps a = slot_taps(bn, 2 * p), b = slot_taps(bn, 2 * p + 1);
        int16_t* dst = panel + (panel_base_[bn] + p) * cols * 2;
        for (int64_t i = 0; i < nr; ++i) {
          GatherPairRow(tap_row(a, r0 + i), a.cols, tap_row(b, r0 + i),
                        b.cols, Sc, C, dst + i * C * 2);
        }
        std::fill(dst + nr * C * 2, dst + cols * 2, int16_t{0});
      }
    }
  };

  // One task per (output depth, run of output rows): disjoint output
  // slabs and exact sums — bitwise identical for any thread count.
  const auto run_task = [&](int64_t idx) {
    const int64_t d = idx / row_runs;
    const int64_t r0 = idx % row_runs * task_rows;
    const int64_t nr = std::min(task_rows, R - r0);
    const int64_t n = nr * C;
    const int64_t cols = RoundUp(n, kernels::kQNR);
    const int64_t max_rows = RoundUp(std::min(t_.Tm, M_), kernels::kQMR);

    thread_local kernels::ScratchBuffer<int16_t> panel_scratch;
    thread_local kernels::ScratchBuffer<int32_t> acc32_scratch;
    thread_local kernels::ScratchBuffer<int64_t> acc64_scratch;
    int16_t* panel =
        panel_scratch.Resize(static_cast<size_t>(panel_pairs_ * cols * 2));
    gather(d, r0, nr, cols, panel);

    for (int64_t bm = 0; bm < blocks_m_; ++bm) {
      const BlockRow& row = block_rows_[bm];
      const kernels::QGemmArgs args{wdata_.data() + row.w_offset, row.rows,
                                    segs_.data() + row.first_seg,
                                    row.num_segs, panel, cols};
      int32_t* acc32 = nullptr;
      int64_t* acc64 = nullptr;
      if (row.int32_exact) {
        acc32 = acc32_scratch.Resize(static_cast<size_t>(max_rows * cols));
        kernels::QGemmInt32(args, acc32);
      } else {
        acc64 = acc64_scratch.Resize(static_cast<size_t>(max_rows * cols));
        kernels::QGemmInt64(args, acc64);
      }
      // Post-processing unit, per output channel of the block: the
      // task's rows are contiguous in the [M][D][R][C] output.
      const int64_t m0 = bm * t_.Tm;
      const int64_t tm_n = std::min(t_.Tm, M_ - m0);
      for (int64_t tm = 0; tm < tm_n; ++tm) {
        const int64_t m = m0 + tm;
        const int64_t out_off = ((m * D + d) * R + r0) * C;
        const Fixed16 scale = post.has_affine ? post.scale[m] : Fixed16{};
        const Fixed16 shift = post.has_affine ? post.shift[m] : Fixed16{};
        const Fixed16* shortcut = post.shortcut != nullptr
                                      ? post.shortcut->data() + out_off
                                      : nullptr;
        if (acc32 != nullptr) {
          kernels::QPostProcessRow(acc32 + tm * cols, n, post.has_affine,
                                   scale, shift, shortcut, post.relu,
                                   out + out_off);
        } else {
          kernels::QPostProcessRow(acc64 + tm * cols, n, post.has_affine,
                                   scale, shift, shortcut, post.relu,
                                   out + out_off);
        }
      }
    }
  };

  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::Get();
  tp.For(0, D * row_runs, run_task);

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
