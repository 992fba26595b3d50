#include "fpga/compiled_executor.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <mutex>

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

int64_t RoundUp(int64_t a, int64_t b) { return CeilDiv(a, b) * b; }

// GEMM columns per task: a task runs every output-channel block on this
// many columns (a multiple of kernels::kQNR), so the int32 accumulators
// of a block stay in L1.
constexpr int64_t kTaskCols = 128;

// The layout of a dense [N][D][R][C] tensor; to_raw maps an element to
// its raw Q7.8 value.
template <typename T, typename ToRaw>
QActivation ToLayout(const Tensor<T>& t, std::array<int64_t, 3> halo,
                     ToRaw to_raw) {
  HWP_SHAPE_CHECK_MSG(t.rank() == 4,
                      "activation must be rank-4 [N][D][R][C], got "
                          << t.shape().ToString());
  QActivation a(t.dim(0), {t.dim(1), t.dim(2), t.dim(3)}, halo);
  const auto [D, R, C] = a.extent();
  const T* src = t.data();
  for (int64_t n = 0; n < a.channels(); ++n) {
    for (int64_t d = 0; d < D; ++d) {
      for (int64_t r = 0; r < R; ++r, src += C) {
        int16_t* dst =
            a.data() + 2 * (n / 2 * a.plane() + a.Interior(d, r, 0)) + n % 2;
        for (int64_t c = 0; c < C; ++c) dst[2 * c] = to_raw(src[c]);
      }
    }
  }
  return a;
}

// Storage of released large activations. A clip's layers allocate and
// free activations of a handful of layouts; the allocator would hand the
// large ones back to the OS between clips (mmap, top-of-heap trims) and
// fault them in again. Small ones stay with the allocator, whose
// per-thread caches serve concurrent lanes without a shared lock.
// Bounded, so it holds at most the storage of a few clips in flight.
class StorageFreeList {
 public:
  using Key = std::array<int64_t, 7>;

  static StorageFreeList& Get() {
    // Never destroyed: activations may outlive static destruction.
    static StorageFreeList* list = new StorageFreeList;
    return *list;
  }

  // A free buffer of at least n values: one that held `key` if any (its
  // border is zero: *clean is set), else the smallest, else a new one.
  std::vector<int16_t>* Take(const Key& key, size_t n, bool* clean) {
    if (n >= kMinValues) {
      std::lock_guard<std::mutex> lk(mu_);
      auto best = free_.end();
      for (auto it = free_.begin(); it != free_.end(); ++it) {
        if (it->key == key) {
          best = it;
          break;
        }
        if (it->storage->size() >= n &&
            (best == free_.end() ||
             it->storage->size() < best->storage->size())) {
          best = it;
        }
      }
      if (best != free_.end()) {
        *clean = best->key == key;
        std::vector<int16_t>* v = best->storage.release();
        free_.erase(best);
        return v;
      }
    }
    *clean = true;  // value-initialized
    return new std::vector<int16_t>(n);
  }

  void Give(const Key& key, std::vector<int16_t>* v) {
    std::unique_ptr<std::vector<int16_t>> owned(v);
    if (v->size() < kMinValues) return;
    std::lock_guard<std::mutex> lk(mu_);
    if (free_.size() < kMaxFree) free_.push_back({key, std::move(owned)});
  }

 private:
  struct Entry {
    Key key;
    std::unique_ptr<std::vector<int16_t>> storage;
  };
  // 64 KiB and up: half glibc's initial mmap and trim thresholds.
  static constexpr size_t kMinValues = 32 * 1024;
  static constexpr size_t kMaxFree = 32;
  std::mutex mu_;
  std::vector<Entry> free_;  // guarded by mu_
};

// Pair index, in a plane of the input `p` plans for, of the tap
// kd = kc = 0 for output depth d and input row ir - Pr, column 0 (the B
// base of depth d in place).
int64_t Origin(const PackedConvLayer::ShapePlan& p, int64_t d, int64_t ir) {
  const int64_t Rp = p.extent[1] + 2 * p.halo[1];
  const int64_t Cp = p.extent[2] + 2 * p.halo[2];
  return ((d * p.stride[0] - p.padding[0] + p.halo[0]) * Rp + ir -
          p.padding[1] + p.halo[1]) *
             Cp +
         p.halo[2] - p.padding[2];
}

}  // namespace

void detail::RecycleActivation::operator()(
    std::vector<int16_t>* storage) const {
  StorageFreeList::Get().Give(layout, storage);
}

QActivation::QActivation(int64_t channels, std::array<int64_t, 3> extent,
                         std::array<int64_t, 3> halo)
    : channels_(channels), extent_(extent), halo_(halo) {
  HWP_SHAPE_CHECK_MSG(channels > 0 && extent[0] > 0 && extent[1] > 0 &&
                          extent[2] > 0,
                      "empty activation");
  HWP_SHAPE_CHECK_MSG(halo[0] >= 0 && halo[1] >= 0 && halo[2] >= 0,
                      "negative halo (padding)");
  const StorageFreeList::Key key = {channels, extent[0], extent[1],
                                    extent[2], halo[0],   halo[1],
                                    halo[2]};
  bool clean = false;
  data_ = {StorageFreeList::Get().Take(
               key, static_cast<size_t>(2 * size_pairs()), &clean),
           detail::RecycleActivation{key}};
  if (clean) return;
  // Zero everything outside the interior: the halo, the slack, and the
  // whole last plane when its second half has no channel.
  const auto [D, R, C] = extent_;
  const auto [hd, hr, hc] = halo_;
  const int64_t row = Cp(), slice = Rp() * Cp();
  const auto zero = [&](int64_t first_pair, int64_t pairs) {
    std::fill_n(data() + 2 * first_pair, 2 * pairs, int16_t{0});
  };
  for (int64_t q = 0; q < pairs(); ++q) {
    const int64_t base = q * plane();
    if (2 * q + 1 == channels_) {
      zero(base, plane());
      continue;
    }
    zero(base, hd * slice);
    zero(base + (hd + D) * slice, hd * slice);
    for (int64_t d = hd; d < hd + D; ++d) {
      const int64_t s = base + d * slice;
      zero(s, hr * row);
      zero(s + (hr + R) * row, hr * row);
      for (int64_t r = hr; hc > 0 && r < hr + R; ++r) {
        zero(s + r * row, hc);
        zero(s + r * row + hc + C, hc);
      }
    }
  }
  zero(pairs() * plane(), kSlackPairs);
}

QActivation QActivation::FromTensor(const TensorQ& t,
                                    std::array<int64_t, 3> halo) {
  return ToLayout(t, halo, [](Fixed16 v) { return v.raw(); });
}

QActivation QActivation::Quantize(const TensorF& t,
                                  std::array<int64_t, 3> halo) {
  return ToLayout(t, halo, [](float v) { return Fixed16::FromFloat(v).raw(); });
}

TensorQ QActivation::ToTensor() const {
  const auto [D, R, C] = extent_;
  TensorQ t(Shape{channels_, D, R, C});
  Fixed16* dst = t.data();
  for (int64_t n = 0; n < channels_; ++n) {
    for (int64_t d = 0; d < D; ++d) {
      for (int64_t r = 0; r < R; ++r, dst += C) {
        const int16_t* src =
            data() + 2 * (n / 2 * plane() + Interior(d, r, 0)) + n % 2;
        for (int64_t c = 0; c < C; ++c) dst[c] = Fixed16::FromRaw(src[2 * c]);
      }
    }
  }
  return t;
}

PackedConvLayer::PackedConvLayer(const TensorQ& weights, const Tiling& tiling,
                                 const Ports& ports,
                                 const core::BlockMask* mask,
                                 std::string label)
    : t_(tiling), p_(ports), label_(std::move(label)) {
  obs::LabelSet labels;
  if (!label_.empty()) labels = {{"layer", label_}};
  auto& reg = obs::MetricsRegistry::Get();
  const char* names[] = {"exec.runs", "exec.macs_executed",
                         "exec.blocks_loaded", "exec.blocks_skipped",
                         "exec.modeled_cycles"};
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = &reg.GetCounter(names[i], labels);
  }
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
  panel_q_.assign(static_cast<size_t>(CeilDiv(N_, 2)), -1);

  block_rows_.resize(static_cast<size_t>(blocks_m_));
  for (int64_t bm = 0; bm < blocks_m_; ++bm) {
    const int64_t m0 = bm * t_.Tm;
    const int64_t tm_n = std::min(t_.Tm, M_ - m0);
    BlockRow& row = block_rows_[bm];
    row.w_offset = static_cast<int64_t>(wdata_.size());
    row.rows = RoundUp(tm_n, kernels::kQMR);
    row.first_pair = static_cast<int64_t>(taps_.size());
    std::vector<int64_t> abs_sum(static_cast<size_t>(tm_n), 0);
    for (int64_t bn = 0; bn < blocks_n_; ++bn) {
      if (mask != nullptr && !mask->at(bm, bn)) continue;  // elided
      const int64_t n0 = bn * t_.Tn, n1 = n0 + TnCount(bn);
      // K-pairs [channel pair][kd][kr][kc], weights [pair][rows][2]. A
      // channel outside [n0, n1) — the partner of an odd channel count's
      // last channel, or the other block's half of a pair an odd Tn
      // splits — gets a zero weight, as do the rows past tm_n.
      for (int64_t q = n0 / 2; q <= (n1 - 1) / 2; ++q) {
        panel_q_[static_cast<size_t>(q)] = 0;
        const size_t base = wdata_.size();
        wdata_.resize(base + static_cast<size_t>(k_vol * row.rows * 2), 0);
        int16_t* w = wdata_.data() + base;
        for (int64_t tap = 0; tap < k_vol; ++tap) {
          taps_.push_back({static_cast<int32_t>(q),
                           static_cast<int32_t>(tap / (Kr_ * Kc_)),
                           static_cast<int32_t>(tap / Kc_ % Kr_),
                           static_cast<int32_t>(tap % Kc_)});
          for (int64_t n = std::max(2 * q, n0); n < std::min(2 * q + 2, n1);
               ++n) {
            for (int64_t tm = 0; tm < tm_n; ++tm) {
              const int16_t v =
                  weights[((m0 + tm) * N_ + n) * k_vol + tap].raw();
              w[(tap * row.rows + tm) * 2 + n % 2] = v;
              abs_sum[tm] += v < 0 ? -int64_t{v} : int64_t{v};
            }
          }
        }
      }
      ++surviving_tiles_;
      sum_mn_ += tm_n * TnCount(bn);
    }
    row.pairs = static_cast<int64_t>(taps_.size()) - row.first_pair;
    row.int32_exact =
        std::all_of(abs_sum.begin(), abs_sum.end(), [](int64_t a) {
          return kernels::Int32AccumIsExact(kernels::Int32AccumBound(a));
        });
    if (row.int32_exact) int32_channels_ += tm_n;
  }
  for (size_t q = 0; q < panel_q_.size(); ++q) {
    if (panel_q_[q] < 0) continue;
    panel_q_[q] = static_cast<int64_t>(gathered_q_.size());
    gathered_q_.push_back(static_cast<int64_t>(q));
  }
}

PackedConvLayer::ShapePlan PackedConvLayer::MakePlan(
    std::array<int64_t, 3> extent, std::array<int64_t, 3> halo,
    std::array<int64_t, 3> stride, std::array<int64_t, 3> padding) const {
  const auto [Pd, Pr, Pc] = padding;
  HWP_SHAPE_CHECK_MSG(Pd >= 0 && Pr >= 0 && Pc >= 0, "negative padding");
  HWP_SHAPE_CHECK_MSG(Pd <= halo[0] && Pr <= halo[1] && Pc <= halo[2],
                      "padding exceeds the input's halo");
  ShapePlan plan;
  plan.extent = extent;
  plan.halo = halo;
  plan.stride = stride;
  plan.padding = padding;
  plan.out = {WindowExtent(extent[0] + 2 * Pd, Kd_, stride[0]),
              WindowExtent(extent[1] + 2 * Pr, Kr_, stride[1]),
              WindowExtent(extent[2] + 2 * Pc, Kc_, stride[2])};
  const auto [D, R, C] = plan.out;
  HWP_SHAPE_CHECK_MSG(D > 0 && R > 0 && C > 0, "empty output");
  const bool direct = ReadsInPlace(stride);
  const int64_t Rp = extent[1] + 2 * halo[1], Cp = extent[2] + 2 * halo[2];
  const int64_t plane = (extent[0] + 2 * halo[0]) * Rp * Cp;
  // A task computes a chunk of kTaskCols GEMM columns of one output
  // depth. Column j of a depth is output row j / pitch, column j % pitch:
  // in place, an output row's B span runs on through the input row's
  // halo columns (pitch Cp; columns C..Cp-1 are computed and dropped),
  // while a gathered panel is compact (pitch C).
  plan.pitch = direct ? Cp : C;
  plan.depth_cols = (R - 1) * plan.pitch + C;
  plan.chunks = CeilDiv(plan.depth_cols, kTaskCols);

  // Every K-pair's B offset: from its depth's origin in place, else into
  // the panel, which holds Kd·Kr·Kc rows per gathered channel pair.
  const int64_t k_vol = Kd_ * Kr_ * Kc_;
  plan.pair_off.resize(taps_.size());
  int64_t max_off = 0;
  for (size_t i = 0; i < taps_.size(); ++i) {
    const PairTap& t = taps_[i];
    plan.pair_off[i] = direct ? t.q * plane + (t.kd * Rp + t.kr) * Cp + t.kc
                              : (panel_q_[static_cast<size_t>(t.q)] * k_vol +
                                 (t.kd * Kr_ + t.kr) * Kc_ + t.kc) *
                                    kTaskCols;
    max_off = std::max(max_off, plan.pair_off[i]);
  }
  if (direct) {
    // The last task reads furthest: at most kQNR - 1 pairs past the
    // last plane, into the slack.
    const int64_t j0 = (plan.chunks - 1) * kTaskCols;
    const int64_t end = Origin(plan, D - 1, 0) + max_off + j0 +
                        RoundUp(plan.depth_cols - j0, kernels::kQNR);
    HWP_CHECK_MSG(end <= CeilDiv(N_, 2) * plane + QActivation::kSlackPairs,
                  "direct read past the activation's slack");
  }
  const LayerLatency lat =
      PerfModel(t_, p_).RunCycles(Shape{M_, N_, Kd_, Kr_, Kc_}, stride,
                                  plan.out, mask_ ? &*mask_ : nullptr);
  plan.stats.tile_iterations = lat.tile_iterations;
  plan.stats.blocks_loaded = lat.blocks_loaded;
  plan.stats.blocks_skipped = lat.blocks_skipped;
  plan.stats.modeled_cycles = lat.cycles;
  plan.stats.stall = lat.stall;
  plan.stats.macs_executed = sum_mn_ * k_vol * D * R * C;
  return plan;
}

QActivation PackedConvLayer::Run(
    const QActivation& input, const ShapePlan& plan, const PostOps& post,
    const QActivation* shortcut, std::array<int64_t, 3> out_halo,
    ThreadPool* pool) const {
  obs::TraceScope span("exec/conv");
  if (span.active() && !label_.empty()) span.SetName("exec/" + label_);
  HWP_SHAPE_CHECK_MSG(input.channels() == N_, "input channel mismatch: "
                                                  << input.channels() << " vs "
                                                  << N_);
  HWP_CHECK_MSG(plan.extent == input.extent() && plan.halo == input.halo() &&
                    plan.pair_off.size() == taps_.size(),
                "the plan is for another layer or input layout");
  HWP_CHECK_MSG(post.shortcut == nullptr,
                "the engine takes the shortcut in the activation layout");
  const auto [Sd, Sr, Sc] = plan.stride;
  const auto [D, R, C] = plan.out;
  if (post.has_affine) {
    HWP_SHAPE_CHECK_MSG(post.scale.numel() == M_ && post.shift.numel() == M_,
                        "affine params must be [M]");
  }
  if (shortcut != nullptr) {
    HWP_SHAPE_CHECK_MSG(shortcut->channels() == M_ &&
                            (shortcut->extent() ==
                             std::array<int64_t, 3>{D, R, C}),
                        "shortcut shape mismatch");
  }

  QActivation out(M_, {D, R, C}, out_halo);
  const int16_t* in = input.data();
  const int64_t Rp = input.Rp(), Cp = input.Cp(), plane = input.plane();
  const int64_t k_vol = Kd_ * Kr_ * Kc_;
  const bool direct = ReadsInPlace(plan.stride);
  const int64_t pitch = plan.pitch;
  const int64_t depth_cols = plan.depth_cols;
  const int64_t chunks = plan.chunks;
  const int64_t* pair_off = plan.pair_off.data();
  const auto origin = [&](int64_t d, int64_t ir) {
    return Origin(plan, d, ir);
  };

  // Calls fn(r, rows, c0, c1, j) for the output rows the columns
  // [j0, j1) of a depth cover: rows [r, r + rows) keep output columns
  // [c0, c1), the first row's from chunk column j on. A partial row is
  // a run of its own; consecutive whole rows form one run.
  const auto for_rows = [&](int64_t j0, int64_t j1, const auto& fn) {
    for (int64_t r = j0 / pitch; r * pitch < j1;) {
      const int64_t c0 = std::max<int64_t>(0, j0 - r * pitch);
      const int64_t c1 = std::min(C, j1 - r * pitch);
      int64_t rows = 1;
      if (c0 == 0 && c1 == C) {
        while ((r + rows) * pitch + C <= j1) ++rows;
      }
      if (c0 < c1) fn(r, rows, c0, c1, r * pitch + c0 - j0);
      r += rows;
    }
  };

  // Gathers the panel of a column-strided conv's chunk [j0, j1) of
  // depth d: row (g, tap) holds the tap of gathered channel pair g.
  const auto gather = [&](int64_t d, int64_t j0, int64_t j1, int16_t* panel) {
    for (size_t g = 0; g < gathered_q_.size(); ++g) {
      const int16_t* src_plane = in + 2 * gathered_q_[g] * plane;
      for (int64_t tap = 0; tap < k_vol; ++tap) {
        const int64_t kd = tap / (Kr_ * Kc_), kr = tap / Kc_ % Kr_,
                      kc = tap % Kc_;
        int16_t* dst =
            panel + 2 * (static_cast<int64_t>(g) * k_vol + tap) * kTaskCols;
        for_rows(j0, j1, [&](int64_t r0, int64_t rows, int64_t c0, int64_t c1,
                             int64_t j) {
          for (int64_t r = r0; r < r0 + rows; ++r, j += pitch - (c1 - c0)) {
            const int16_t* src =
                src_plane + 2 * (origin(d, r * Sr + kr) + kd * Rp * Cp + kc);
            for (int64_t c = c0; c < c1; ++c, ++j) {
              std::memcpy(dst + 2 * j, src + 2 * c * Sc, 2 * sizeof(int16_t));
            }
          }
        });
      }
    }
  };

  // One task per (output depth, column chunk): disjoint output elements
  // and exact sums — bitwise identical for any thread count.
  const auto run_task = [&](int64_t idx) {
    const int64_t d = idx / chunks;
    const int64_t j0 = idx % chunks * kTaskCols;
    const int64_t j1 = std::min(depth_cols, j0 + kTaskCols);
    const int64_t cols = RoundUp(j1 - j0, kernels::kQNR);
    const int64_t max_rows = RoundUp(std::min(t_.Tm, M_), kernels::kQMR);

    thread_local kernels::ScratchBuffer<int16_t> panel_scratch;
    thread_local kernels::ScratchBuffer<int32_t> acc32_scratch;
    thread_local kernels::ScratchBuffer<int64_t> acc64_scratch;
    const int16_t* b = in + 2 * (origin(d, 0) + j0);
    if (!direct) {
      int16_t* panel = panel_scratch.Resize(
          static_cast<size_t>(gathered_q_.size() * k_vol * kTaskCols * 2));
      gather(d, j0, j1, panel);
      b = panel;
    }

    for (int64_t bm = 0; bm < blocks_m_; ++bm) {
      const BlockRow& row = block_rows_[bm];
      const kernels::QGemmArgs args{wdata_.data() + row.w_offset, row.rows,
                                    pair_off + row.first_pair, row.pairs, b,
                                    cols};
      int32_t* acc32 = nullptr;
      int64_t* acc64 = nullptr;
      if (row.int32_exact) {
        acc32 = acc32_scratch.Resize(static_cast<size_t>(max_rows * cols));
        kernels::QGemmInt32(args, acc32);
      } else {
        acc64 = acc64_scratch.Resize(static_cast<size_t>(max_rows * cols));
        kernels::QGemmInt64(args, acc64);
      }
      // Post-processing unit, per output channel pair of the block (per
      // channel where the block holds only one of a pair), per output row.
      const int64_t m0 = bm * t_.Tm;
      const int64_t tm_n = std::min(t_.Tm, M_ - m0);
      const auto channel = [&](int64_t m) {
        return post.has_affine
                   ? kernels::QPostChannel(true, post.scale[m], post.shift[m],
                                           post.relu)
                   : kernels::QPostChannel(false, {}, {}, post.relu);
      };
      for (int64_t tm = 0; tm < tm_n;) {
        const int64_t m = m0 + tm;
        const bool both = m % 2 == 0 && tm + 1 < tm_n;
        const int64_t half = m % 2;
        const kernels::QPostChannel ch0 = channel(m);
        const kernels::QPostChannel ch1 = both ? channel(m + 1) : ch0;
        int16_t* dst = out.data() + 2 * (m / 2) * out.plane();
        const int16_t* sc =
            shortcut == nullptr
                ? nullptr
                : shortcut->data() + 2 * (m / 2) * shortcut->plane();
        for_rows(j0, j1, [&](int64_t r, int64_t rows, int64_t c0, int64_t c1,
                             int64_t j) {
          const int64_t a_off = tm * cols + j;
          const kernels::QPostRows g{
              rows, c1 - c0, pitch,
              shortcut != nullptr ? shortcut->Cp() : 0, out.Cp()};
          int16_t* o = dst + 2 * out.Interior(d, r, c0);
          const int16_t* s =
              sc == nullptr ? nullptr : sc + 2 * shortcut->Interior(d, r, c0);
          if (both) {
            if (acc32 != nullptr) {
              kernels::QPostProcessPair(acc32 + a_off, acc32 + a_off + cols, g,
                                        ch0, ch1, s, o);
            } else {
              kernels::QPostProcessPair(acc64 + a_off, acc64 + a_off + cols, g,
                                        ch0, ch1, s, o);
            }
          } else if (acc32 != nullptr) {
            kernels::QPostProcessHalf(acc32 + a_off, g, ch0,
                                      s == nullptr ? nullptr : s + half,
                                      o + half);
          } else {
            kernels::QPostProcessHalf(acc64 + a_off, g, ch0,
                                      s == nullptr ? nullptr : s + half,
                                      o + half);
          }
        });
        tm += both ? 2 : 1;
      }
    }
  };

  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::Get();
  tp.For(0, D * chunks, run_task);

  const TiledConvStats& s = plan.stats;
  if (span.active()) {
    if (!label_.empty()) span.AddArg("layer", label_);
    span.AddArg("macs", s.macs_executed);
    span.AddArg("blocks_loaded", s.blocks_loaded);
    span.AddArg("blocks_skipped", s.blocks_skipped);
    span.AddArg("modeled_cycles", s.modeled_cycles);
    span.AddArg("packed_tiles", surviving_tiles());
  }
  counters_[0]->Add(1);
  counters_[1]->Add(s.macs_executed);
  counters_[2]->Add(s.blocks_loaded);
  counters_[3]->Add(s.blocks_skipped);
  counters_[4]->Add(s.modeled_cycles);
  return out;
}

}  // namespace hwp3d::fpga
