#include "kernels/qgemm_tile.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define HWP_QGEMM_X86 1
#include <immintrin.h>
#else
#define HWP_QGEMM_X86 0
#endif

#include "common/error.h"

namespace hwp3d::kernels {
namespace {

// One kQMR-row × (V·kQNR)-column block of the GEMM: rows [g, g+kQMR),
// columns [j0, j0 + V·kQNR).
template <typename Acc>
using BlockFn = void (*)(const QGemmArgs&, int64_t g, int64_t j0, Acc* acc);

// One variant's block kernels by width: fns[v-1] covers v granules.
template <typename Acc>
struct BlockTable {
  int max_v = 1;
  BlockFn<Acc> fns[4] = {};
};

template <typename Acc>
void RunBlocks(const QGemmArgs& a, const BlockTable<Acc>& t, Acc* acc) {
  for (int64_t g = 0; g < a.rows; g += kQMR) {
    for (int64_t j0 = 0; j0 < a.cols;) {
      const int64_t v =
          std::min<int64_t>(t.max_v, (a.cols - j0) / kQNR);
      t.fns[v - 1](a, g, j0, acc);
      j0 += v * kQNR;
    }
  }
}

// The reference: plain C++ in the accumulator type. For int32 the sums
// stay in range exactly when the caller's proof holds; the sanitize
// build traps any overflow a wrong proof would let through.
template <typename Acc>
void BlockPortable(const QGemmArgs& a, int64_t g, int64_t j0, Acc* acc) {
  Acc c[kQMR][kQNR] = {};
  const int64_t w_ld = 2 * a.rows;
  const int16_t* wp = a.w + 2 * g;
  for (int64_t p = 0; p < a.pairs; ++p, wp += w_ld) {
    const int16_t* bp = a.b + (a.pair_off[p] + j0) * 2;
    for (int64_t i = 0; i < kQMR; ++i) {
      const Acc w0 = wp[2 * i], w1 = wp[2 * i + 1];
      for (int64_t j = 0; j < kQNR; ++j) {
        c[i][j] += w0 * bp[2 * j] + w1 * bp[2 * j + 1];
      }
    }
  }
  for (int64_t i = 0; i < kQMR; ++i) {
    std::memcpy(acc + (g + i) * a.cols + j0, c[i], sizeof(c[i]));
  }
}

inline int32_t LoadPair(const int16_t* p) {
  int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

#if HWP_QGEMM_X86

// One ymm holds 8 columns' pairs (16 int16) or 8 int32 sums: a kQNR
// block is two ymm per row, 8 accumulators in all.
__attribute__((target("avx2"))) void BlockAvx2(const QGemmArgs& a, int64_t g,
                                               int64_t j0, int32_t* acc) {
  __m256i c[kQMR][2];
  for (auto& row : c) row[0] = row[1] = _mm256_setzero_si256();
  const int64_t w_ld = 2 * a.rows;
  const int16_t* wp = a.w + 2 * g;
  for (int64_t p = 0; p < a.pairs; ++p, wp += w_ld) {
    const int16_t* bp = a.b + (a.pair_off[p] + j0) * 2;
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 16));
    for (int64_t i = 0; i < kQMR; ++i) {
      const __m256i w = _mm256_set1_epi32(LoadPair(wp + 2 * i));
      c[i][0] = _mm256_add_epi32(c[i][0], _mm256_madd_epi16(w, b0));
      c[i][1] = _mm256_add_epi32(c[i][1], _mm256_madd_epi16(w, b1));
    }
  }
  for (int64_t i = 0; i < kQMR; ++i) {
    int32_t* out = acc + (g + i) * a.cols + j0;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), c[i][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8), c[i][1]);
  }
}

// One zmm holds a granule: 16 columns' pairs or 16 int32 sums. V
// granules per row, 4·V accumulators (16 at V = 4).
template <int V>
__attribute__((target("avx512f,avx512bw"))) void BlockAvx512Bw(
    const QGemmArgs& a, int64_t g, int64_t j0, int32_t* acc) {
  __m512i c[kQMR][V];
  for (auto& row : c)
    for (auto& v : row) v = _mm512_setzero_si512();
  const int64_t w_ld = 2 * a.rows;
  const int16_t* wp = a.w + 2 * g;
  for (int64_t p = 0; p < a.pairs; ++p, wp += w_ld) {
    const int16_t* bp = a.b + (a.pair_off[p] + j0) * 2;
    __m512i b[V];
    for (int v = 0; v < V; ++v) b[v] = _mm512_loadu_si512(bp + 32 * v);
    for (int64_t i = 0; i < kQMR; ++i) {
      const __m512i w = _mm512_set1_epi32(LoadPair(wp + 2 * i));
      for (int v = 0; v < V; ++v) {
        c[i][v] = _mm512_add_epi32(c[i][v], _mm512_madd_epi16(w, b[v]));
      }
    }
  }
  for (int64_t i = 0; i < kQMR; ++i) {
    for (int v = 0; v < V; ++v) {
      _mm512_storeu_si512(acc + (g + i) * a.cols + j0 + 16 * v, c[i][v]);
    }
  }
}

// BlockAvx512Bw with the multiply-add and the add fused into vpdpwssd
// (the non-saturating form, so the int32 sums are the same).
template <int V>
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void BlockAvx512Vnni(
    const QGemmArgs& a, int64_t g, int64_t j0, int32_t* acc) {
  __m512i c[kQMR][V];
  for (auto& row : c)
    for (auto& v : row) v = _mm512_setzero_si512();
  const int64_t w_ld = 2 * a.rows;
  const int16_t* wp = a.w + 2 * g;
  for (int64_t p = 0; p < a.pairs; ++p, wp += w_ld) {
    const int16_t* bp = a.b + (a.pair_off[p] + j0) * 2;
    __m512i b[V];
    for (int v = 0; v < V; ++v) b[v] = _mm512_loadu_si512(bp + 32 * v);
    for (int64_t i = 0; i < kQMR; ++i) {
      const __m512i w = _mm512_set1_epi32(LoadPair(wp + 2 * i));
      for (int v = 0; v < V; ++v) {
        c[i][v] = _mm512_dpwssd_epi32(c[i][v], w, b[v]);
      }
    }
  }
  for (int64_t i = 0; i < kQMR; ++i) {
    for (int v = 0; v < V; ++v) {
      _mm512_storeu_si512(acc + (g + i) * a.cols + j0 + 16 * v, c[i][v]);
    }
  }
}

#endif  // HWP_QGEMM_X86

BlockTable<int32_t> Int32TableFor(QIsa isa) {
#if HWP_QGEMM_X86
  if (isa == QIsa::kAvx512Vnni) {
    return {4,
            {BlockAvx512Vnni<1>, BlockAvx512Vnni<2>, BlockAvx512Vnni<3>,
             BlockAvx512Vnni<4>}};
  }
  if (isa == QIsa::kAvx512Bw) {
    return {4,
            {BlockAvx512Bw<1>, BlockAvx512Bw<2>, BlockAvx512Bw<3>,
             BlockAvx512Bw<4>}};
  }
  if (isa == QIsa::kAvx2) return {1, {BlockAvx2}};
#endif
  (void)isa;
  return {1, {BlockPortable<int32_t>}};
}

QIsa WidestSupportedIsa() {
  for (QIsa isa : {QIsa::kAvx512Vnni, QIsa::kAvx512Bw, QIsa::kAvx2}) {
    if (QIsaSupported(isa)) return isa;
  }
  return QIsa::kPortable;
}

std::atomic<QIsa>& SelectedIsa() {
  static std::atomic<QIsa> isa{WidestSupportedIsa()};
  return isa;
}

constexpr int32_t kHalf = 1 << (Fixed16::kFractionBits - 1);

// The largest span of narrow rows QPostProcessPair runs as one row.
constexpr int64_t kFlatPairs = 256;

template <typename T>
int32_t Saturate(T v) {
  return static_cast<int32_t>(std::min<T>(
      std::max<T>(v, Fixed16::kRawMin), Fixed16::kRawMax));
}

// One element: FixedAccum::ToFixed16, then Fixed16's operator* (the
// Q14.16 product rounded back to Q7.8), operator+ with the shift and the
// shortcut, and the ReLU.
template <typename Acc>
int16_t PostProcess(Acc a, const QPostChannel& q, int32_t shortcut) {
  const int32_t v = Saturate((a + kHalf) >> Fixed16::kFractionBits);
  const int32_t prod =
      Saturate((v * q.scale + kHalf) >> Fixed16::kFractionBits);
  const int32_t sum = Saturate(Saturate(prod + q.shift) + shortcut);
  return static_cast<int16_t>(std::max(sum, q.relu_floor));
}

// One channel's block; shortcut and out step by 2 within a row.
template <typename Acc>
void PostProcessHalf(const Acc* acc, const QPostRows& g, const QPostChannel& q,
                     const int16_t* shortcut, int16_t* out) {
  for (int64_t i = 0; i < g.rows; ++i) {
    const Acc* a = acc + i * g.acc_pitch;
    const int16_t* sc =
        shortcut != nullptr ? shortcut + 2 * i * g.shortcut_pitch : nullptr;
    int16_t* o = out + 2 * i * g.out_pitch;
    for (int64_t c = 0; c < g.n; ++c) {
      o[2 * c] = PostProcess(a[c], q, sc != nullptr ? sc[2 * c] : 0);
    }
  }
}

template <typename Acc>
void PostProcessPairScalar(const Acc* acc0, const Acc* acc1,
                           const QPostRows& g, const QPostChannel& ch0,
                           const QPostChannel& ch1, const int16_t* shortcut,
                           int16_t* out) {
  PostProcessHalf(acc0, g, ch0, shortcut, out);
  PostProcessHalf(acc1, g, ch1, shortcut != nullptr ? shortcut + 1 : nullptr,
                  out + 1);
}

}  // namespace

void QGemmInt32(const QGemmArgs& args, int32_t* acc) {
  RunBlocks(args, Int32TableFor(ActiveQIsa()), acc);
}

void QGemmInt64(const QGemmArgs& args, int64_t* acc) {
  RunBlocks(args, BlockTable<int64_t>{1, {BlockPortable<int64_t>}}, acc);
}

void QPostProcessPair(const int32_t* acc0, const int32_t* acc1,
                      const QPostRows& g, const QPostChannel& ch0,
                      const QPostChannel& ch1, const int16_t* shortcut,
                      int16_t* out) {
  // Narrowing adds 128 in int32: |acc| <= 2³¹ - 32768, because the
  // proof's bound is a multiple of 32768 below 2³¹.
#if defined(__SSE2__)
  // Eight elements of each channel per step in baseline x86-64 SSE2,
  // whose int16 saturating pack and add are the unit's saturation: the
  // rounding shifts run in int32, the products are widened from
  // pmullw/pmulhw halves. The two channels are interleaved before the
  // shortcut add and the ReLU, which act per element. A row's last step
  // overlaps the one before rather than running a scalar tail (it
  // rewrites the same values). Rows narrower than a step run together
  // (see below), or each as one step on zero-padded copies.
  const __m128i half = _mm_set1_epi32(kHalf);
  const auto round = [&](__m128i x) {
    return _mm_srai_epi32(_mm_add_epi32(x, half), Fixed16::kFractionBits);
  };
  const __m128i s0 = _mm_set1_epi16(static_cast<int16_t>(ch0.scale));
  const __m128i s1 = _mm_set1_epi16(static_cast<int16_t>(ch1.scale));
  const __m128i t0 = _mm_set1_epi16(static_cast<int16_t>(ch0.shift));
  const __m128i t1 = _mm_set1_epi16(static_cast<int16_t>(ch1.shift));
  // Narrow, scale and shift eight accumulators of one channel.
  const auto affine = [&](const int32_t* acc, __m128i s, __m128i t) {
    const __m128i v = _mm_packs_epi32(
        round(_mm_loadu_si128(reinterpret_cast<const __m128i*>(acc))),
        round(_mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + 4))));
    const __m128i lo = _mm_mullo_epi16(v, s), hi = _mm_mulhi_epi16(v, s);
    return _mm_adds_epi16(
        _mm_packs_epi32(round(_mm_unpacklo_epi16(lo, hi)),
                        round(_mm_unpackhi_epi16(lo, hi))),
        t);
  };
  const __m128i floor = _mm_unpacklo_epi16(
      _mm_set1_epi16(static_cast<int16_t>(ch0.relu_floor)),
      _mm_set1_epi16(static_cast<int16_t>(ch1.relu_floor)));
  // Eight pairs: a0[0..8), a1[0..8) and sc[0..16) (or none) to o[0..16).
  const auto step = [&](const int32_t* a0, const int32_t* a1,
                        const int16_t* sc, int16_t* o) {
    const __m128i y0 = affine(a0, s0, t0), y1 = affine(a1, s1, t1);
    __m128i lo = _mm_unpacklo_epi16(y0, y1);
    __m128i hi = _mm_unpackhi_epi16(y0, y1);
    if (sc != nullptr) {
      const auto* s = reinterpret_cast<const __m128i*>(sc);
      lo = _mm_adds_epi16(lo, _mm_loadu_si128(s));
      hi = _mm_adds_epi16(hi, _mm_loadu_si128(s + 1));
    }
    auto* dst = reinterpret_cast<__m128i*>(o);
    _mm_storeu_si128(dst, _mm_max_epi16(lo, floor));
    _mm_storeu_si128(dst + 1, _mm_max_epi16(hi, floor));
  };
  // Steps over n >= 8 elements of a row.
  const auto run = [&](const int32_t* a0, const int32_t* a1,
                       const int16_t* sc, int16_t* o, int64_t n) {
    for (int64_t c = 0;; c += 8) {
      c = std::min(c, n - 8);
      step(a0 + c, a1 + c, sc != nullptr ? sc + 2 * c : nullptr, o + 2 * c);
      if (c + 8 >= n) break;
    }
  };
  const int64_t flat = (g.rows - 1) * g.acc_pitch + g.n;
  if (g.n < 8 && flat >= 8 && flat <= kFlatPairs) {
    // Rows narrower than a step: run the accumulators of all rows, gaps
    // included, as one row through pair-aligned copies of the shortcut
    // and output rows.
    int16_t flat_sc[2 * kFlatPairs] = {}, flat_out[2 * kFlatPairs];
    const auto copy_pairs = [&](const int16_t* from, int16_t* to) {
      std::copy(from, from + 2 * g.n, to);
    };
    for (int64_t i = 0; shortcut != nullptr && i < g.rows; ++i) {
      copy_pairs(shortcut + 2 * i * g.shortcut_pitch,
                 flat_sc + 2 * i * g.acc_pitch);
    }
    run(acc0, acc1, shortcut != nullptr ? flat_sc : nullptr, flat_out, flat);
    for (int64_t i = 0; i < g.rows; ++i) {
      copy_pairs(flat_out + 2 * i * g.acc_pitch, out + 2 * i * g.out_pitch);
    }
    return;
  }
  for (int64_t i = 0; i < g.rows; ++i) {
    const int32_t* a0 = acc0 + i * g.acc_pitch;
    const int32_t* a1 = acc1 + i * g.acc_pitch;
    const int16_t* sc =
        shortcut != nullptr ? shortcut + 2 * i * g.shortcut_pitch : nullptr;
    int16_t* o = out + 2 * i * g.out_pitch;
    if (g.n >= 8) {
      run(a0, a1, sc, o, g.n);
      continue;
    }
    // One step on zero-padded copies.
    int32_t p0[8] = {}, p1[8] = {};
    int16_t psc[16] = {}, po[16];
    std::copy(a0, a0 + g.n, p0);
    std::copy(a1, a1 + g.n, p1);
    if (sc != nullptr) std::copy(sc, sc + 2 * g.n, psc);
    step(p0, p1, sc != nullptr ? psc : nullptr, po);
    std::copy(po, po + 2 * g.n, o);
  }
#else
  PostProcessPairScalar(acc0, acc1, g, ch0, ch1, shortcut, out);
#endif
}

void QPostProcessPair(const int64_t* acc0, const int64_t* acc1,
                      const QPostRows& g, const QPostChannel& ch0,
                      const QPostChannel& ch1, const int16_t* shortcut,
                      int16_t* out) {
  PostProcessPairScalar(acc0, acc1, g, ch0, ch1, shortcut, out);
}

void QPostProcessHalf(const int32_t* acc, const QPostRows& g,
                      const QPostChannel& ch, const int16_t* shortcut,
                      int16_t* out) {
  PostProcessHalf(acc, g, ch, shortcut, out);
}

void QPostProcessHalf(const int64_t* acc, const QPostRows& g,
                      const QPostChannel& ch, const int16_t* shortcut,
                      int16_t* out) {
  PostProcessHalf(acc, g, ch, shortcut, out);
}

bool QIsaSupported(QIsa isa) {
#if HWP_QGEMM_X86
  __builtin_cpu_init();
#endif
  switch (isa) {
    case QIsa::kPortable:
      return true;
#if HWP_QGEMM_X86
    case QIsa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case QIsa::kAvx512Bw:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw");
    case QIsa::kAvx512Vnni:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vnni");
#endif
    default:
      return false;
  }
}

QIsa ActiveQIsa() { return SelectedIsa().load(std::memory_order_relaxed); }

void SetQIsa(QIsa isa) {
  HWP_CHECK_MSG(QIsaSupported(isa),
                "SetQIsa: " << QIsaName(isa) << " is not supported here");
  SelectedIsa().store(isa, std::memory_order_relaxed);
}

const char* QIsaName(QIsa isa) {
  switch (isa) {
    case QIsa::kAvx2:
      return "avx2";
    case QIsa::kAvx512Bw:
      return "avx512bw";
    case QIsa::kAvx512Vnni:
      return "avx512vnni";
    default:
      return "portable";
  }
}

}  // namespace hwp3d::kernels
