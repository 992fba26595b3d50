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
  for (int64_t s = 0; s < a.num_segs; ++s) {
    const int16_t* bp = a.panel + (a.segs[s].first * a.cols + j0) * 2;
    for (int64_t p = 0; p < a.segs[s].count;
         ++p, wp += w_ld, bp += 2 * a.cols) {
      for (int64_t i = 0; i < kQMR; ++i) {
        const Acc w0 = wp[2 * i], w1 = wp[2 * i + 1];
        for (int64_t j = 0; j < kQNR; ++j) {
          c[i][j] += w0 * bp[2 * j] + w1 * bp[2 * j + 1];
        }
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
  for (int64_t s = 0; s < a.num_segs; ++s) {
    const int16_t* bp = a.panel + (a.segs[s].first * a.cols + j0) * 2;
    for (int64_t p = 0; p < a.segs[s].count;
         ++p, wp += w_ld, bp += 2 * a.cols) {
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
  for (int64_t s = 0; s < a.num_segs; ++s) {
    const int16_t* bp = a.panel + (a.segs[s].first * a.cols + j0) * 2;
    for (int64_t p = 0; p < a.segs[s].count;
         ++p, wp += w_ld, bp += 2 * a.cols) {
      __m512i b[V];
      for (int v = 0; v < V; ++v) b[v] = _mm512_loadu_si512(bp + 32 * v);
      for (int64_t i = 0; i < kQMR; ++i) {
        const __m512i w = _mm512_set1_epi32(LoadPair(wp + 2 * i));
        for (int v = 0; v < V; ++v) {
          c[i][v] = _mm512_add_epi32(c[i][v], _mm512_madd_epi16(w, b[v]));
        }
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
  for (int64_t s = 0; s < a.num_segs; ++s) {
    const int16_t* bp = a.panel + (a.segs[s].first * a.cols + j0) * 2;
    for (int64_t p = 0; p < a.segs[s].count;
         ++p, wp += w_ld, bp += 2 * a.cols) {
      __m512i b[V];
      for (int v = 0; v < V; ++v) b[v] = _mm512_loadu_si512(bp + 32 * v);
      for (int64_t i = 0; i < kQMR; ++i) {
        const __m512i w = _mm512_set1_epi32(LoadPair(wp + 2 * i));
        for (int v = 0; v < V; ++v) {
          c[i][v] = _mm512_dpwssd_epi32(c[i][v], w, b[v]);
        }
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

template <typename T>
int32_t Saturate(T v) {
  return static_cast<int32_t>(std::min<T>(
      std::max<T>(v, Fixed16::kRawMin), Fixed16::kRawMax));
}

// The post-processing unit's parameters for one output channel. Without
// an affine the unit's multiply by 1.0 (raw 256) and add of 0 are exact,
// as is adding a zero shortcut, so every row takes one branch-free path.
struct PostParams {
  int32_t scale, shift, relu_floor;
  PostParams(bool has_affine, Fixed16 s, Fixed16 t, bool relu)
      : scale(has_affine ? s.raw() : Fixed16::kScale),
        shift(has_affine ? t.raw() : 0),
        relu_floor(relu ? 0 : Fixed16::kRawMin) {}
};

// One element: FixedAccum::ToFixed16, then Fixed16's operator* (the
// Q14.16 product rounded back to Q7.8), operator+ with the shift and the
// shortcut, and the ReLU.
template <typename Acc>
Fixed16 PostProcess(Acc a, const PostParams& q, int32_t shortcut) {
  const int32_t v = Saturate((a + kHalf) >> Fixed16::kFractionBits);
  const int32_t prod =
      Saturate((v * q.scale + kHalf) >> Fixed16::kFractionBits);
  const int32_t sum = Saturate(Saturate(prod + q.shift) + shortcut);
  return Fixed16::FromRaw(static_cast<int16_t>(std::max(sum, q.relu_floor)));
}

template <typename Acc>
void PostProcessRange(const Acc* acc, int64_t n, const PostParams& q,
                      const Fixed16* shortcut, Fixed16* out) {
  for (int64_t c = 0; c < n; ++c) {
    out[c] = PostProcess(acc[c], q, shortcut != nullptr ? shortcut[c].raw()
                                                        : 0);
  }
}

}  // namespace

void QGemmInt32(const QGemmArgs& args, int32_t* acc) {
  RunBlocks(args, Int32TableFor(ActiveQIsa()), acc);
}

void QGemmInt64(const QGemmArgs& args, int64_t* acc) {
  RunBlocks(args, BlockTable<int64_t>{1, {BlockPortable<int64_t>}}, acc);
}

void QPostProcessRow(const int32_t* acc, int64_t n, bool has_affine,
                     Fixed16 scale, Fixed16 shift, const Fixed16* shortcut,
                     bool relu, Fixed16* out) {
  // Narrowing adds 128 in int32: |acc| <= 2³¹ - 32768, because the
  // proof's bound is a multiple of 32768 below 2³¹.
  const PostParams q(has_affine, scale, shift, relu);
#if defined(__SSE2__)
  // Eight elements per step in baseline x86-64 SSE2, whose int16
  // saturating pack and add are the unit's saturation: the rounding
  // shifts run in int32, the products are widened from pmullw/pmulhw
  // halves. The last step overlaps the one before rather than running a
  // scalar tail (it rewrites the same values).
  if (n >= 8) {
    const __m128i half = _mm_set1_epi32(kHalf);
    const __m128i s = _mm_set1_epi16(static_cast<int16_t>(q.scale));
    const __m128i t = _mm_set1_epi16(static_cast<int16_t>(q.shift));
    const __m128i floor = _mm_set1_epi16(static_cast<int16_t>(q.relu_floor));
    const auto round = [&](__m128i x) {
      return _mm_srai_epi32(_mm_add_epi32(x, half), Fixed16::kFractionBits);
    };
    for (int64_t c = 0;; c += 8) {
      c = std::min(c, n - 8);
      const __m128i v = _mm_packs_epi32(
          round(_mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + c))),
          round(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(acc + c + 4))));
      const __m128i lo = _mm_mullo_epi16(v, s), hi = _mm_mulhi_epi16(v, s);
      __m128i y = _mm_packs_epi32(round(_mm_unpacklo_epi16(lo, hi)),
                                  round(_mm_unpackhi_epi16(lo, hi)));
      y = _mm_adds_epi16(y, t);
      if (shortcut != nullptr) {
        y = _mm_adds_epi16(y, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                  shortcut + c)));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + c),
                       _mm_max_epi16(y, floor));
      if (c + 8 >= n) return;
    }
  }
#endif
  PostProcessRange(acc, n, q, shortcut, out);
}

void QPostProcessRow(const int64_t* acc, int64_t n, bool has_affine,
                     Fixed16 scale, Fixed16 shift, const Fixed16* shortcut,
                     bool relu, Fixed16* out) {
  PostProcessRange(acc, n, PostParams(has_affine, scale, shift, relu),
                   shortcut, out);
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
