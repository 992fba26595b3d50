#include "kernels/sgemm.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define HWP_SGEMM_X86 1
#include <immintrin.h>
#else
#define HWP_SGEMM_X86 0
#endif

#include "common/error.h"
#include "kernels/scratch.h"
#include "kernels/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwp3d::kernels {
namespace {

inline float OpElem(const float* a, int64_t lda, bool trans, int64_t r,
                    int64_t c) {
  return trans ? a[c * lda + r] : a[r * lda + c];
}

// Packs op(A)[ic:ic+mc, pc:pc+kc] into kMR-row micro-panels, each
// panel kc×kMR with the row index fastest, zero-padded to kMR rows.
void PackA(const float* a, int64_t lda, bool trans, int64_t ic, int64_t pc,
           int64_t mc, int64_t kc, float* ap) {
  for (int64_t i0 = 0; i0 < mc; i0 += kMR) {
    const int64_t mr = std::min(kMR, mc - i0);
    for (int64_t p = 0; p < kc; ++p) {
      float* dst = ap + p * kMR;
      for (int64_t i = 0; i < mr; ++i) {
        dst[i] = OpElem(a, lda, trans, ic + i0 + i, pc + p);
      }
      for (int64_t i = mr; i < kMR; ++i) dst[i] = 0.0f;
    }
    ap += kc * kMR;
  }
}

// Packs one micro-panel op(B)[pc:pc+kc, j0:j0+nr] into dst as kc×kNR
// with the column index fastest, zero-padded to kNR columns (stored
// element (r, j) of B as IndirectB defines it).
void PackBPanel(const IndirectB& b, bool trans, int64_t pc, int64_t j0,
                int64_t kc, int64_t nr, float* dst) {
  if (!trans) {
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = b.base + b.row_off[pc + p];
      float* row = dst + p * kNR;
      if (b.col_off == nullptr) {
        for (int64_t j = 0; j < nr; ++j) row[j] = src[j0 + j];
      } else {
        for (int64_t j = 0; j < nr; ++j) row[j] = src[b.col_off[j0 + j]];
      }
      for (int64_t j = nr; j < kNR; ++j) row[j] = 0.0f;
    }
    return;
  }
  // Column j of op(B) is stored row j0 + j: read it along its columns,
  // write it with stride kNR.
  for (int64_t j = 0; j < kNR; ++j) {
    if (j < nr) {
      const float* src = b.base + b.row_off[j0 + j];
      if (b.col_off == nullptr) {
        for (int64_t p = 0; p < kc; ++p) dst[p * kNR + j] = src[pc + p];
      } else {
        const int64_t* col = b.col_off + pc;
        for (int64_t p = 0; p < kc; ++p) dst[p * kNR + j] = src[col[p]];
      }
    } else {
      for (int64_t p = 0; p < kc; ++p) dst[p * kNR + j] = 0.0f;
    }
  }
}

// Row offsets of a packed panel: row p at p·kNR.
const int64_t* PackedRowOffsets() {
  static const auto table = [] {
    std::array<int64_t, kKC> t{};
    for (int64_t p = 0; p < kKC; ++p) t[static_cast<size_t>(p)] = p * kNR;
    return t;
  }();
  return table.data();
}

// Adds the accumulator block to the mr×nr corner of C, element by
// element in the same way for every variant.
void AddTile(const float (&acc)[kMR][kNR], float* c, int64_t ldc, int64_t mr,
             int64_t nr) {
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < nr; ++j) crow[j] += acc[i][j];
  }
}

// C[mr×nr] += Ap · Bp over kc, where row p of the B panel starts at
// bp + boff[p]: the reference variant. The p-loop body is a rank-1
// update with contiguous reads.
void MicroKernelPortable(int64_t kc, const float* ap, const float* bp,
                         const int64_t* boff, float* c, int64_t ldc,
                         int64_t mr, int64_t nr) {
  float acc[kMR][kNR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* av = ap + p * kMR;
    const float* bv = bp + boff[p];
    for (int64_t i = 0; i < kMR; ++i) {
      const float ai = av[i];
      for (int64_t j = 0; j < kNR; ++j) acc[i][j] += ai * bv[j];
    }
  }
  AddTile(acc, c, ldc, mr, nr);
}

#if HWP_SGEMM_X86

// One zmm register per micro-tile row: 6 accumulators, 1 B vector.
__attribute__((target("avx512f"))) void MicroKernelAvx512(
    int64_t kc, const float* ap, const float* bp, const int64_t* boff,
    float* c, int64_t ldc, int64_t mr, int64_t nr) {
  static_assert(kMR == 6 && kNR == 16, "register blocking assumes 6x16");
  __m512 c0 = _mm512_setzero_ps(), c1 = _mm512_setzero_ps();
  __m512 c2 = _mm512_setzero_ps(), c3 = _mm512_setzero_ps();
  __m512 c4 = _mm512_setzero_ps(), c5 = _mm512_setzero_ps();
  for (int64_t p = 0; p < kc; ++p) {
    const float* av = ap + p * kMR;
    const __m512 b = _mm512_loadu_ps(bp + boff[p]);
    c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(av[0]), b));
    c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(av[1]), b));
    c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(av[2]), b));
    c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(av[3]), b));
    c4 = _mm512_add_ps(c4, _mm512_mul_ps(_mm512_set1_ps(av[4]), b));
    c5 = _mm512_add_ps(c5, _mm512_mul_ps(_mm512_set1_ps(av[5]), b));
  }
  const __m512 rows[kMR] = {c0, c1, c2, c3, c4, c5};
  const __mmask16 mask = static_cast<__mmask16>((1u << nr) - 1u);
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const __m512 sum =
        _mm512_add_ps(_mm512_maskz_loadu_ps(mask, crow), rows[i]);
    _mm512_mask_storeu_ps(crow, mask, sum);
  }
}

// Two ymm registers per micro-tile row: 12 accumulators, 2 B vectors
// and one broadcast fill 15 of the 16 registers.
__attribute__((target("avx2"))) void MicroKernelAvx2(
    int64_t kc, const float* ap, const float* bp, const int64_t* boff,
    float* c, int64_t ldc, int64_t mr, int64_t nr) {
  static_assert(kMR == 6 && kNR == 16, "register blocking assumes 6x16");
  __m256 acc[kMR][2];
  for (int64_t i = 0; i < kMR; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* av = ap + p * kMR;
    const float* bv = bp + boff[p];
    const __m256 b0 = _mm256_loadu_ps(bv);
    const __m256 b1 = _mm256_loadu_ps(bv + 8);
    for (int64_t i = 0; i < kMR; ++i) {
      const __m256 a = _mm256_broadcast_ss(av + i);
      acc[i][0] = _mm256_add_ps(acc[i][0], _mm256_mul_ps(a, b0));
      acc[i][1] = _mm256_add_ps(acc[i][1], _mm256_mul_ps(a, b1));
    }
  }
  if (mr == kMR && nr == kNR) {
    for (int64_t i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[i][0]));
      _mm256_storeu_ps(crow + 8,
                       _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[i][1]));
    }
    return;
  }
  float tile[kMR][kNR];
  for (int64_t i = 0; i < kMR; ++i) {
    _mm256_storeu_ps(tile[i], acc[i][0]);
    _mm256_storeu_ps(tile[i] + 8, acc[i][1]);
  }
  AddTile(tile, c, ldc, mr, nr);
}

#endif  // HWP_SGEMM_X86

using MicroKernelFn = void (*)(int64_t, const float*, const float*,
                               const int64_t*, float*, int64_t, int64_t,
                               int64_t);

MicroKernelFn MicroKernelFor(SgemmIsa isa) {
#if HWP_SGEMM_X86
  if (isa == SgemmIsa::kAvx512) return MicroKernelAvx512;
  if (isa == SgemmIsa::kAvx2) return MicroKernelAvx2;
#endif
  (void)isa;
  return MicroKernelPortable;
}

SgemmIsa WidestSupportedIsa() {
  for (SgemmIsa isa : {SgemmIsa::kAvx512, SgemmIsa::kAvx2}) {
    if (SgemmIsaSupported(isa)) return isa;
  }
  return SgemmIsa::kPortable;
}

std::atomic<SgemmIsa>& SelectedIsa() {
  static std::atomic<SgemmIsa> isa{WidestSupportedIsa()};
  return isa;
}

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// ---- Inner-product kernels (SgemmDot) ----
//
// A block is kDotMB rows of A against kDotNB rows of B. Every C element
// keeps kDotLanes partial sums: lane l adds the products at column
// p ≡ l (mod kDotLanes), groups in order, and a lane past the last
// column adds +0·+0. ReduceLanes closes the lanes with one fixed tree.
constexpr int64_t kDotMB = 4;
constexpr int64_t kDotNB = 4;
constexpr int64_t kDotLanes = 16;

struct DotBlockArgs {
  int64_t k, groups;
  const float* a[kDotMB];  // group 0 rows; group g at + g·a_step
  int64_t a_step;
  const float* b[kDotNB];
  int64_t b_step;
};
using DotOut = float[kDotMB][kDotNB];

float ReduceLanes(const float* l) {
  float h8[8], h4[4], h2[2];
  for (int i = 0; i < 8; ++i) h8[i] = l[i] + l[i + 8];
  for (int i = 0; i < 4; ++i) h4[i] = h8[i] + h8[i + 4];
  for (int i = 0; i < 2; ++i) h2[i] = h4[i] + h4[i + 2];
  return h2[0] + h2[1];
}

void DotBlockPortable(const DotBlockArgs& x, DotOut& out) {
  float acc[kDotMB][kDotNB][kDotLanes] = {};
  for (int64_t g = 0; g < x.groups; ++g) {
    for (int64_t p0 = 0; p0 < x.k; p0 += kDotLanes) {
      for (int64_t l = 0; l < kDotLanes; ++l) {
        const int64_t p = p0 + l;
        for (int64_t i = 0; i < kDotMB; ++i) {
          const float av = p < x.k ? x.a[i][g * x.a_step + p] : 0.0f;
          for (int64_t j = 0; j < kDotNB; ++j) {
            const float bv = p < x.k ? x.b[j][g * x.b_step + p] : 0.0f;
            acc[i][j][l] += av * bv;
          }
        }
      }
    }
  }
  for (int64_t i = 0; i < kDotMB; ++i)
    for (int64_t j = 0; j < kDotNB; ++j) out[i][j] = ReduceLanes(acc[i][j]);
}

#if HWP_SGEMM_X86
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f"))) void DotBlockAvx512(const DotBlockArgs& x,
                                                       DotOut& out) {
  static_assert(kDotLanes == 16, "one zmm per C element");
  __m512 acc[kDotMB][kDotNB];
  for (auto& row : acc)
    for (__m512& v : row) v = _mm512_setzero_ps();
  for (int64_t g = 0; g < x.groups; ++g) {
    const float* a[kDotMB];
    const float* b[kDotNB];
    for (int64_t i = 0; i < kDotMB; ++i) a[i] = x.a[i] + g * x.a_step;
    for (int64_t j = 0; j < kDotNB; ++j) b[j] = x.b[j] + g * x.b_step;
    for (int64_t p = 0; p < x.k; p += kDotLanes) {
      const __mmask16 mask =
          x.k - p >= kDotLanes
              ? static_cast<__mmask16>(0xFFFF)
              : static_cast<__mmask16>((1u << (x.k - p)) - 1u);
      __m512 av[kDotMB];
      for (int64_t i = 0; i < kDotMB; ++i) {
        av[i] = _mm512_maskz_loadu_ps(mask, a[i] + p);
      }
      for (int64_t j = 0; j < kDotNB; ++j) {
        const __m512 bv = _mm512_maskz_loadu_ps(mask, b[j] + p);
        for (int64_t i = 0; i < kDotMB; ++i) {
          acc[i][j] = _mm512_add_ps(acc[i][j], _mm512_mul_ps(av[i], bv));
        }
      }
    }
  }
  // The ReduceLanes tree: halves, then quarters, then pairs.
  for (int64_t i = 0; i < kDotMB; ++i) {
    for (int64_t j = 0; j < kDotNB; ++j) {
      const __m512 v = acc[i][j];
      const __m256 s8 = _mm256_add_ps(
          _mm512_castps512_ps256(v),
          _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)));
      const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8),
                                   _mm256_extractf128_ps(s8, 1));
      const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
      out[i][j] = _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
    }
  }
}

// Lanes 0-7 and 8-15 of an element in two ymm registers; 2×2 elements
// at a time keep the 8 accumulators and the loads in 16 registers.
__attribute__((target("avx2"))) void DotBlockAvx2(const DotBlockArgs& x,
                                                  DotOut& out) {
  static_assert(kDotLanes == 16, "two ymm per C element");
  for (int64_t i0 = 0; i0 < kDotMB; i0 += 2) {
    for (int64_t j0 = 0; j0 < kDotNB; j0 += 2) {
      __m256 acc[2][2][2];
      for (auto& a2 : acc)
        for (auto& b2 : a2) b2[0] = b2[1] = _mm256_setzero_ps();
      for (int64_t g = 0; g < x.groups; ++g) {
        const float* a[2] = {x.a[i0] + g * x.a_step,
                             x.a[i0 + 1] + g * x.a_step};
        const float* b[2] = {x.b[j0] + g * x.b_step,
                             x.b[j0 + 1] + g * x.b_step};
        for (int64_t p = 0; p < x.k; p += kDotLanes) {
          __m256i mask[2];
          for (int h = 0; h < 2; ++h) {
            const int64_t left = x.k - p - 8 * h;
            const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            mask[h] = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(static_cast<int>(std::min<int64_t>(
                    std::max<int64_t>(left, 0), 8))),
                lane);
          }
          for (int h = 0; h < 2; ++h) {
            const __m256 a0 = _mm256_maskload_ps(a[0] + p + 8 * h, mask[h]);
            const __m256 a1 = _mm256_maskload_ps(a[1] + p + 8 * h, mask[h]);
            const __m256 b0 = _mm256_maskload_ps(b[0] + p + 8 * h, mask[h]);
            const __m256 b1 = _mm256_maskload_ps(b[1] + p + 8 * h, mask[h]);
            acc[0][0][h] = _mm256_add_ps(acc[0][0][h], _mm256_mul_ps(a0, b0));
            acc[0][1][h] = _mm256_add_ps(acc[0][1][h], _mm256_mul_ps(a0, b1));
            acc[1][0][h] = _mm256_add_ps(acc[1][0][h], _mm256_mul_ps(a1, b0));
            acc[1][1][h] = _mm256_add_ps(acc[1][1][h], _mm256_mul_ps(a1, b1));
          }
        }
      }
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
          const __m256 s8 = _mm256_add_ps(acc[i][j][0], acc[i][j][1]);
          const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8),
                                       _mm256_extractf128_ps(s8, 1));
          const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
          out[i0 + i][j0 + j] =
              _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
        }
      }
    }
  }
}

#pragma GCC diagnostic pop
#endif  // HWP_SGEMM_X86

using DotBlockFn = void (*)(const DotBlockArgs&, DotOut&);

DotBlockFn DotBlockFor(SgemmIsa isa) {
#if HWP_SGEMM_X86
  if (isa == SgemmIsa::kAvx512) return DotBlockAvx512;
  if (isa == SgemmIsa::kAvx2) return DotBlockAvx2;
#endif
  (void)isa;
  return DotBlockPortable;
}

}  // namespace

void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           const float* a, int64_t lda, const float* b, int64_t ldb,
           float* c, int64_t ldc, bool accumulate) {
  // A strided B is the offset table r·ldb over its stored rows.
  const int64_t rows = trans_b ? n : k;
  thread_local ScratchBuffer<int64_t> row_scratch;
  int64_t* row_off =
      row_scratch.Resize(static_cast<size_t>(std::max<int64_t>(rows, 1)));
  for (int64_t r = 0; r < rows; ++r) row_off[r] = r * ldb;
  SgemmIndirect(trans_a, trans_b, m, n, k, a, lda, {b, row_off, nullptr}, c,
                ldc, accumulate);
}

namespace {

// The blocked loop nest. a_block(ic, pc, mc, kc) returns the kMR-row
// micro-panels of op(A)[ic:ic+mc, pc:pc+kc], packed now or beforehand.
template <typename ABlock>
void GemmCore(bool trans_b, int64_t m, int64_t n, int64_t k,
              const ABlock& a_block, const IndirectB& b, float* c,
              int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate) {
    for (int64_t i = 0; i < m; ++i) {
      std::memset(c + i * ldc, 0, sizeof(float) * static_cast<size_t>(n));
    }
  }
  if (k <= 0) return;

  static obs::Counter& calls =
      obs::MetricsRegistry::Get().GetCounter("kernels.gemm.calls");
  static obs::Counter& flops =
      obs::MetricsRegistry::Get().GetCounter("kernels.gemm.flops");
  static obs::Counter& pack_us_total =
      obs::MetricsRegistry::Get().GetCounter("kernels.gemm.pack_us");
  static obs::Counter& compute_us_total =
      obs::MetricsRegistry::Get().GetCounter("kernels.gemm.compute_us");
  static obs::Histogram& gflops_hist =
      obs::MetricsRegistry::Get().GetHistogram("kernels.gemm.gflops");

  obs::TraceScope span("kernels/sgemm");
  if (span.active()) {
    span.AddArg("m", m);
    span.AddArg("n", n);
    span.AddArg("k", k);
  }
  const double t_start = obs::NowUs();
  double pack_us = 0.0;

  const MicroKernelFn micro_kernel = MicroKernelFor(ActiveSgemmIsa());
  thread_local ScratchBuffer<float> bpack;
  ThreadPool& pool = ThreadPool::Get();
  const int64_t* packed_rows = PackedRowOffsets();

  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    const int64_t njr = CeilDiv(nc, kNR);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      // A non-transposed B with contiguous columns is read in place: row
      // p of a full panel is kNR contiguous floats at its row's offset.
      // Only a partial last panel is packed (zero-padded). A transposed
      // or column-gathered B is packed in full.
      double t0 = obs::NowUs();
      const int64_t first_packed =
          trans_b || b.col_off != nullptr ? 0 : nc / kNR;
      float* bp =
          bpack.Resize(static_cast<size_t>((njr - first_packed) * kc * kNR));
      for (int64_t jr = first_packed; jr < njr; ++jr) {
        PackBPanel(b, trans_b, pc, jc + jr * kNR, kc,
                   std::min(kNR, nc - jr * kNR), bp + (jr - first_packed) * kc * kNR);
      }
      pack_us += obs::NowUs() - t0;
      for (int64_t ic = 0; ic < m; ic += kMC) {
        const int64_t mc = std::min(kMC, m - ic);
        t0 = obs::NowUs();
        const float* ap = a_block(ic, pc, mc, kc);
        pack_us += obs::NowUs() - t0;
        // Column micro-panels fan out across the pool; each task owns a
        // disjoint nr-wide strip of C, and the pc blocks accumulate in
        // caller order, so the result is thread-count independent.
        pool.For(0, njr, [&, ap, bp](int64_t jr) {
          const int64_t j0 = jr * kNR;
          const int64_t nr = std::min(kNR, nc - j0);
          const bool packed = jr >= first_packed;
          const float* bpanel = packed
                                    ? bp + (jr - first_packed) * kc * kNR
                                    : b.base + jc + j0;
          const int64_t* boff = packed ? packed_rows : b.row_off + pc;
          for (int64_t i0 = 0; i0 < mc; i0 += kMR) {
            micro_kernel(kc, ap + (i0 / kMR) * kc * kMR, bpanel, boff,
                         c + (ic + i0) * ldc + jc + j0, ldc,
                         std::min(kMR, mc - i0), nr);
          }
        });
      }
    }
  }

  const double total_us = obs::NowUs() - t_start;
  const int64_t flop = 2 * m * n * k;
  calls.Add(1);
  flops.Add(flop);
  pack_us_total.Add(static_cast<int64_t>(pack_us));
  compute_us_total.Add(static_cast<int64_t>(std::max(0.0, total_us - pack_us)));
  if (total_us > 0.0) {
    gflops_hist.Observe(static_cast<double>(flop) / (total_us * 1e3));
  }
  if (span.active()) {
    span.AddArg("gflops", total_us > 0.0
                              ? static_cast<double>(flop) / (total_us * 1e3)
                              : 0.0);
  }
}

}  // namespace

void SgemmIndirect(bool trans_a, bool trans_b, int64_t m, int64_t n,
                   int64_t k, const float* a, int64_t lda, const IndirectB& b,
                   float* c, int64_t ldc, bool accumulate) {
  thread_local ScratchBuffer<float> apack;
  const auto a_block = [&](int64_t ic, int64_t pc, int64_t mc, int64_t kc) {
    float* ap =
        apack.Resize(static_cast<size_t>(CeilDiv(mc, kMR) * kc * kMR));
    PackA(a, lda, trans_a, ic, pc, mc, kc, ap);
    return static_cast<const float*>(ap);
  };
  GemmCore(trans_b, m, n, k, a_block, b, c, ldc, accumulate);
}

PackedA::PackedA(bool trans, int64_t m, int64_t k, const float* a,
                 int64_t lda)
    : m_(m), k_(k), rows_(CeilDiv(m, kMR) * kMR) {
  data_.resize(static_cast<size_t>(rows_ * k));
  for (int64_t pc = 0; pc < k; pc += kKC) {
    PackA(a, lda, trans, 0, pc, m, std::min(kKC, k - pc),
          data_.data() + pc * rows_);
  }
}

const float* PackedA::Block(int64_t ic, int64_t pc) const {
  return data_.data() + pc * rows_ + ic / kMR * std::min(kKC, k_ - pc) * kMR;
}

void SgemmIndirect(const PackedA& a, int64_t n, const IndirectB& b,
                   float* c, int64_t ldc, bool accumulate) {
  const auto a_block = [&](int64_t ic, int64_t pc, int64_t, int64_t) {
    return a.Block(ic, pc);
  };
  GemmCore(/*trans_b=*/false, a.m(), n, a.k(), a_block, b, c, ldc,
           accumulate);
}

void SgemmDot(int64_t m, int64_t n, int64_t k, int64_t groups,
              const float* a, int64_t lda, int64_t a_step, const IndirectB& b,
              int64_t b_step, float* c, int64_t ldc, bool accumulate) {
  HWP_CHECK_MSG(b.col_off == nullptr, "SgemmDot reads B rows in place");
  if (m <= 0 || n <= 0) return;
  static obs::Counter& calls =
      obs::MetricsRegistry::Get().GetCounter("kernels.gemm.calls");
  static obs::Counter& flops =
      obs::MetricsRegistry::Get().GetCounter("kernels.gemm.flops");
  static obs::Counter& compute_us_total =
      obs::MetricsRegistry::Get().GetCounter("kernels.gemm.compute_us");
  const double t_start = obs::NowUs();
  const DotBlockFn block = DotBlockFor(ActiveSgemmIsa());
  const int64_t mb = CeilDiv(m, kDotMB);
  const int64_t nb = CeilDiv(n, kDotNB);
  // One task per C block; a short last block repeats its last row,
  // whose results are dropped.
  ThreadPool::Get().For(0, mb * nb, [&](int64_t t) {
    const int64_t i0 = t / nb * kDotMB, j0 = t % nb * kDotNB;
    const int64_t mr = std::min(kDotMB, m - i0), nr = std::min(kDotNB, n - j0);
    DotBlockArgs x{};
    x.k = k;
    x.groups = groups;
    x.a_step = a_step;
    x.b_step = b_step;
    for (int64_t i = 0; i < kDotMB; ++i) {
      x.a[i] = a + (i0 + std::min(i, mr - 1)) * lda;
    }
    for (int64_t j = 0; j < kDotNB; ++j) {
      x.b[j] = b.base + b.row_off[j0 + std::min(j, nr - 1)];
    }
    DotOut out;
    block(x, out);
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = c + (i0 + i) * ldc + j0;
      for (int64_t j = 0; j < nr; ++j) {
        crow[j] = accumulate ? crow[j] + out[i][j] : out[i][j];
      }
    }
  });
  calls.Add(1);
  flops.Add(2 * m * n * k * groups);
  compute_us_total.Add(static_cast<int64_t>(obs::NowUs() - t_start));
}

bool SgemmIsaSupported(SgemmIsa isa) {
#if HWP_SGEMM_X86
  __builtin_cpu_init();
#endif
  switch (isa) {
    case SgemmIsa::kPortable:
      return true;
#if HWP_SGEMM_X86
    case SgemmIsa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case SgemmIsa::kAvx512:
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

SgemmIsa ActiveSgemmIsa() {
  return SelectedIsa().load(std::memory_order_relaxed);
}

void SetSgemmIsa(SgemmIsa isa) {
  HWP_CHECK_MSG(SgemmIsaSupported(isa), "SetSgemmIsa: "
                                            << SgemmIsaName(isa)
                                            << " is not supported here");
  SelectedIsa().store(isa, std::memory_order_relaxed);
}

const char* SgemmIsaName(SgemmIsa isa) {
  switch (isa) {
    case SgemmIsa::kAvx2:
      return "avx2";
    case SgemmIsa::kAvx512:
      return "avx512f";
    default:
      return "portable";
  }
}

}  // namespace hwp3d::kernels
