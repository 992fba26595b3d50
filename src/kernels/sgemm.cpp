#include "kernels/sgemm.h"

#include <algorithm>
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
// with the column index fastest, zero-padded to kNR columns.
void PackBPanel(const float* b, int64_t ldb, bool trans, int64_t pc,
                int64_t j0, int64_t kc, int64_t nr, float* dst) {
  if (!trans) {
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = b + (pc + p) * ldb + j0;
      float* row = dst + p * kNR;
      for (int64_t j = 0; j < nr; ++j) row[j] = src[j];
      for (int64_t j = nr; j < kNR; ++j) row[j] = 0.0f;
    }
    return;
  }
  // Column j of op(B) is row j0 + j of the stored B: read it
  // contiguously, write it with stride kNR.
  for (int64_t j = 0; j < kNR; ++j) {
    if (j < nr) {
      const float* src = b + (j0 + j) * ldb + pc;
      for (int64_t p = 0; p < kc; ++p) dst[p * kNR + j] = src[p];
    } else {
      for (int64_t p = 0; p < kc; ++p) dst[p * kNR + j] = 0.0f;
    }
  }
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
// bp + p·ldbp: the reference variant. The p-loop body is a rank-1
// update with contiguous reads.
void MicroKernelPortable(int64_t kc, const float* ap, const float* bp,
                         int64_t ldbp, float* c, int64_t ldc, int64_t mr,
                         int64_t nr) {
  float acc[kMR][kNR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* av = ap + p * kMR;
    const float* bv = bp + p * ldbp;
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
    int64_t kc, const float* ap, const float* bp, int64_t ldbp, float* c,
    int64_t ldc, int64_t mr, int64_t nr) {
  static_assert(kMR == 6 && kNR == 16, "register blocking assumes 6x16");
  __m512 c0 = _mm512_setzero_ps(), c1 = _mm512_setzero_ps();
  __m512 c2 = _mm512_setzero_ps(), c3 = _mm512_setzero_ps();
  __m512 c4 = _mm512_setzero_ps(), c5 = _mm512_setzero_ps();
  for (int64_t p = 0; p < kc; ++p) {
    const float* av = ap + p * kMR;
    const __m512 b = _mm512_loadu_ps(bp + p * ldbp);
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
    int64_t kc, const float* ap, const float* bp, int64_t ldbp, float* c,
    int64_t ldc, int64_t mr, int64_t nr) {
  static_assert(kMR == 6 && kNR == 16, "register blocking assumes 6x16");
  __m256 acc[kMR][2];
  for (int64_t i = 0; i < kMR; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* av = ap + p * kMR;
    const __m256 b0 = _mm256_loadu_ps(bp + p * ldbp);
    const __m256 b1 = _mm256_loadu_ps(bp + p * ldbp + 8);
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

using MicroKernelFn = void (*)(int64_t, const float*, const float*, int64_t,
                               float*, int64_t, int64_t, int64_t);

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

}  // namespace

void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           const float* a, int64_t lda, const float* b, int64_t ldb,
           float* c, int64_t ldc, bool accumulate) {
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
  thread_local ScratchBuffer<float> apack;
  ThreadPool& pool = ThreadPool::Get();

  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    const int64_t njr = CeilDiv(nc, kNR);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      // A non-transposed B is read in place: row p of a full panel is
      // kNR contiguous floats of B row pc + p. Only a partial last panel
      // is packed (zero-padded). A transposed B is packed in full.
      double t0 = obs::NowUs();
      const int64_t first_packed = trans_b ? 0 : nc / kNR;
      float* bp =
          bpack.Resize(static_cast<size_t>((njr - first_packed) * kc * kNR));
      for (int64_t jr = first_packed; jr < njr; ++jr) {
        PackBPanel(b, ldb, trans_b, pc, jc + jr * kNR, kc,
                   std::min(kNR, nc - jr * kNR),
                   bp + (jr - first_packed) * kc * kNR);
      }
      pack_us += obs::NowUs() - t0;
      for (int64_t ic = 0; ic < m; ic += kMC) {
        const int64_t mc = std::min(kMC, m - ic);
        t0 = obs::NowUs();
        float* ap =
            apack.Resize(static_cast<size_t>(CeilDiv(mc, kMR) * kc * kMR));
        PackA(a, lda, trans_a, ic, pc, mc, kc, ap);
        pack_us += obs::NowUs() - t0;
        // Column micro-panels fan out across the pool; each task owns a
        // disjoint nr-wide strip of C, and the pc blocks accumulate in
        // caller order, so the result is thread-count independent.
        pool.For(0, njr, [&, ap, bp](int64_t jr) {
          const int64_t j0 = jr * kNR;
          const int64_t nr = std::min(kNR, nc - j0);
          const bool packed = jr >= first_packed;
          const float* bpanel =
              packed ? bp + (jr - first_packed) * kc * kNR
                     : b + pc * ldb + jc + j0;
          const int64_t ldbp = packed ? kNR : ldb;
          for (int64_t i0 = 0; i0 < mc; i0 += kMR) {
            micro_kernel(kc, ap + (i0 / kMR) * kc * kMR, bpanel, ldbp,
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
