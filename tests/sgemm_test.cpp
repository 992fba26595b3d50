// SGEMM micro-kernel variants: every ISA this CPU supports must give the
// same bytes as the portable reference kernel, and the dispatched Sgemm
// must match a plain triple loop within float rounding. B read through
// offset tables (SgemmIndirect) and a prepacked A give Sgemm's bytes;
// the inner-product SgemmDot is bitwise the same on every ISA.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kernels/sgemm.h"

namespace hwp3d {
namespace {

using kernels::SgemmIsa;

struct Case {
  int64_t m, n, k;
};

// Partial micro-tiles (mr < 6, nr < 16), exact tiles, k across the KC
// block boundary, n across NC, and the benchmark model's largest shape.
const Case kCases[] = {
    {1, 1, 1},     {5, 13, 7},    {6, 16, 3},   {7, 17, 300},
    {18, 600, 72}, {13, 33, 513}, {4, 1030, 9}, {100, 40, 20},
};

std::vector<float> Random(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

// Restores the dispatched variant on scope exit.
class IsaOverride {
 public:
  explicit IsaOverride(SgemmIsa isa) : prev_(kernels::ActiveSgemmIsa()) {
    kernels::SetSgemmIsa(isa);
  }
  ~IsaOverride() { kernels::SetSgemmIsa(prev_); }

 private:
  SgemmIsa prev_;
};

// Operands are stored with leading dimensions 3 wider than needed and C
// starts non-zero, so strides, accumulation and the untouched padding
// columns are all checked.
struct Problem {
  bool ta, tb;
  Case s;
  int64_t lda, ldb, ldc;
  std::vector<float> a, b, c0;

  Problem(bool trans_a, bool trans_b, Case shape, Rng& rng)
      : ta(trans_a), tb(trans_b), s(shape) {
    lda = (ta ? s.m : s.k) + 3;
    ldb = (tb ? s.k : s.n) + 3;
    ldc = s.n + 3;
    a = Random(static_cast<size_t>((ta ? s.k : s.m) * lda), rng);
    b = Random(static_cast<size_t>((tb ? s.n : s.k) * ldb), rng);
    c0 = Random(static_cast<size_t>(s.m * ldc), rng);
  }

  std::vector<float> Run(SgemmIsa isa, bool accumulate) const {
    IsaOverride io(isa);
    std::vector<float> c = c0;
    kernels::Sgemm(ta, tb, s.m, s.n, s.k, a.data(), lda, b.data(), ldb,
                   c.data(), ldc, accumulate);
    return c;
  }

  std::string Name(bool accumulate) const {
    return "m=" + std::to_string(s.m) + " n=" + std::to_string(s.n) +
           " k=" + std::to_string(s.k) + (ta ? " At" : " A") +
           (tb ? " Bt" : " B") + (accumulate ? " +=" : " =");
  }
};

TEST(SgemmIsaTest, PortableIsAlwaysSupportedAndNamed) {
  EXPECT_TRUE(kernels::SgemmIsaSupported(SgemmIsa::kPortable));
  EXPECT_TRUE(kernels::SgemmIsaSupported(kernels::ActiveSgemmIsa()));
  EXPECT_STREQ(kernels::SgemmIsaName(SgemmIsa::kPortable), "portable");
  EXPECT_STREQ(kernels::SgemmIsaName(SgemmIsa::kAvx2), "avx2");
  EXPECT_STREQ(kernels::SgemmIsaName(SgemmIsa::kAvx512), "avx512f");
}

TEST(SgemmIsaTest, DispatchPicksWidestSupported) {
  SgemmIsa widest = SgemmIsa::kPortable;
  if (kernels::SgemmIsaSupported(SgemmIsa::kAvx2)) widest = SgemmIsa::kAvx2;
  if (kernels::SgemmIsaSupported(SgemmIsa::kAvx512)) {
    widest = SgemmIsa::kAvx512;
  }
  EXPECT_EQ(kernels::ActiveSgemmIsa(), widest);
}

TEST(SgemmIsaTest, EverySupportedVariantMatchesPortableBitwise) {
  int compared = 0;
  for (SgemmIsa isa : {SgemmIsa::kAvx2, SgemmIsa::kAvx512}) {
    if (!kernels::SgemmIsaSupported(isa)) continue;
    Rng rng(17);
    for (const Case& s : kCases) {
      for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
          const Problem p(ta, tb, s, rng);
          for (bool acc : {false, true}) {
            const std::vector<float> ref = p.Run(SgemmIsa::kPortable, acc);
            const std::vector<float> got = p.Run(isa, acc);
            ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << kernels::SgemmIsaName(isa) << " " << p.Name(acc);
            ++compared;
          }
        }
      }
    }
  }
  if (compared == 0) GTEST_SKIP() << "no vector variant on this CPU";
}

TEST(SgemmIsaTest, DispatchedMatchesNaiveLoops) {
  Rng rng(23);
  for (const Case& s : kCases) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        const Problem p(ta, tb, s, rng);
        const std::vector<float> got = p.Run(kernels::ActiveSgemmIsa(), true);
        for (int64_t i = 0; i < s.m; ++i) {
          for (int64_t j = 0; j < p.ldc; ++j) {
            double ref = p.c0[static_cast<size_t>(i * p.ldc + j)];
            if (j < s.n) {
              for (int64_t q = 0; q < s.k; ++q) {
                const float av = ta ? p.a[static_cast<size_t>(q * p.lda + i)]
                                    : p.a[static_cast<size_t>(i * p.lda + q)];
                const float bv = tb ? p.b[static_cast<size_t>(j * p.ldb + q)]
                                    : p.b[static_cast<size_t>(q * p.ldb + j)];
                ref += static_cast<double>(av) * bv;
              }
            }
            const float v = got[static_cast<size_t>(i * p.ldc + j)];
            ASSERT_NEAR(v, ref, 1e-4 * (1.0 + std::sqrt(s.k)))
                << p.Name(true) << " at (" << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

// B rows at scattered offsets (with gaps, out of order) and columns
// either contiguous or gathered at a stride: the same bytes as Sgemm on
// the same matrix laid out explicitly, for every ISA and both op(B).
TEST(SgemmIndirectTest, OffsetTablesMatchExplicitLayout) {
  Rng rng(31);
  for (const Case& s : kCases) {
    for (bool tb : {false, true}) {
      for (bool gather : {false, true}) {
        const int64_t rows = tb ? s.n : s.k, cols = tb ? s.k : s.n;
        const int64_t col_step = gather ? 3 : 1;
        const int64_t pitch = cols * col_step + 5;
        std::vector<float> store =
            Random(static_cast<size_t>(rows * pitch), rng);
        std::vector<int64_t> row_off(static_cast<size_t>(rows));
        std::vector<int64_t> col_off(static_cast<size_t>(cols));
        for (int64_t r = 0; r < rows; ++r) {
          row_off[static_cast<size_t>(r)] = (rows - 1 - r) * pitch + 2;
        }
        for (int64_t j = 0; j < cols; ++j) {
          col_off[static_cast<size_t>(j)] = j * col_step;
        }
        // The same B, explicit.
        std::vector<float> dense(static_cast<size_t>(rows * cols));
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t j = 0; j < cols; ++j) {
            dense[static_cast<size_t>(r * cols + j)] =
                store[static_cast<size_t>(row_off[static_cast<size_t>(r)] +
                                          col_off[static_cast<size_t>(j)])];
          }
        }
        const std::vector<float> a =
            Random(static_cast<size_t>(s.m * s.k), rng);
        const std::vector<float> c0 =
            Random(static_cast<size_t>(s.m * s.n), rng);
        for (SgemmIsa isa : {SgemmIsa::kPortable, SgemmIsa::kAvx2,
                             SgemmIsa::kAvx512}) {
          if (!kernels::SgemmIsaSupported(isa)) continue;
          IsaOverride io(isa);
          std::vector<float> ref = c0, got = c0;
          kernels::Sgemm(false, tb, s.m, s.n, s.k, a.data(), s.k, dense.data(),
                         cols, ref.data(), s.n, /*accumulate=*/true);
          kernels::SgemmIndirect(
              false, tb, s.m, s.n, s.k, a.data(), s.k,
              {store.data(), row_off.data(), gather ? col_off.data() : nullptr},
              got.data(), s.n, /*accumulate=*/true);
          ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                ref.size() * sizeof(float)),
                    0)
              << kernels::SgemmIsaName(isa) << " m=" << s.m << " n=" << s.n
              << " k=" << s.k << (tb ? " Bt" : " B")
              << (gather ? " gathered" : "");
          if (tb) continue;
          // A packed once gives the bytes of A packed per call.
          const kernels::PackedA packed(/*trans=*/false, s.m, s.k, a.data(),
                                        s.k);
          std::vector<float> pre = c0;
          kernels::SgemmIndirect(
              packed, s.n,
              {store.data(), row_off.data(), gather ? col_off.data() : nullptr},
              pre.data(), s.n, /*accumulate=*/true);
          ASSERT_EQ(std::memcmp(ref.data(), pre.data(),
                                ref.size() * sizeof(float)),
                    0)
              << "prepacked A, " << kernels::SgemmIsaName(isa) << " m=" << s.m
              << " n=" << s.n << " k=" << s.k;
        }
      }
    }
  }
}

// SgemmDot over `groups` column runs: A rows lda apart with a_step
// between groups, B rows at offsets with b_step between groups.
struct DotProblem {
  int64_t m, n, k, groups, lda, a_step, b_step;
  std::vector<float> a, b, c0;
  std::vector<int64_t> row_off;

  DotProblem(int64_t m_, int64_t n_, int64_t k_, int64_t groups_, Rng& rng)
      : m(m_), n(n_), k(k_), groups(groups_) {
    a_step = k + 3;
    lda = groups * a_step + 1;
    b_step = k + 7;
    a = Random(static_cast<size_t>(m * lda), rng);
    const int64_t pitch = groups * b_step + 2;
    b = Random(static_cast<size_t>(n * pitch), rng);
    for (int64_t r = 0; r < n; ++r) row_off.push_back((n - 1 - r) * pitch + 1);
    c0 = Random(static_cast<size_t>(m * n), rng);
  }

  std::vector<float> Run(SgemmIsa isa, bool accumulate) const {
    IsaOverride io(isa);
    std::vector<float> c = c0;
    kernels::SgemmDot(m, n, k, groups, a.data(), lda, a_step,
                      {b.data(), row_off.data()}, b_step, c.data(), n,
                      accumulate);
    return c;
  }
};

// Partial 4x4 blocks, k below, at and across the 16 lanes, several groups.
const Case kDotCases[] = {{1, 1, 1},  {3, 5, 7},   {4, 4, 16},
                          {5, 9, 33}, {18, 72, 118}, {14, 36, 600}};

TEST(SgemmDotTest, EverySupportedVariantMatchesPortableBitwise) {
  int compared = 0;
  Rng rng(41);
  for (const Case& s : kDotCases) {
    for (int64_t groups : {1, 3}) {
      const DotProblem p(s.m, s.n, s.k, groups, rng);
      for (bool acc : {false, true}) {
        const std::vector<float> ref = p.Run(SgemmIsa::kPortable, acc);
        for (SgemmIsa isa : {SgemmIsa::kAvx2, SgemmIsa::kAvx512}) {
          if (!kernels::SgemmIsaSupported(isa)) continue;
          const std::vector<float> got = p.Run(isa, acc);
          ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                ref.size() * sizeof(float)),
                    0)
              << kernels::SgemmIsaName(isa) << " m=" << s.m << " n=" << s.n
              << " k=" << s.k << " groups=" << groups;
          ++compared;
        }
      }
    }
  }
  if (compared == 0) GTEST_SKIP() << "no vector variant on this CPU";
}

TEST(SgemmDotTest, MatchesNaiveLoops) {
  Rng rng(43);
  for (const Case& s : kDotCases) {
    for (int64_t groups : {1, 3}) {
      const DotProblem p(s.m, s.n, s.k, groups, rng);
      const std::vector<float> got = p.Run(kernels::ActiveSgemmIsa(), true);
      for (int64_t i = 0; i < s.m; ++i) {
        for (int64_t j = 0; j < s.n; ++j) {
          double ref = p.c0[static_cast<size_t>(i * s.n + j)];
          for (int64_t g = 0; g < groups; ++g) {
            for (int64_t q = 0; q < s.k; ++q) {
              const float av =
                  p.a[static_cast<size_t>(i * p.lda + g * p.a_step + q)];
              const float bv =
                  p.b[static_cast<size_t>(p.row_off[static_cast<size_t>(j)] +
                                          g * p.b_step + q)];
              ref += static_cast<double>(av) * bv;
            }
          }
          ASSERT_NEAR(got[static_cast<size_t>(i * s.n + j)], ref,
                      1e-4 * (1.0 + std::sqrt(s.k * groups)))
              << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at (" << i
              << ", " << j << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace hwp3d
