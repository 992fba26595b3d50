// SGEMM micro-kernel variants: every ISA this CPU supports must give the
// same bytes as the portable reference kernel, and the dispatched Sgemm
// must match a plain triple loop within float rounding.
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

}  // namespace
}  // namespace hwp3d
