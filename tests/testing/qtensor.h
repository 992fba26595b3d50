// Random Q7.8 operands and bitwise comparison for the fixed-point
// executor tests (compiled_executor_test, qconv_kernel_test).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "core/block_partition.h"
#include "fixed/quantize.h"

namespace hwp3d::testing {

inline TensorQ RandomQ(const Shape& shape, Rng& rng, double lo = -2.0,
                       double hi = 2.0) {
  TensorF f(shape);
  for (int64_t i = 0; i < f.numel(); ++i) {
    f[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return Quantize(f);
}

inline core::BlockMask RandomMask(int64_t blocks_m, int64_t blocks_n,
                                  double keep_prob, Rng& rng) {
  core::BlockMask mask;
  mask.blocks_m = blocks_m;
  mask.blocks_n = blocks_n;
  mask.enabled.assign(static_cast<size_t>(blocks_m * blocks_n), 0);
  for (int64_t bm = 0; bm < blocks_m; ++bm)
    for (int64_t bn = 0; bn < blocks_n; ++bn)
      mask.set(bm, bn, rng.Flip(keep_prob));
  return mask;
}

inline void ExpectBitwiseEqual(const TensorQ& a, const TensorQ& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i].raw(), b[i].raw()) << "element " << i;
  }
}

}  // namespace hwp3d::testing
