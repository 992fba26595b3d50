#include <gtest/gtest.h>

#include <array>

#include "common/rng.h"
#include "core/projection.h"
#include "fpga/tiled_conv_sim.h"
#include "nn/conv3d.h"
#include "tensor/init.h"

namespace hwp3d {
namespace {

using fpga::PostOps;
using fpga::ReferenceConv3dFixed;
using fpga::TiledConvResult;
using fpga::TiledConvSim;
using fpga::Tiling;

TensorQ RandomQ(const Shape& shape, uint64_t seed, float lo = -1.0f,
                float hi = 1.0f) {
  Rng rng(seed);
  TensorF f(shape);
  FillUniform(f, rng, lo, hi);
  return Quantize(f);
}

bool BitIdentical(const TensorQ& a, const TensorQ& b) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (a[i].raw() != b[i].raw()) return false;
  }
  return true;
}

TEST(TiledConvSimTest, MatchesDenseReferenceBitExactly) {
  const TensorQ w = RandomQ(Shape{6, 5, 2, 3, 3}, 1);
  const TensorQ x = RandomQ(Shape{5, 4, 8, 8}, 2);
  TiledConvSim sim(Tiling{4, 2, 2, 3, 3}, {});
  const TiledConvResult r = sim.Run(w, x, {1, 1, 1}, nullptr, {});
  const TensorQ ref = ReferenceConv3dFixed(w, x, {1, 1, 1});
  EXPECT_TRUE(BitIdentical(r.output, ref));
}

TEST(TiledConvSimTest, MatchesReferenceWithStride) {
  const TensorQ w = RandomQ(Shape{4, 3, 1, 3, 3}, 3);
  const TensorQ x = RandomQ(Shape{3, 4, 9, 9}, 4);
  TiledConvSim sim(Tiling{2, 2, 2, 2, 2}, {});
  const TiledConvResult r = sim.Run(w, x, {1, 2, 2}, nullptr, {});
  const TensorQ ref = ReferenceConv3dFixed(w, x, {1, 2, 2});
  EXPECT_TRUE(BitIdentical(r.output, ref));
}

TEST(TiledConvSimTest, MaskedRunEqualsReferenceOnMaskedWeights) {
  // Skipping a block must equal convolving with that block zeroed.
  TensorF wf(Shape{8, 8, 1, 3, 3});
  Rng rng(5);
  FillUniform(wf, rng, -1.0f, 1.0f);
  core::BlockPartition part(wf.shape(), {4, 4});
  TensorF wf_pruned = wf;
  const core::ProjectionResult proj =
      core::ProjectToBlockSparse(wf_pruned, part, 0.5);

  const TensorQ w_full = Quantize(wf);
  const TensorQ w_pruned = Quantize(wf_pruned);
  const TensorQ x = RandomQ(Shape{8, 3, 6, 6}, 6);

  TiledConvSim sim(Tiling{4, 4, 2, 2, 2}, {});
  // Simulator with block-enable on the FULL weights...
  const TiledConvResult masked = sim.Run(w_full, x, {1, 1, 1}, &proj.mask, {});
  // ...equals the dense reference on the pruned weights.
  const TensorQ ref = ReferenceConv3dFixed(w_pruned, x, {1, 1, 1});
  EXPECT_TRUE(BitIdentical(masked.output, ref));
  // Per spatial tile, every disabled block is skipped exactly once.
  const int64_t spatial_tiles =
      masked.stats.tile_iterations / part.blocks_m();
  EXPECT_EQ(masked.stats.blocks_skipped,
            spatial_tiles * (part.num_blocks() - proj.mask.CountEnabled()));
  EXPECT_EQ(masked.stats.blocks_loaded,
            spatial_tiles * proj.mask.CountEnabled());
  EXPECT_GT(masked.stats.blocks_skipped, 0);
}

TEST(TiledConvSimTest, MatchesFloatConvApproximately) {
  // Quantized accelerator output tracks the float nn::Conv3d within the
  // accumulated quantization error budget.
  Rng rng(7);
  nn::Conv3dConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 4;
  cfg.kernel = {2, 3, 3};
  cfg.bias = false;
  nn::Conv3d conv(cfg, rng);

  TensorF x(Shape{1, 3, 4, 7, 7});
  FillUniform(x, rng, -1.0f, 1.0f);
  const TensorF y_float = conv.Forward(x, false);

  // Drop the batch dim for the accelerator.
  TensorF x4(Shape{3, 4, 7, 7});
  for (int64_t i = 0; i < x4.numel(); ++i) x4[i] = x[i];
  TiledConvSim sim(Tiling{4, 2, 2, 3, 3}, {});
  const TiledConvResult r =
      sim.Run(Quantize(conv.weight().value), Quantize(x4), {1, 1, 1},
              nullptr, {});
  for (int64_t i = 0; i < y_float.numel(); ++i) {
    EXPECT_NEAR(r.output[i].ToFloat(), y_float[i], 0.1f) << "at " << i;
  }
}

TEST(TiledConvSimTest, AffinePostOpApplied) {
  const TensorQ w = RandomQ(Shape{2, 2, 1, 1, 1}, 8);
  const TensorQ x = RandomQ(Shape{2, 2, 3, 3}, 9);
  PostOps post;
  post.has_affine = true;
  TensorF scale(Shape{2}, std::vector<float>{2.0f, 0.5f});
  TensorF shift(Shape{2}, std::vector<float>{1.0f, -1.0f});
  post.scale = Quantize(scale);
  post.shift = Quantize(shift);

  TiledConvSim sim(Tiling{2, 2, 2, 2, 2}, {});
  const TiledConvResult r = sim.Run(w, x, {1, 1, 1}, nullptr, post);
  const TensorQ plain = ReferenceConv3dFixed(w, x, {1, 1, 1});
  for (int64_t m = 0; m < 2; ++m)
    for (int64_t i = 0; i < 2 * 3 * 3; ++i) {
      const Fixed16 expected =
          plain[m * 18 + i] * post.scale[m] + post.shift[m];
      EXPECT_EQ(r.output[m * 18 + i].raw(), expected.raw());
    }
}

TEST(TiledConvSimTest, ReluClampsNegatives) {
  const TensorQ w = RandomQ(Shape{2, 2, 1, 1, 1}, 10);
  const TensorQ x = RandomQ(Shape{2, 2, 3, 3}, 11);
  PostOps post;
  post.relu = true;
  TiledConvSim sim(Tiling{2, 2, 1, 2, 2}, {});
  const TiledConvResult r = sim.Run(w, x, {1, 1, 1}, nullptr, post);
  for (int64_t i = 0; i < r.output.numel(); ++i) {
    EXPECT_GE(r.output[i].ToFloat(), 0.0f);
  }
}

TEST(TiledConvSimTest, ShortcutAddApplied) {
  const TensorQ w = RandomQ(Shape{2, 2, 1, 1, 1}, 12);
  const TensorQ x = RandomQ(Shape{2, 2, 3, 3}, 13);
  const TensorQ sc = RandomQ(Shape{2, 2, 3, 3}, 14);
  PostOps post;
  post.shortcut = &sc;
  TiledConvSim sim(Tiling{2, 2, 2, 3, 3}, {});
  const TiledConvResult r = sim.Run(w, x, {1, 1, 1}, nullptr, post);
  const TensorQ plain = ReferenceConv3dFixed(w, x, {1, 1, 1});
  for (int64_t i = 0; i < plain.numel(); ++i) {
    EXPECT_EQ(r.output[i].raw(), (plain[i] + sc[i]).raw());
  }
}

TEST(TiledConvSimTest, MacCountMatchesWorkload) {
  const TensorQ w = RandomQ(Shape{4, 4, 2, 2, 2}, 15);
  const TensorQ x = RandomQ(Shape{4, 4, 5, 5}, 16);
  TiledConvSim sim(Tiling{2, 2, 2, 2, 2}, {});
  const TiledConvResult r = sim.Run(w, x, {1, 1, 1}, nullptr, {});
  // MACs = M*N*Kd*Kr*Kc*D*R*C for dense execution.
  EXPECT_EQ(r.stats.macs_executed, 4 * 4 * 8 * (3 * 4 * 4));
  EXPECT_GT(r.stats.modeled_cycles, 0);
}

TEST(TiledConvSimTest, PadInputPlacesInterior) {
  TensorQ x(Shape{1, 1, 2, 2});
  x(0, 0, 0, 0) = Fixed16::FromFloat(1.0f);
  x(0, 0, 1, 1) = Fixed16::FromFloat(2.0f);
  const TensorQ p = fpga::PadInput(x, {1, 1, 1});
  EXPECT_EQ(p.shape(), (Shape{1, 3, 4, 4}));
  EXPECT_FLOAT_EQ(p(0, 1, 1, 1).ToFloat(), 1.0f);
  EXPECT_FLOAT_EQ(p(0, 1, 2, 2).ToFloat(), 2.0f);
  EXPECT_FLOAT_EQ(p(0, 0, 0, 0).ToFloat(), 0.0f);
}

TEST(TiledConvSimTest, MaxPoolFixed) {
  TensorQ x(Shape{1, 2, 2, 2});
  for (int64_t i = 0; i < 8; ++i)
    x[i] = Fixed16::FromFloat(static_cast<float>(i) - 4.0f);
  const TensorQ y = fpga::MaxPool3dFixed(x, {2, 2, 2}, {2, 2, 2});
  EXPECT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0].ToFloat(), 3.0f);
  // A window that does not fit its input pools nothing.
  EXPECT_EQ(fpga::PoolExtent({5, 7, 6}, {3, 2, 1}, {1, 2, 1}),
            (std::array<int64_t, 3>{3, 3, 6}));
  EXPECT_THROW(fpga::PoolExtent({1, 4, 4}, {2, 2, 2}, {2, 2, 2}), ShapeError);
  EXPECT_THROW(fpga::MaxPool3dFixed(x, {3, 2, 2}, {2, 2, 2}), ShapeError);
}

TEST(TiledConvSimTest, RejectsMismatchedShapes) {
  const TensorQ w = RandomQ(Shape{2, 3, 1, 1, 1}, 17);
  const TensorQ x = RandomQ(Shape{2, 2, 3, 3}, 18);  // wrong channels
  TiledConvSim sim(Tiling{2, 2, 2, 2, 2}, {});
  EXPECT_THROW(sim.Run(w, x, {1, 1, 1}, nullptr, {}), ShapeError);
}

// Property sweep: bit-exactness holds across tilings that do and do not
// divide the problem dimensions.
struct TileCase {
  int64_t Tm, Tn, Td, Tr, Tc;
};
class TilingSweep : public ::testing::TestWithParam<TileCase> {};

TEST_P(TilingSweep, BitExactAcrossTilings) {
  const TileCase t = GetParam();
  const TensorQ w = RandomQ(Shape{5, 7, 2, 2, 2}, 19);
  const TensorQ x = RandomQ(Shape{7, 5, 7, 9}, 20);
  TiledConvSim sim(Tiling{t.Tm, t.Tn, t.Td, t.Tr, t.Tc}, {});
  const TiledConvResult r = sim.Run(w, x, {1, 1, 1}, nullptr, {});
  const TensorQ ref = ReferenceConv3dFixed(w, x, {1, 1, 1});
  EXPECT_TRUE(BitIdentical(r.output, ref));
}

INSTANTIATE_TEST_SUITE_P(
    Tilings, TilingSweep,
    ::testing::Values(TileCase{1, 1, 1, 1, 1}, TileCase{2, 3, 2, 3, 2},
                      TileCase{5, 7, 4, 6, 8}, TileCase{8, 8, 8, 8, 8},
                      TileCase{3, 2, 1, 4, 3}, TileCase{4, 4, 2, 2, 2}));

}  // namespace
}  // namespace hwp3d
