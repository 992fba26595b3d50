#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/admm.h"
#include "core/block_partition.h"
#include "models/tiny_r2plus1d.h"
#include "tensor/init.h"
#include "tensor/tensor_ops.h"

namespace hwp3d {
namespace {

using core::BlockConfig;
using core::BlockMask;
using core::BlockPartition;

TEST(BlockPartitionTest, GridCounts) {
  BlockPartition p(Shape{64, 32, 3, 3, 3}, {16, 8});
  EXPECT_EQ(p.blocks_m(), 4);
  EXPECT_EQ(p.blocks_n(), 4);
  EXPECT_EQ(p.num_blocks(), 16);
}

TEST(BlockPartitionTest, EdgeBlocksWithNonDividingTiles) {
  // The paper's conv2_x spatial layer: M=144 with Tm=64 -> 3 row groups
  // of 64, 64, 16 channels.
  BlockPartition p(Shape{144, 64, 1, 3, 3}, {64, 8});
  EXPECT_EQ(p.blocks_m(), 3);
  EXPECT_EQ(p.blocks_n(), 8);
  EXPECT_EQ(p.m_end(0) - p.m_begin(0), 64);
  EXPECT_EQ(p.m_end(2) - p.m_begin(2), 16);  // partial edge block
  EXPECT_EQ(p.BlockParams(0, 0), 64 * 8 * 9);
  EXPECT_EQ(p.BlockParams(2, 0), 16 * 8 * 9);
}

TEST(BlockPartitionTest, BlockParamsSumToTensor) {
  BlockPartition p(Shape{30, 17, 2, 3, 3}, {8, 4});
  int64_t total = 0;
  for (int64_t bm = 0; bm < p.blocks_m(); ++bm)
    for (int64_t bn = 0; bn < p.blocks_n(); ++bn)
      total += p.BlockParams(bm, bn);
  EXPECT_EQ(total, 30 * 17 * 2 * 3 * 3);
}

TEST(BlockPartitionTest, SqNormsMatchManualSum) {
  Rng rng(1);
  TensorF w(Shape{4, 4, 1, 2, 2});
  FillUniform(w, rng, -1.0f, 1.0f);
  BlockPartition p(w.shape(), {2, 2});
  const auto norms = p.BlockSqNorms(w);
  ASSERT_EQ(norms.size(), 4u);
  // Manual: block (0,0) covers m in {0,1}, n in {0,1}.
  double expect = 0.0;
  for (int64_t m = 0; m < 2; ++m)
    for (int64_t n = 0; n < 2; ++n)
      for (int64_t kr = 0; kr < 2; ++kr)
        for (int64_t kc = 0; kc < 2; ++kc) {
          const double v = w(m, n, 0, kr, kc);
          expect += v * v;
        }
  EXPECT_NEAR(norms[0], expect, 1e-6);
}

TEST(BlockPartitionTest, SqNormsTotalEqualsFrobenius) {
  Rng rng(2);
  TensorF w(Shape{10, 7, 2, 2, 2});
  FillNormal(w, rng, 0.0f, 1.0f);
  BlockPartition p(w.shape(), {4, 3});
  const auto norms = p.BlockSqNorms(w);
  double total = 0.0;
  for (double n : norms) total += n;
  const double fro = FrobeniusNorm(w);
  EXPECT_NEAR(total, fro * fro, 1e-3);
}

TEST(BlockPartitionTest, ApplyMaskZeroesOnlyDisabled) {
  TensorF w(Shape{4, 4, 1, 1, 1}, 1.0f);
  BlockPartition p(w.shape(), {2, 2});
  BlockMask mask = p.FullMask();
  mask.set(0, 1, false);  // m in {0,1}, n in {2,3}
  p.ApplyMask(w, mask);
  EXPECT_FLOAT_EQ(w(0, 2, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(w(1, 3, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(w(0, 0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(w(2, 2, 0, 0, 0), 1.0f);
  EXPECT_EQ(CountZeros(w), 4);
}

TEST(BlockPartitionTest, EnabledParamsAccountsForEdgeBlocks) {
  BlockPartition p(Shape{10, 6, 1, 1, 1}, {4, 4});
  BlockMask mask = p.FullMask();
  EXPECT_EQ(p.EnabledParams(mask), 60);
  mask.set(2, 1, false);  // edge block: 2 rows x 2 cols
  EXPECT_EQ(p.EnabledParams(mask), 60 - 4);
  mask.set(0, 0, false);  // full block: 4x4
  EXPECT_EQ(p.EnabledParams(mask), 60 - 4 - 16);
}

TEST(BlockPartitionTest, ZeroBlockMaskDisablesOnlyAllZeroBlocks) {
  // 10x6 channels under 4x4 tiles: a 3x2 grid whose last row and column
  // are partial edge blocks.
  TensorF w(Shape{10, 6, 1, 2, 2}, 0.0f);
  BlockPartition p(w.shape(), {4, 4});
  // One nonzero weight in each of (0,0), the row-edge block (2,0) and
  // the corner block (2,1); (0,1), (1,0) and (1,1) stay all-zero.
  w(3, 0, 0, 1, 1) = 0.5f;
  w(9, 2, 0, 0, 0) = -1e-30f;
  w(8, 5, 0, 1, 0) = 2.0f;
  const BlockMask mask = p.ZeroBlockMask(w);
  ASSERT_EQ(mask.blocks_m, 3);
  ASSERT_EQ(mask.blocks_n, 2);
  EXPECT_TRUE(mask.at(0, 0));
  EXPECT_FALSE(mask.at(0, 1));
  EXPECT_FALSE(mask.at(1, 0));
  EXPECT_FALSE(mask.at(1, 1));
  EXPECT_TRUE(mask.at(2, 0));
  EXPECT_TRUE(mask.at(2, 1));

  // A tensor with no zero keeps every block.
  Rng rng(3);
  FillUniform(w, rng, 0.5f, 1.0f);
  EXPECT_EQ(p.ZeroBlockMask(w), p.FullMask());
}

TEST(BlockPartitionTest, ZeroBlockMaskRecoversHardPruneMasks) {
  Rng rng(4);
  models::TinyR2Plus1d model({.in_channels = 1,
                              .num_classes = 4,
                              .stem_channels = 4,
                              .stage1_channels = 8,
                              .stage2_channels = 8},
                             rng);
  const BlockConfig block{4, 4};
  std::vector<core::PruneLayerSpec> specs;
  for (nn::Conv3d* c : model.PrunableConvs()) {
    specs.push_back({&c->weight(), block, 0.5, c->name()});
  }
  core::AdmmPruner pruner(specs, core::AdmmConfig{});
  pruner.HardPrune();
  const std::vector<nn::Conv3d*> convs = model.PrunableConvs();
  ASSERT_EQ(convs.size(), pruner.masks().size());
  int64_t disabled = 0;
  for (size_t i = 0; i < convs.size(); ++i) {
    const TensorF& w = convs[i]->weight().value;
    const BlockMask derived = BlockPartition(w.shape(), block).ZeroBlockMask(w);
    EXPECT_EQ(derived, pruner.masks()[i]) << convs[i]->name();
    disabled += derived.num_blocks() - derived.CountEnabled();
  }
  EXPECT_GT(disabled, 0);
}

TEST(BlockMaskTest, RowCounting) {
  BlockPartition p(Shape{8, 8, 1, 1, 1}, {4, 2});
  BlockMask mask = p.FullMask();
  EXPECT_EQ(mask.CountEnabledInRow(0), 4);
  mask.set(0, 1, false);
  mask.set(0, 3, false);
  EXPECT_EQ(mask.CountEnabledInRow(0), 2);
  EXPECT_EQ(mask.CountEnabledInRow(1), 4);
  EXPECT_EQ(mask.CountEnabled(), 6);
}

TEST(BlockPartitionTest, RejectsWrongRank) {
  EXPECT_THROW(BlockPartition(Shape{4, 4}, {2, 2}), ShapeError);
}

TEST(BlockPartitionTest, RejectsShapeMismatchOnUse) {
  BlockPartition p(Shape{4, 4, 1, 1, 1}, {2, 2});
  TensorF wrong(Shape{4, 4, 1, 1, 2});
  EXPECT_THROW(p.BlockSqNorms(wrong), ShapeError);
}

TEST(BlockPartitionTest, RejectsBadTiles) {
  EXPECT_THROW(BlockPartition(Shape{4, 4, 1, 1, 1}, {0, 2}), Error);
}

// Property sweep: for arbitrary (M, N, Tm, Tn), block geometry is
// consistent — grids cover the tensor exactly, no overlap, no gap.
struct GridCase {
  int64_t M, N, Tm, Tn;
};
class GridSweep : public ::testing::TestWithParam<GridCase> {};

TEST_P(GridSweep, CoversExactly) {
  const GridCase g = GetParam();
  BlockPartition p(Shape{g.M, g.N, 1, 1, 1}, {g.Tm, g.Tn});
  EXPECT_EQ(p.blocks_m(), (g.M + g.Tm - 1) / g.Tm);
  EXPECT_EQ(p.blocks_n(), (g.N + g.Tn - 1) / g.Tn);
  int64_t covered = 0;
  for (int64_t bm = 0; bm < p.blocks_m(); ++bm) {
    EXPECT_LE(p.m_end(bm), g.M);
    EXPECT_LT(p.m_begin(bm), p.m_end(bm));
    for (int64_t bn = 0; bn < p.blocks_n(); ++bn)
      covered += p.BlockParams(bm, bn);
  }
  EXPECT_EQ(covered, g.M * g.N);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, GridSweep,
    ::testing::Values(GridCase{64, 64, 64, 8}, GridCase{144, 64, 64, 8},
                      GridCase{45, 3, 64, 8}, GridCase{230, 64, 64, 16},
                      GridCase{1152, 512, 64, 16}, GridCase{1, 1, 64, 8},
                      GridCase{65, 9, 64, 8}, GridCase{128, 128, 32, 32}));

}  // namespace
}  // namespace hwp3d
