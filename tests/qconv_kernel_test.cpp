// The int16 conv kernels of the fast executor: every QGemmInt32 variant
// this CPU supports must give the int64 reference's sums, the int32
// exactness proof must hold at its boundary, and PackedConvLayer must be
// bitwise equal to TiledConvSim on every supported ISA — on partial
// tiles, odd slot counts, strides, fully pruned rows, channels the
// proof sends to int64, and with the zero halo folded into the gather
// (PackedConvLayer on the unpadded input == TiledConvSim on PadInput).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.h"
#include "fpga/compiled_executor.h"
#include "fpga/tiled_conv_sim.h"
#include "kernels/qgemm_tile.h"
#include "testing/qtensor.h"

namespace hwp3d {
namespace {

using fpga::PackedConvLayer;
using fpga::PostOps;
using fpga::TiledConvSim;
using kernels::QIsa;
using testing::ExpectBitwiseEqual;
using testing::RandomMask;
using testing::RandomQ;

std::vector<QIsa> SupportedIsas() {
  std::vector<QIsa> isas;
  for (QIsa isa : {QIsa::kPortable, QIsa::kAvx2, QIsa::kAvx512Bw,
                   QIsa::kAvx512Vnni}) {
    if (kernels::QIsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

// Restores the dispatched variant on scope exit.
class IsaOverride {
 public:
  explicit IsaOverride(QIsa isa) : prev_(kernels::ActiveQIsa()) {
    kernels::SetQIsa(isa);
  }
  ~IsaOverride() { kernels::SetQIsa(prev_); }

 private:
  QIsa prev_;
};

// A FixedAccum holding `raw`, built from int16 products as the
// simulator builds it: raw = q1·32767² + q2·32767 + r.
FixedAccum AccumOf(int64_t raw) {
  constexpr int64_t kU = Fixed16::kRawMax;
  const int64_t q = raw / kU, r = raw % kU;
  const int64_t q1 = q / kU, q2 = q % kU;
  FixedAccum a;
  const Fixed16 u = Fixed16::FromRaw(Fixed16::kRawMax);
  for (int64_t i = 0; i < (q1 < 0 ? -q1 : q1); ++i) {
    a.MulAdd(Fixed16::FromRaw(q1 < 0 ? -Fixed16::kRawMax : Fixed16::kRawMax),
             u);
  }
  a.MulAdd(Fixed16::FromRaw(static_cast<int16_t>(q2)), u);
  a.MulAdd(Fixed16::FromRaw(static_cast<int16_t>(r)), Fixed16::FromRaw(1));
  EXPECT_EQ(a.raw(), raw);
  return a;
}

// --- micro-kernels -----------------------------------------------------

TEST(QGemmTest, EveryIsaMatchesInt64Reference) {
  // 8 rows (two register blocks); 16..80 columns cover every AVX-512
  // block width (1..4 granules) and a remainder; segment lists cover no
  // segment (a fully pruned row), one, and several with gaps.
  Rng rng(3);
  const int64_t rows = 8, panel_pairs = 40;
  const std::vector<std::vector<kernels::QSegment>> seg_lists = {
      {}, {{0, 40}}, {{0, 1}}, {{3, 5}, {10, 1}, {20, 17}}};
  for (int64_t cols : {16, 32, 48, 64, 80}) {
    std::vector<int16_t> panel(static_cast<size_t>(panel_pairs * cols * 2));
    for (int16_t& v : panel) {
      v = static_cast<int16_t>(rng.UniformInt(-32768, 32767));
    }
    for (const auto& segs : seg_lists) {
      int64_t pairs = 0;
      for (const auto& s : segs) pairs += s.count;
      // |w| <= 64 over at most 80 slots keeps Σ|w|·32768 < 2³¹.
      std::vector<int16_t> w(static_cast<size_t>(pairs * rows * 2));
      for (int16_t& v : w) v = static_cast<int16_t>(rng.UniformInt(-64, 64));
      const kernels::QGemmArgs args{w.data(), rows, segs.data(),
                                    static_cast<int64_t>(segs.size()),
                                    panel.data(), cols};
      std::vector<int64_t> want(static_cast<size_t>(rows * cols), -1);
      kernels::QGemmInt64(args, want.data());
      for (QIsa isa : SupportedIsas()) {
        SCOPED_TRACE(::testing::Message()
                     << kernels::QIsaName(isa) << " cols=" << cols
                     << " segs=" << segs.size());
        IsaOverride use(isa);
        std::vector<int32_t> got(static_cast<size_t>(rows * cols), -1);
        kernels::QGemmInt32(args, got.data());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(static_cast<int64_t>(got[i]), want[i]) << "acc " << i;
        }
      }
    }
  }
}

TEST(QGemmTest, Int32ProofBoundary) {
  constexpr int64_t kTwo31 = int64_t{1} << 31;
  EXPECT_TRUE(kernels::Int32AccumIsExact(kTwo31 - 1));
  EXPECT_FALSE(kernels::Int32AccumIsExact(kTwo31));
  // In weights: Σ|w| = 65535 bounds the sums by 2³¹ - 32768; 65536
  // reaches 2³¹ (two -32768 weights against -32768 inputs overflow a
  // single vpmaddwd lane).
  EXPECT_TRUE(kernels::Int32AccumIsExact(kernels::Int32AccumBound(65535)));
  EXPECT_FALSE(kernels::Int32AccumIsExact(kernels::Int32AccumBound(65536)));
}

TEST(QGemmTest, PostProcessMatchesFixedArithmetic) {
  // Every saturation edge of the unit: sums that narrow past ±128, an
  // affine that saturates, a shortcut that saturates, ReLU on and off,
  // on rows long and short enough for the vector and scalar paths.
  Rng rng(9);
  for (int64_t n : {3, 8, 13, 128}) {
    std::vector<int32_t> acc32(static_cast<size_t>(n));
    std::vector<int64_t> acc64(static_cast<size_t>(n));
    std::vector<Fixed16> shortcut(static_cast<size_t>(n));
    for (int64_t c = 0; c < n; ++c) {
      // Magnitudes inside Q7.8 after narrowing, just past it, and at the
      // proof's limit 2³¹ - 32768.
      const int64_t mag =
          std::array<int64_t, 3>{int64_t{1} << 22, int64_t{1} << 24,
                                 (int64_t{1} << 31) - 32768}[c % 3];
      acc32[c] = static_cast<int32_t>(rng.UniformInt(-mag, mag));
      acc64[c] = acc32[c];
      shortcut[c] = Fixed16::FromRaw(
          static_cast<int16_t>(rng.UniformInt(-32768, 32767)));
    }
    // (scale, shift): none, a mild affine, one that saturates.
    const std::array<std::array<float, 2>, 3> affines = {
        {{0.0f, 0.0f}, {0.75f, -0.3f}, {-3.7f, 100.5f}}};
    for (size_t ai = 0; ai < affines.size(); ++ai) {
      for (bool relu : {false, true}) {
        for (bool with_shortcut : {false, true}) {
          const bool affine = ai > 0;
          const Fixed16 scale = Fixed16::FromFloat(affines[ai][0]);
          const Fixed16 shift = Fixed16::FromFloat(affines[ai][1]);
          const Fixed16* sc = with_shortcut ? shortcut.data() : nullptr;
          std::vector<Fixed16> got32(static_cast<size_t>(n));
          std::vector<Fixed16> got64(static_cast<size_t>(n));
          kernels::QPostProcessRow(acc32.data(), n, affine, scale, shift, sc,
                                   relu, got32.data());
          kernels::QPostProcessRow(acc64.data(), n, affine, scale, shift, sc,
                                   relu, got64.data());
          for (int64_t c = 0; c < n; ++c) {
            Fixed16 v = AccumOf(acc64[c]).ToFixed16();
            if (affine) v = v * scale + shift;
            if (sc != nullptr) v = v + sc[c];
            if (relu && v < Fixed16{}) v = Fixed16{};
            ASSERT_EQ(got32[c].raw(), v.raw())
                << "n=" << n << " c=" << c << " affine " << ai;
            ASSERT_EQ(got64[c].raw(), v.raw()) << "n=" << n << " c=" << c;
          }
        }
      }
    }
  }
}

// --- layer parity on every ISA ----------------------------------------

struct LayerCase {
  int64_t M, N, Di, Ri, Ci;
  int64_t Kd, Kr, Kc;
  std::array<int64_t, 3> stride;
  std::array<int64_t, 3> padding;
  fpga::Tiling tiling;
  double keep_prob;  // < 0 = dense (no mask)
};

// Runs the layer on both engines with random weights/inputs/mask and
// full post-ops (affine + shortcut + relu) on every supported ISA. The
// fast path gets the unpadded input, the simulator PadInput of it.
void CheckParity(const LayerCase& lc, uint64_t seed,
                 const core::BlockMask* fixed_mask = nullptr,
                 const TensorQ* fixed_weights = nullptr,
                 const TensorQ* fixed_input = nullptr) {
  SCOPED_TRACE(::testing::Message()
               << "M=" << lc.M << " N=" << lc.N << " K=" << lc.Kd << "x"
               << lc.Kr << "x" << lc.Kc << " keep=" << lc.keep_prob
               << " tiling=" << lc.tiling.ToString());
  Rng rng(seed);
  const TensorQ weights =
      fixed_weights != nullptr
          ? *fixed_weights
          : RandomQ(Shape{lc.M, lc.N, lc.Kd, lc.Kr, lc.Kc}, rng);
  const TensorQ input = fixed_input != nullptr
                            ? *fixed_input
                            : RandomQ(Shape{lc.N, lc.Di, lc.Ri, lc.Ci}, rng);
  const TensorQ padded = fpga::PadInput(input, lc.padding);
  const int64_t D = (padded.dim(1) - lc.Kd) / lc.stride[0] + 1;
  const int64_t R = (padded.dim(2) - lc.Kr) / lc.stride[1] + 1;
  const int64_t C = (padded.dim(3) - lc.Kc) / lc.stride[2] + 1;
  const TensorQ shortcut = RandomQ(Shape{lc.M, D, R, C}, rng, -1.0, 1.0);

  PostOps post;
  post.has_affine = true;
  post.scale = RandomQ(Shape{lc.M}, rng, 0.5, 1.5);
  post.shift = RandomQ(Shape{lc.M}, rng, -0.5, 0.5);
  post.shortcut = &shortcut;
  post.relu = true;

  core::BlockMask mask;
  const core::BlockMask* use_mask = fixed_mask;
  if (use_mask == nullptr && lc.keep_prob >= 0.0) {
    mask = RandomMask(CeilDiv(lc.M, lc.tiling.Tm), CeilDiv(lc.N, lc.tiling.Tn),
                      lc.keep_prob, rng);
    use_mask = &mask;
  }

  const fpga::Ports ports;
  const TiledConvSim sim(lc.tiling, ports);
  const auto want = sim.Run(weights, padded, lc.stride, use_mask, post);
  const PackedConvLayer packed(weights, lc.tiling, ports, use_mask);
  for (QIsa isa : SupportedIsas()) {
    SCOPED_TRACE(kernels::QIsaName(isa));
    IsaOverride use(isa);
    const auto got = packed.Run(input, lc.stride, lc.padding, post);
    ExpectBitwiseEqual(want.output, got.output);
    EXPECT_EQ(want.stats.macs_executed, got.stats.macs_executed);
    EXPECT_EQ(want.stats.modeled_cycles, got.stats.modeled_cycles);
    EXPECT_EQ(want.stats.blocks_skipped, got.stats.blocks_skipped);
  }
}

TEST(QConvLayerTest, PartialTilesAndOddSlotCounts) {
  // Tm = Tn = 3 on 10 x 7 channels: partial edge blocks of 1 output and
  // 1 input channel; 3 x 9 = 27 and 1 x 9 = 9 slots per tile are odd, so
  // each tile's last pair is padded by a zero weight.
  CheckParity({.M = 10, .N = 7, .Di = 3, .Ri = 6, .Ci = 7, .Kd = 1, .Kr = 3,
               .Kc = 3, .stride = {1, 1, 1}, .padding = {0, 0, 0},
               .tiling = {3, 3, 2, 4, 4}, .keep_prob = -1.0},
              1);
  CheckParity({.M = 10, .N = 7, .Di = 3, .Ri = 6, .Ci = 7, .Kd = 1, .Kr = 3,
               .Kc = 3, .stride = {1, 1, 1}, .padding = {0, 1, 1},
               .tiling = {3, 3, 2, 4, 4}, .keep_prob = 0.6},
              2);
}

TEST(QConvLayerTest, StrideTwoAndNarrowRows) {
  // Output rows of 5 and 3 columns: neither is a multiple of any vector
  // width, and a task's columns span several rows.
  CheckParity({.M = 9, .N = 6, .Di = 5, .Ri = 9, .Ci = 11, .Kd = 3, .Kr = 3,
               .Kc = 3, .stride = {2, 2, 2}, .padding = {0, 0, 0},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = 0.7},
              3);
  CheckParity({.M = 8, .N = 8, .Di = 4, .Ri = 6, .Ci = 6, .Kd = 1, .Kr = 1,
               .Kc = 1, .stride = {2, 2, 2}, .padding = {0, 0, 0},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              4);
}

TEST(QConvLayerTest, FullyPrunedRowsAndColumns) {
  // Block row 0 fully pruned (only the post-ops run), input block 1 read
  // by no surviving tile (not gathered at all), and a gap between the
  // surviving blocks of row 2 (two segments).
  core::BlockMask mask;
  mask.blocks_m = 3;
  mask.blocks_n = 3;
  mask.enabled = {0, 0, 0,  //
                  1, 0, 0,  //
                  1, 0, 1};
  CheckParity({.M = 12, .N = 12, .Di = 3, .Ri = 8, .Ci = 8, .Kd = 3, .Kr = 1,
               .Kc = 1, .stride = {1, 1, 1}, .padding = {1, 0, 0},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = 0.0},
              5, &mask);
}

TEST(QConvLayerTest, UnprovenChannelRunsInt64) {
  // Channel 0 holds weights at +127.996 (raw 32767) and channel 1
  // alternates ±127.996 against inputs of -128 (raw -32768): their sums
  // leave int32, the proof fails, and their block (channels 0-3) runs in
  // int64 while block 1 keeps int32.
  const int64_t M = 8, N = 4;
  Rng rng(6);
  TensorQ weights = RandomQ(Shape{M, N, 1, 3, 3}, rng, -0.25, 0.25);
  for (int64_t i = 0; i < N * 9; ++i) {
    weights[i] = Fixed16::FromRaw(Fixed16::kRawMax);
    weights[N * 9 + i] =
        Fixed16::FromRaw(i % 2 == 0 ? Fixed16::kRawMax : -Fixed16::kRawMax);
  }
  TensorQ input(Shape{N, 2, 5, 5}, Fixed16::FromRaw(Fixed16::kRawMin));
  for (int64_t i = 0; i < input.numel(); i += 3) {
    input[i] = Fixed16::FromRaw(
        static_cast<int16_t>(rng.UniformInt(-32768, 32767)));
  }
  const fpga::Tiling tiling{4, 4, 2, 4, 4};
  const PackedConvLayer packed(weights, tiling, fpga::Ports{}, nullptr);
  EXPECT_DOUBLE_EQ(packed.int32_exact_frac(), 0.5);
  CheckParity({.M = M, .N = N, .Di = 2, .Ri = 5, .Ci = 5, .Kd = 1, .Kr = 3,
               .Kc = 3, .stride = {1, 1, 1}, .padding = {0, 1, 1},
               .tiling = tiling, .keep_prob = -1.0},
              7, nullptr, &weights, &input);
}

TEST(QConvLayerTest, ProvenLayerRunsInt32Everywhere) {
  Rng rng(8);
  const TensorQ weights = RandomQ(Shape{10, 7, 1, 3, 3}, rng);
  const PackedConvLayer packed(weights, {4, 4, 2, 4, 4}, fpga::Ports{},
                               nullptr);
  EXPECT_DOUBLE_EQ(packed.int32_exact_frac(), 1.0);
}

// --- halo fold ---------------------------------------------------------

TEST(QConvHaloTest, ModelPaddings) {
  // The (2+1)D convs: spatial 1x3x3 with (0,1,1), temporal 3x1x1 with
  // (1,0,0).
  CheckParity({.M = 8, .N = 8, .Di = 4, .Ri = 16, .Ci = 16, .Kd = 1, .Kr = 3,
               .Kc = 3, .stride = {1, 1, 1}, .padding = {0, 1, 1},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              11);
  CheckParity({.M = 8, .N = 8, .Di = 4, .Ri = 16, .Ci = 16, .Kd = 3, .Kr = 1,
               .Kc = 1, .stride = {1, 1, 1}, .padding = {1, 0, 0},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              12);
  // The stride-2 pair of the second residual stage.
  CheckParity({.M = 12, .N = 8, .Di = 4, .Ri = 10, .Ci = 10, .Kd = 1,
               .Kr = 3, .Kc = 3, .stride = {1, 2, 2}, .padding = {0, 1, 1},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = 0.5},
              13);
  CheckParity({.M = 8, .N = 12, .Di = 4, .Ri = 5, .Ci = 5, .Kd = 3, .Kr = 1,
               .Kc = 1, .stride = {2, 1, 1}, .padding = {1, 0, 0},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = 0.5},
              14);
}

TEST(QConvHaloTest, AllSidesAndStrideTwo) {
  CheckParity({.M = 6, .N = 5, .Di = 4, .Ri = 7, .Ci = 9, .Kd = 3, .Kr = 3,
               .Kc = 3, .stride = {1, 1, 1}, .padding = {1, 1, 1},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              21);
  CheckParity({.M = 6, .N = 5, .Di = 5, .Ri = 7, .Ci = 9, .Kd = 3, .Kr = 3,
               .Kc = 3, .stride = {2, 2, 2}, .padding = {1, 1, 1},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = 0.7},
              22);
}

TEST(QConvHaloTest, KernelWiderThanUnpaddedEdge) {
  // A 3x5x5 kernel over a 1x3x2 input with padding (1,2,2): every tap
  // row, column and depth of some output lies in the halo, and some
  // outputs read no input at all.
  CheckParity({.M = 5, .N = 3, .Di = 1, .Ri = 3, .Ci = 2, .Kd = 3, .Kr = 5,
               .Kc = 5, .stride = {1, 1, 1}, .padding = {1, 2, 2},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              31);
  CheckParity({.M = 5, .N = 3, .Di = 2, .Ri = 4, .Ci = 3, .Kd = 1, .Kr = 5,
               .Kc = 5, .stride = {1, 2, 2}, .padding = {0, 2, 2},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              32);
}

}  // namespace
}  // namespace hwp3d
