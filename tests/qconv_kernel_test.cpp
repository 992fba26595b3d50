// The int16 conv kernels of the fast executor: every QGemmInt32 variant
// this CPU supports must give the int64 reference's sums, the int32
// exactness proof must hold at its boundary, the post-processing unit
// must match the fixed-point arithmetic, and PackedConvLayer must be
// bitwise equal to TiledConvSim on every supported ISA — on partial
// tiles, odd slot and channel counts, pairs an odd Tn splits, strides
// (depth strides read in place, column strides gathered), fully pruned
// rows, channels the proof sends to int64, every halo shape, and the
// halo-padded activation layout (PackedConvLayer on the unpadded input,
// and its engine on wider halos, == TiledConvSim on PadInput).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/rng.h"
#include "fpga/compiled_executor.h"
#include "fpga/tiled_conv_sim.h"
#include "kernels/qgemm_tile.h"
#include "testing/dense_run.h"
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
using testing::RunDense;

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
  // block width (1..4 granules) and a remainder. Pair offset lists cover
  // no pair (a fully pruned row), panel rows in order, one pair, and
  // in-place reads: rows at any pair offset, overlapping and repeated.
  Rng rng(3);
  const int64_t rows = 8, panel_pairs = 40;
  for (int64_t cols : {16, 32, 48, 64, 80}) {
    std::vector<int16_t> b(static_cast<size_t>((panel_pairs + 1) * cols * 2));
    for (int16_t& v : b) {
      v = static_cast<int16_t>(rng.UniformInt(-32768, 32767));
    }
    std::vector<int64_t> in_order;
    for (int64_t p = 0; p < panel_pairs; ++p) in_order.push_back(p * cols);
    const std::vector<std::vector<int64_t>> off_lists = {
        {}, in_order, {0}, {3, 17, 5 * cols + 1, 1, 3, 10 * cols + 7, cols - 1,
                            panel_pairs * cols}};
    for (const auto& offs : off_lists) {
      const int64_t pairs = static_cast<int64_t>(offs.size());
      // |w| <= 64 over at most 80 slots keeps Σ|w|·32768 < 2³¹.
      std::vector<int16_t> w(static_cast<size_t>(pairs * rows * 2));
      for (int16_t& v : w) v = static_cast<int16_t>(rng.UniformInt(-64, 64));
      const kernels::QGemmArgs args{w.data(), rows, offs.data(), pairs,
                                    b.data(), cols};
      std::vector<int64_t> want(static_cast<size_t>(rows * cols), -1);
      kernels::QGemmInt64(args, want.data());
      for (QIsa isa : SupportedIsas()) {
        SCOPED_TRACE(::testing::Message()
                     << kernels::QIsaName(isa) << " cols=" << cols
                     << " pairs=" << pairs);
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
  // on rows long and short enough for the vector and scalar paths, for
  // a channel pair (two different channels interleaved) and for one
  // channel of a pair (the other half left as it was), on one row and
  // on blocks of rows whose accumulators, shortcut and output each have
  // their own row pitch (rows narrower than a vector step run together).
  Rng rng(9);
  constexpr int16_t kUntouched = 12345;
  for (const auto [rows, n] : std::vector<std::array<int64_t, 2>>{
           {1, 3}, {3, 3}, {3, 8}, {3, 13}, {3, 128}}) {
    const kernels::QPostRows g{.rows = rows, .n = n, .acc_pitch = n + 5,
                               .shortcut_pitch = n + 1, .out_pitch = n + 2};
    const int64_t acc_len = g.rows * g.acc_pitch;
    std::vector<int32_t> acc32(static_cast<size_t>(2 * acc_len));
    std::vector<int64_t> acc64(acc32.size());
    std::vector<int16_t> shortcut(static_cast<size_t>(2 * g.rows * (n + 1)));
    for (size_t c = 0; c < acc32.size(); ++c) {
      // Magnitudes inside Q7.8 after narrowing, just past it, and at the
      // proof's limit 2³¹ - 32768.
      const int64_t mag =
          std::array<int64_t, 3>{int64_t{1} << 22, int64_t{1} << 24,
                                 (int64_t{1} << 31) - 32768}[c % 3];
      acc32[c] = static_cast<int32_t>(rng.UniformInt(-mag, mag));
      acc64[c] = acc32[c];
    }
    for (int16_t& v : shortcut) {
      v = static_cast<int16_t>(rng.UniformInt(-32768, 32767));
    }
    // (scale, shift): none, a mild affine, one that saturates.
    const std::array<std::array<float, 2>, 3> affines = {
        {{0.0f, 0.0f}, {0.75f, -0.3f}, {-3.7f, 100.5f}}};
    for (size_t ai = 0; ai < affines.size(); ++ai) {
      for (bool relu : {false, true}) {
        for (bool with_shortcut : {false, true}) {
          // Channel h of the pair uses affine (ai + h) % 3.
          std::array<bool, 2> affine;
          std::array<Fixed16, 2> scale, shift;
          std::vector<kernels::QPostChannel> ch;
          for (size_t h = 0; h < 2; ++h) {
            const size_t a = (ai + h) % affines.size();
            affine[h] = a > 0;
            scale[h] = Fixed16::FromFloat(affines[a][0]);
            shift[h] = Fixed16::FromFloat(affines[a][1]);
            ch.emplace_back(affine[h], scale[h], shift[h], relu);
          }
          const int16_t* sc = with_shortcut ? shortcut.data() : nullptr;
          const auto want = [&](size_t h, int64_t i, int64_t c) {
            Fixed16 v =
                AccumOf(acc64[h * acc_len + i * g.acc_pitch + c]).ToFixed16();
            if (affine[h]) v = v * scale[h] + shift[h];
            if (sc != nullptr) {
              v = v + Fixed16::FromRaw(sc[2 * (i * g.shortcut_pitch + c) + h]);
            }
            if (relu && v < Fixed16{}) v = Fixed16{};
            return v.raw();
          };
          const size_t out_len = static_cast<size_t>(2 * g.rows * g.out_pitch);
          std::vector<int16_t> pair32(out_len, kUntouched);
          std::vector<int16_t> pair64(out_len, kUntouched);
          kernels::QPostProcessPair(acc32.data(), acc32.data() + acc_len, g,
                                    ch[0], ch[1], sc, pair32.data());
          kernels::QPostProcessPair(acc64.data(), acc64.data() + acc_len, g,
                                    ch[0], ch[1], sc, pair64.data());
          for (size_t h = 0; h < 2; ++h) {
            std::vector<int16_t> half32(out_len, kUntouched);
            std::vector<int16_t> half64(out_len, kUntouched);
            const int16_t* sc_h = sc != nullptr ? sc + h : nullptr;
            kernels::QPostProcessHalf(acc32.data() + h * acc_len, g, ch[h],
                                      sc_h, half32.data() + h);
            kernels::QPostProcessHalf(acc64.data() + h * acc_len, g, ch[h],
                                      sc_h, half64.data() + h);
            for (int64_t i = 0; i < g.rows; ++i) {
              for (int64_t c = 0; c < g.out_pitch; ++c) {
                SCOPED_TRACE(::testing::Message()
                             << "rows=" << rows << " n=" << n << " row " << i
                             << " c=" << c
                             << " h=" << h << " affine " << ai);
                const size_t at =
                    static_cast<size_t>(2 * (i * g.out_pitch + c));
                if (c >= n) {  // past the row: nothing written
                  ASSERT_EQ(pair32[at + h], kUntouched);
                  ASSERT_EQ(half32[at + h], kUntouched);
                  continue;
                }
                const int16_t v = want(h, i, c);
                ASSERT_EQ(pair32[at + h], v);
                ASSERT_EQ(pair64[at + h], v);
                ASSERT_EQ(half32[at + h], v);
                ASSERT_EQ(half64[at + h], v);
                ASSERT_EQ(half32[at + 1 - h], kUntouched);
                ASSERT_EQ(half64[at + 1 - h], kUntouched);
              }
            }
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

  // Once as given, and once with output channel 0's weights at the int16
  // maximum, so its block (unless the mask prunes all of it) fails the
  // int32 proof and runs the int64 reference arithmetic on the same
  // operands.
  TensorQ unproven = weights;
  for (int64_t i = 0; i < lc.N * lc.Kd * lc.Kr * lc.Kc; ++i) {
    unproven[i] = Fixed16::FromRaw(Fixed16::kRawMax);
  }
  // The engine as served: an input halo wider than the padding, the
  // shortcut and the output in layouts with halos of their own.
  const std::array<int64_t, 3> wide_halo = {
      lc.padding[0] + 1, lc.padding[1] + 1, lc.padding[2] + 1};
  const fpga::QActivation wide_input =
      fpga::QActivation::FromTensor(input, wide_halo);
  const fpga::QActivation shortcut_act =
      fpga::QActivation::FromTensor(shortcut, {1, 0, 1});
  PostOps engine_post = post;
  engine_post.shortcut = nullptr;

  const fpga::Ports ports;
  const TiledConvSim sim(lc.tiling, ports);
  for (const TensorQ* w : {&weights, static_cast<const TensorQ*>(&unproven)}) {
    SCOPED_TRACE(w == &weights ? "as given" : "channel 0 unproven");
    const auto want = sim.Run(*w, padded, lc.stride, use_mask, post);
    const PackedConvLayer packed(*w, lc.tiling, ports, use_mask);
    for (QIsa isa : SupportedIsas()) {
      SCOPED_TRACE(kernels::QIsaName(isa));
      IsaOverride use(isa);
      const auto got = RunDense(packed, input, lc.stride, lc.padding, post);
      ExpectBitwiseEqual(want.output, got.output);
      EXPECT_EQ(want.stats.macs_executed, got.stats.macs_executed);
      EXPECT_EQ(want.stats.modeled_cycles, got.stats.modeled_cycles);
      EXPECT_EQ(want.stats.blocks_skipped, got.stats.blocks_skipped);
      const auto wide = packed.Run(
          wide_input,
          packed.MakePlan(wide_input.extent(), wide_input.halo(), lc.stride,
                          lc.padding),
          engine_post, &shortcut_act, {1, 1, 1});
      ExpectBitwiseEqual(want.output, wide.ToTensor());
    }
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

// --- model paddings ----------------------------------------------------

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

// --- halo-padded layout: B read in place, or gathered ----------------

TEST(QConvDirectTest, OneChannelInputAndOddChannelCounts) {
  // The clip's single channel shares its pair with an all-zero channel;
  // an odd output count (as the 57 mid channels of the second stage)
  // leaves the last output pair's second half unwritten, and an odd
  // input count reads it back with a zero weight.
  CheckParity({.M = 6, .N = 1, .Di = 4, .Ri = 9, .Ci = 11, .Kd = 1, .Kr = 3,
               .Kc = 3, .stride = {1, 1, 1}, .padding = {0, 1, 1},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              41);
  CheckParity({.M = 7, .N = 5, .Di = 5, .Ri = 6, .Ci = 6, .Kd = 3, .Kr = 1,
               .Kc = 1, .stride = {1, 1, 1}, .padding = {1, 0, 0},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              42);
}

TEST(QConvDirectTest, OddTnStraddlingPairs) {
  // Tn = 3 splits input pairs (2,3) and (8,9) between blocks; Tm = 3
  // splits output pairs (2,3) between block rows 0 and 1. In row 0,
  // input block 1 is pruned, so pair (2,3) is read only for channel 2;
  // in row 1, pair (8,9) only for channel 9.
  core::BlockMask mask;
  mask.blocks_m = 3;
  mask.blocks_n = 4;
  mask.enabled = {1, 0, 1, 1,  //
                  0, 1, 0, 1,  //
                  1, 1, 0, 0};
  CheckParity({.M = 7, .N = 10, .Di = 3, .Ri = 7, .Ci = 9, .Kd = 1, .Kr = 3,
               .Kc = 3, .stride = {1, 1, 1}, .padding = {0, 1, 1},
               .tiling = {3, 3, 2, 4, 4}, .keep_prob = 0.0},
              43, &mask);
}

TEST(QConvDirectTest, FullyPrunedBlockRow) {
  // Block row 0 has no surviving tile: its channels get only the
  // post-ops of a zero sum, written through the same layout.
  core::BlockMask mask;
  mask.blocks_m = 3;
  mask.blocks_n = 2;
  mask.enabled = {0, 0,  //
                  1, 1,  //
                  0, 1};
  CheckParity({.M = 12, .N = 8, .Di = 2, .Ri = 8, .Ci = 8, .Kd = 1, .Kr = 3,
               .Kc = 3, .stride = {1, 1, 1}, .padding = {0, 1, 1},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = 0.0},
              44, &mask);
}

TEST(QConvDirectTest, TemporalStrideDirectColumnStrideGathered) {
  // Depth stride 2 keeps B in place; any column stride gathers a panel
  // from the padded layout, with or without a row stride.
  CheckParity({.M = 8, .N = 6, .Di = 7, .Ri = 5, .Ci = 6, .Kd = 3, .Kr = 1,
               .Kc = 1, .stride = {2, 1, 1}, .padding = {1, 0, 0},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = 0.7},
              45);
  CheckParity({.M = 9, .N = 6, .Di = 2, .Ri = 9, .Ci = 9, .Kd = 1, .Kr = 3,
               .Kc = 3, .stride = {1, 2, 2}, .padding = {0, 1, 1},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              46);
  CheckParity({.M = 8, .N = 5, .Di = 4, .Ri = 6, .Ci = 7, .Kd = 1, .Kr = 1,
               .Kc = 1, .stride = {2, 2, 2}, .padding = {0, 0, 0},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              47);
  CheckParity({.M = 5, .N = 4, .Di = 3, .Ri = 5, .Ci = 9, .Kd = 3, .Kr = 3,
               .Kc = 3, .stride = {1, 1, 2}, .padding = {1, 1, 1},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              48);
}

TEST(QConvDirectTest, LastTaskReadsIntoTailSlack) {
  // 5x5 planes padded to 7x7: the last depth's 4 * 7 + 5 = 33 kept GEMM
  // columns round up to 48, so the last task reads 15 pairs past the
  // last plane, into the slack (the sanitize build traps a read past
  // it).
  CheckParity({.M = 4, .N = 3, .Di = 2, .Ri = 5, .Ci = 5, .Kd = 1, .Kr = 3,
               .Kc = 3, .stride = {1, 1, 1}, .padding = {0, 1, 1},
               .tiling = {4, 4, 2, 4, 4}, .keep_prob = -1.0},
              49);
}

// Every element outside the interior of real channels — the halo, the
// odd channel count's partner half and the slack — is zero.
void ExpectZeroOutsideInterior(const fpga::QActivation& a) {
  const auto [D, R, C] = a.extent();
  const auto [hd, hr, hc] = a.halo();
  for (int64_t q = 0; q < a.pairs(); ++q) {
    for (int64_t d = 0; d < a.Dp(); ++d) {
      for (int64_t r = 0; r < a.Rp(); ++r) {
        for (int64_t c = 0; c < a.Cp(); ++c) {
          const bool interior = d >= hd && d < hd + D && r >= hr &&
                                r < hr + R && c >= hc && c < hc + C;
          const int64_t pair = ((q * a.Dp() + d) * a.Rp() + r) * a.Cp() + c;
          for (int64_t h = 0; h < 2; ++h) {
            if (interior && 2 * q + h < a.channels()) continue;
            ASSERT_EQ(a.data()[2 * pair + h], 0)
                << "pair " << q << " at " << d << "," << r << "," << c
                << " half " << h;
          }
        }
      }
    }
  }
  for (int64_t i = 2 * a.pairs() * a.plane(); i < 2 * a.size_pairs(); ++i) {
    ASSERT_EQ(a.data()[i], 0) << "slack " << i;
  }
}

TEST(QConvDirectTest, LayoutRoundTripKeepsHaloZero) {
  Rng rng(61);
  const TensorQ x = RandomQ(Shape{5, 3, 4, 6}, rng);
  const fpga::QActivation a = fpga::QActivation::FromTensor(x, {1, 2, 1});
  ExpectBitwiseEqual(x, a.ToTensor());
  ExpectZeroOutsideInterior(a);
  const std::vector<int16_t> before(a.data(), a.data() + 2 * a.size_pairs());

  // A non-zero shift without ReLU makes every written element non-zero
  // in practice, so a write outside the interior would show.
  const TensorQ w = RandomQ(Shape{7, 5, 3, 3, 3}, rng);
  PostOps post;
  post.has_affine = true;
  post.scale = RandomQ(Shape{7}, rng, 0.5, 1.5);
  post.shift = RandomQ(Shape{7}, rng, 0.5, 1.0);
  const PackedConvLayer packed(w, {4, 4, 2, 4, 4}, fpga::Ports{}, nullptr);
  for (QIsa isa : SupportedIsas()) {
    SCOPED_TRACE(kernels::QIsaName(isa));
    IsaOverride use(isa);
    const auto r = packed.Run(
        a, packed.MakePlan(a.extent(), a.halo(), {1, 1, 1}, {1, 1, 1}), post,
        nullptr, {1, 1, 2});
    ExpectZeroOutsideInterior(r);
    EXPECT_TRUE(std::equal(before.begin(), before.end(), a.data()))
        << "the run wrote to its input";
  }
}

}  // namespace
}  // namespace hwp3d
