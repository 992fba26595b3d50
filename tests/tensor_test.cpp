#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "tensor/init.h"
#include "tensor/serialize.h"
#include "tensor/storage.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace hwp3d {
namespace {

TEST(TensorTest, ConstructAndFill) {
  TensorF t(Shape{2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(t[i], 1.5f);
  t.Fill(0.0f);
  EXPECT_FLOAT_EQ(t[5], 0.0f);
}

TEST(TensorTest, VariadicIndexing) {
  TensorF t(Shape{2, 3, 4});
  t(1, 2, 3) = 42.0f;
  EXPECT_FLOAT_EQ(t[23], 42.0f);
  t(0, 0, 0) = -1.0f;
  EXPECT_FLOAT_EQ(t[0], -1.0f);
}

TEST(TensorTest, AtWithVector) {
  TensorF t(Shape{2, 2});
  t.at({1, 0}) = 9.0f;
  EXPECT_FLOAT_EQ(t(1, 0), 9.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  TensorF t(Shape{2, 6});
  for (int64_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  const TensorF r = t.Reshaped(Shape{3, 4});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_FLOAT_EQ(r(2, 3), 11.0f);
  EXPECT_THROW(t.Reshaped(Shape{5, 5}), ShapeError);
}

TEST(TensorTest, DataFromVector) {
  TensorF t(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t(1, 1), 4.0f);
  EXPECT_THROW(TensorF(Shape{2, 2}, std::vector<float>{1, 2}), ShapeError);
}

TEST(TensorOpsTest, Axpy) {
  TensorF x(Shape{3}, std::vector<float>{1, 2, 3});
  TensorF y(Shape{3}, std::vector<float>{10, 20, 30});
  Axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
  TensorF bad(Shape{2});
  EXPECT_THROW(Axpy(1.0f, bad, y), ShapeError);
}

TEST(TensorOpsTest, AddSubMul) {
  TensorF a(Shape{2}, std::vector<float>{3, 4});
  TensorF b(Shape{2}, std::vector<float>{1, 2});
  EXPECT_FLOAT_EQ(Add(a, b)[1], 6.0f);
  EXPECT_FLOAT_EQ(Sub(a, b)[0], 2.0f);
  EXPECT_FLOAT_EQ(Mul(a, b)[1], 8.0f);
}

TEST(TensorOpsTest, Reductions) {
  TensorF t(Shape{4}, std::vector<float>{1, -2, 3, -4});
  EXPECT_FLOAT_EQ(Sum(t), -2.0f);
  EXPECT_FLOAT_EQ(Mean(t), -0.5f);
  EXPECT_FLOAT_EQ(MaxAbs(t), 4.0f);
  EXPECT_FLOAT_EQ(FrobeniusNorm(t), std::sqrt(30.0f));
  EXPECT_EQ(Argmax(t), 2);
  EXPECT_FLOAT_EQ(Dot(t, t), 30.0f);
}

TEST(TensorOpsTest, Variance) {
  TensorF t(Shape{4}, std::vector<float>{1, 1, 3, 3});
  EXPECT_FLOAT_EQ(Mean(t), 2.0f);
  EXPECT_FLOAT_EQ(Variance(t), 1.0f);
}

TEST(TensorOpsTest, SparsityAndZeros) {
  TensorF t(Shape{4}, std::vector<float>{0, 1, 0, 2});
  EXPECT_EQ(CountZeros(t), 2);
  EXPECT_DOUBLE_EQ(Sparsity(t), 0.5);
}

TEST(TensorOpsTest, AllClose) {
  TensorF a(Shape{2}, std::vector<float>{1.0f, 2.0f});
  TensorF b(Shape{2}, std::vector<float>{1.0f + 1e-7f, 2.0f});
  EXPECT_TRUE(AllClose(a, b));
  TensorF c(Shape{2}, std::vector<float>{1.1f, 2.0f});
  EXPECT_FALSE(AllClose(a, c));
  TensorF d(Shape{3});
  EXPECT_FALSE(AllClose(a, d));
}

TEST(TensorOpsTest, ScaleAndAddScalar) {
  TensorF t(Shape{2}, std::vector<float>{2, 4});
  Scale(t, 0.5f);
  EXPECT_FLOAT_EQ(t[1], 2.0f);
  AddScalar(t, 1.0f);
  EXPECT_FLOAT_EQ(t[0], 2.0f);
}

TEST(InitTest, KaimingStddev) {
  Rng rng(3);
  TensorF t(Shape{64, 64, 3, 3, 3});
  FillKaiming(t, rng, 64 * 27);
  const float expected_std = std::sqrt(2.0f / (64 * 27));
  EXPECT_NEAR(Mean(t), 0.0f, expected_std * 0.1f);
  EXPECT_NEAR(std::sqrt(Variance(t)), expected_std, expected_std * 0.05f);
}

TEST(InitTest, XavierBounds) {
  Rng rng(3);
  TensorF t(Shape{100, 100});
  FillXavier(t, rng, 100, 100);
  const float bound = std::sqrt(6.0f / 200.0f);
  EXPECT_LE(MaxAbs(t), bound);
  EXPECT_GT(MaxAbs(t), bound * 0.8f);  // actually uses the range
}

TEST(SerializeTest, RoundTripStream) {
  Rng rng(5);
  TensorF t(Shape{3, 4, 5});
  FillNormal(t, rng, 0.0f, 1.0f);
  std::stringstream ss;
  WriteTensor(ss, t);
  const TensorF u = ReadTensor(ss);
  EXPECT_EQ(u.shape(), t.shape());
  EXPECT_TRUE(AllClose(u, t, 0.0f, 0.0f));
}

TEST(SerializeTest, RoundTripFile) {
  TensorF t(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  const std::string path = ::testing::TempDir() + "/hwp_tensor_test.bin";
  SaveTensor(path, t);
  const TensorF u = LoadTensor(path);
  EXPECT_TRUE(AllClose(u, t, 0.0f, 0.0f));
}

TEST(SerializeTest, RejectsGarbage) {
  std::stringstream ss;
  ss << "not a tensor";
  EXPECT_THROW(ReadTensor(ss), Error);
}

TEST(SerializeTest, RejectsTruncated) {
  TensorF t(Shape{10, 10});
  std::stringstream ss;
  WriteTensor(ss, t);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(ReadTensor(truncated), Error);
}

TEST(TensorStorageTest, RecyclesLargeBlocksOnlyInsideAScope) {
  const int64_t big = static_cast<int64_t>(kRecycleMinBytes / sizeof(float));
  const size_t big_bytes = kRecycleMinBytes;
  ASSERT_EQ(RecycledStorageBytes(), 0u);
  {
    const StorageRecycleScope scope;
    const float* first = nullptr;
    {
      TensorF a(Shape{big}, 3.0f);
      first = a.data();
    }
    EXPECT_EQ(RecycledStorageBytes(), big_bytes);
    // The next block of that size is the kept one, filled afresh.
    TensorF b(Shape{big});
    EXPECT_EQ(b.data(), first);
    EXPECT_EQ(b[0], 0.0f);
    EXPECT_EQ(b[big - 1], 0.0f);
    EXPECT_EQ(RecycledStorageBytes(), 0u);
    { TensorF small(Shape{16}); }
    EXPECT_EQ(RecycledStorageBytes(), 0u);
    { TensorF c(Shape{big}); }
    {
      const StorageRecycleScope nested;
    }
    EXPECT_EQ(RecycledStorageBytes(), big_bytes);  // an inner scope ended
  }
  // The last scope frees what was kept; outside a scope nothing is.
  EXPECT_EQ(RecycledStorageBytes(), 0u);
  { TensorF d(Shape{big}); }
  EXPECT_EQ(RecycledStorageBytes(), 0u);
}

TEST(TensorStorageTest, LiveBytesCountLiveStorageNotKeptBlocks) {
  const int64_t big = static_cast<int64_t>(kRecycleMinBytes / sizeof(float));
  const size_t base = LiveStorageBytes();
  ResetPeakLiveStorageBytes();
  EXPECT_EQ(PeakLiveStorageBytes(), base);
  {
    const StorageRecycleScope scope;
    {
      TensorF a(Shape{big});
      TensorF small(Shape{16});
      EXPECT_EQ(LiveStorageBytes(), base + kRecycleMinBytes + 64);
    }
    // The freed big block is kept for reuse, but no longer live.
    EXPECT_EQ(RecycledStorageBytes(), kRecycleMinBytes);
    EXPECT_EQ(LiveStorageBytes(), base);
    TensorF b(Shape{big});
    EXPECT_EQ(LiveStorageBytes(), base + kRecycleMinBytes);
  }
  EXPECT_EQ(LiveStorageBytes(), base);
  EXPECT_EQ(PeakLiveStorageBytes(), base + kRecycleMinBytes + 64);
  ResetPeakLiveStorageBytes();
  EXPECT_EQ(PeakLiveStorageBytes(), base);
}

}  // namespace
}  // namespace hwp3d
