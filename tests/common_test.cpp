#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace hwp3d {
namespace {

TEST(ErrorTest, CheckThrowsWithMessage) {
  try {
    HWP_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(ErrorTest, CheckPassesSilently) {
  EXPECT_NO_THROW(HWP_CHECK(2 + 2 == 4));
}

TEST(ErrorTest, ShapeCheckThrowsShapeError) {
  EXPECT_THROW(HWP_SHAPE_CHECK_MSG(false, "bad"), ShapeError);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, SplitMix64KnownAnswers) {
  // The reference generator's first outputs from states 0 and 1.
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(1), 0x910a2dec89025cc1ULL);
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Uniform() != b.Uniform()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NormalHasRoughMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(StatusTest, OkAndErrorBasics) {
  const Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.ToString(), "OK");

  const Status s = NotFoundError("no such thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such thing");
  EXPECT_EQ(s, NotFoundError("no such thing"));
  EXPECT_FALSE(s == NotFoundError("different"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kInvalidArgument),
            "INVALID_ARGUMENT");
  EXPECT_EQ(StatusCodeName(StatusCode::kResourceExhausted),
            "RESOURCE_EXHAUSTED");
  EXPECT_EQ(StatusCodeName(StatusCode::kDeadlineExceeded),
            "DEADLINE_EXCEEDED");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnavailable), "UNAVAILABLE");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());

  StatusOr<int> e(InvalidArgumentError("nope"));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  EXPECT_THROW(e.value(), Error);
}

TEST(StatusOrTest, MovesAndCopies) {
  StatusOr<std::string> a(std::string("payload"));
  StatusOr<std::string> b = a;  // copy keeps the source intact
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, "payload");

  StatusOr<std::string> c = std::move(b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, "payload");

  c = StatusOr<std::string>(UnavailableError("gone"));
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kUnavailable);
}

TEST(StatusOrTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return DataLossError("inner"); };
  auto outer = [&]() -> Status {
    HWP_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kDataLoss);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({1, 2, 3}, "x"), "1x2x3");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({7}, ","), "7");
}

TEST(StringsTest, HumanCount) {
  EXPECT_EQ(HumanCount(1234567.0), "1.23M");
  EXPECT_EQ(HumanCount(2048.0), "2.05K");
  EXPECT_EQ(HumanCount(12.0), "12.00");
  EXPECT_EQ(HumanCount(3.2e9), "3.20G");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(1536.0), "1.50 KiB");
  EXPECT_EQ(HumanBytes(10.0), "10.00 B");
}

}  // namespace
}  // namespace hwp3d
