// Unit tests for the base utilities (status, stats, tables, rng, clock).
#include <gtest/gtest.h>

#include "src/base/clock.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/table.h"

namespace {

TEST(Status, OkByDefault) {
  vbase::Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  vbase::Status st = vbase::InvalidArgument("bad reg");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), vbase::Code::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "INVALID_ARGUMENT: bad reg");
}

TEST(Status, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(vbase::NotFound("x").code(), vbase::Code::kNotFound);
  EXPECT_EQ(vbase::OutOfRange("x").code(), vbase::Code::kOutOfRange);
  EXPECT_EQ(vbase::FailedPrecondition("x").code(), vbase::Code::kFailedPrecondition);
  EXPECT_EQ(vbase::PermissionDenied("x").code(), vbase::Code::kPermissionDenied);
  EXPECT_EQ(vbase::Unimplemented("x").code(), vbase::Code::kUnimplemented);
  EXPECT_EQ(vbase::Internal("x").code(), vbase::Code::kInternal);
  EXPECT_EQ(vbase::Aborted("x").code(), vbase::Code::kAborted);
}

TEST(Result, HoldsValueOrStatus) {
  vbase::Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_TRUE(ok.status().ok());

  vbase::Result<int> err(vbase::NotFound("missing"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), vbase::Code::kNotFound);
}

TEST(Stats, SummaryBasics) {
  const vbase::Summary s = vbase::Summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(Stats, SummaryEmptyIsZero) {
  const vbase::Summary s = vbase::Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(vbase::Quantile({10, 20}, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(vbase::Quantile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(vbase::Quantile({1, 2, 3, 4}, 1.0), 4.0);
}

TEST(Stats, TukeyRemovesOutliers) {
  std::vector<double> samples(100, 10.0);
  samples.push_back(1e9);  // scheduler blip
  const auto filtered = vbase::TukeyFilter(samples);
  EXPECT_EQ(filtered.size(), 100u);
  for (double v : filtered) {
    EXPECT_DOUBLE_EQ(v, 10.0);
  }
}

TEST(Stats, TukeyKeepsSmallSamples) {
  const std::vector<double> samples = {1, 100, 10000};
  EXPECT_EQ(vbase::TukeyFilter(samples).size(), 3u);
}

TEST(Stats, HarmonicMean) {
  EXPECT_NEAR(vbase::HarmonicMean({1, 4, 4}), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(vbase::HarmonicMean({}), 0.0);
  EXPECT_DOUBLE_EQ(vbase::HarmonicMean({1, 0}), 0.0);  // rejects non-positive
}

TEST(Clock, CycleConversionRoundTrips) {
  // 2690 cycles at 2.69 GHz = 1 us.
  EXPECT_NEAR(vbase::CyclesToMicros(2690), 1.0, 1e-9);
  EXPECT_EQ(vbase::MicrosToCycles(1.0), 2690u);
}

TEST(Rng, DeterministicForSeed) {
  vbase::Rng a(7);
  vbase::Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, BelowStaysInRange) {
  vbase::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Table, RendersAlignedColumns) {
  vbase::Table t({"a", "bb"});
  t.AddRow({"xxx", "y"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("a    bb"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find("xxx  y"), std::string::npos);
}

TEST(Table, HumanBytes) {
  EXPECT_EQ(vbase::HumanBytes(512), "512 B");
  EXPECT_EQ(vbase::HumanBytes(16 << 10), "16.0 KB");
  EXPECT_EQ(vbase::HumanBytes(2 << 20), "2.0 MB");
}

}  // namespace
