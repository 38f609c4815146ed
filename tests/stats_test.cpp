#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace flip {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeEqualsBulk) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);

  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(WilsonIntervalTest, ThrowsOnZeroTrials) {
  EXPECT_THROW(wilson_interval(0, 0), std::invalid_argument);
}

TEST(WilsonIntervalTest, ContainsEstimateAndIsBounded) {
  const ProportionCI ci = wilson_interval(80, 100);
  EXPECT_DOUBLE_EQ(ci.estimate, 0.8);
  EXPECT_LT(ci.low, 0.8);
  EXPECT_GT(ci.high, 0.8);
  EXPECT_GE(ci.low, 0.0);
  EXPECT_LE(ci.high, 1.0);
}

TEST(WilsonIntervalTest, DegenerateEndsStayInUnitInterval) {
  const ProportionCI none = wilson_interval(0, 50);
  EXPECT_EQ(none.estimate, 0.0);
  EXPECT_EQ(none.low, 0.0);
  EXPECT_GT(none.high, 0.0);

  const ProportionCI all = wilson_interval(50, 50);
  EXPECT_EQ(all.estimate, 1.0);
  EXPECT_LT(all.low, 1.0);
  EXPECT_EQ(all.high, 1.0);
}

TEST(WilsonIntervalTest, NarrowsWithMoreTrials) {
  const ProportionCI small = wilson_interval(8, 10);
  const ProportionCI big = wilson_interval(800, 1000);
  EXPECT_LT(big.high - big.low, small.high - small.low);
}

TEST(PercentileTest, MedianOfOddSample) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.0);
}

TEST(PercentileTest, InterpolatesBetweenValues) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 10.0);
}

TEST(PercentileTest, ThrowsOnEmpty) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
}

TEST(LogLogSlopeTest, RecoversPowerLaw) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * x * x);  // slope 2
  }
  EXPECT_NEAR(log_log_slope(xs, ys), 2.0, 1e-9);
}

TEST(LogLogSlopeTest, SkipsNonPositivePoints) {
  const std::vector<double> xs = {0.0, 1.0, 2.0, 4.0};
  const std::vector<double> ys = {5.0, 1.0, 0.5, 0.25};  // slope -1 on tail
  EXPECT_NEAR(log_log_slope(xs, ys), -1.0, 1e-9);
}

TEST(LogLogSlopeTest, DegenerateInputsGiveZero) {
  EXPECT_EQ(log_log_slope({}, {}), 0.0);
  const std::vector<double> one = {2.0};
  EXPECT_EQ(log_log_slope(one, one), 0.0);
}


TEST(PowerLawFitTest, RecoversExactLaw) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x : {1.0, 2.0, 5.0, 10.0, 50.0}) {
    xs.push_back(x);
    ys.push_back(7.0 / (x * x));  // y = 7 x^-2
  }
  const PowerLawFit fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.exponent, -2.0, 1e-9);
  EXPECT_NEAR(fit.prefactor, 7.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_EQ(fit.points, 5u);
}

TEST(PowerLawFitTest, NoisyDataHasLowerRSquared) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  const std::vector<double> ys = {1.0, 3.1, 3.5, 9.2, 14.0};
  const PowerLawFit fit = fit_power_law(xs, ys);
  EXPECT_GT(fit.r_squared, 0.5);
  EXPECT_LT(fit.r_squared, 1.0);
}

TEST(PowerLawFitTest, DegenerateInputs) {
  const PowerLawFit empty = fit_power_law({}, {});
  EXPECT_EQ(empty.points, 0u);
  EXPECT_EQ(empty.exponent, 0.0);
  const std::vector<double> bad_x = {0.0, -1.0};
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_EQ(fit_power_law(bad_x, y).points, 0u);
}

}  // namespace
}  // namespace flip
