#include "src/common/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"

namespace rpcscope {
namespace {

TEST(LogHistogramTest, EmptyHistogram) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(LogHistogramTest, SingleValue) {
  LogHistogram h;
  h.Add(1000.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 1000.0);
  EXPECT_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.Quantile(0.5), 1000.0, 1.0);
}

TEST(LogHistogramTest, QuantileRelativeErrorBounded) {
  LogHistogram h;
  Rng rng(3);
  std::vector<double> exact;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.NextLognormal(std::log(1e6), 1.5);
    h.Add(v);
    exact.push_back(v);
  }
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    const double approx = h.Quantile(p);
    const double truth = ExactQuantile(exact, p);
    // 20 buckets/decade => ~12% bucket width; allow a little slack.
    EXPECT_NEAR(approx / truth, 1.0, 0.15) << p;
  }
}

TEST(LogHistogramTest, UnderflowAndOverflowCaptured) {
  LogHistogram h(LogHistogram::Options{.min_value = 10, .max_value = 1000});
  h.Add(1.0);     // Underflow.
  h.Add(1e9);     // Overflow.
  h.Add(100.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1e9);
}

TEST(LogHistogramTest, MergeCombinesMass) {
  LogHistogram a, b;
  a.Add(10);
  a.Add(20);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_EQ(a.min(), 10);
  EXPECT_NEAR(a.sum(), 1030, 1e-9);
}

TEST(LogHistogramDeathTest, MergeRejectsMismatchedBucketLayouts) {
  // Merging histograms with different bucket layouts would silently
  // misattribute counts to the wrong value ranges; the hub's cross-shard
  // window merge (MetricWindowDelta::Merge) relies on this being a loud CHECK
  // in every build type.
  LogHistogram base(LogHistogram::Options{.min_value = 10, .max_value = 1000});
  base.Add(100);

  LogHistogram different_min(LogHistogram::Options{.min_value = 1, .max_value = 1000});
  EXPECT_DEATH(base.Merge(different_min), "min_value mismatch");

  LogHistogram different_max(LogHistogram::Options{.min_value = 10, .max_value = 1e6});
  EXPECT_DEATH(base.Merge(different_max), "max_value mismatch");

  LogHistogram different_width(LogHistogram::Options{
      .min_value = 10, .max_value = 1000, .buckets_per_decade = 40});
  EXPECT_DEATH(base.Merge(different_width), "buckets_per_decade mismatch");

  // Same layout merges fine, even when one side is empty.
  LogHistogram same(LogHistogram::Options{.min_value = 10, .max_value = 1000});
  base.Merge(same);
  EXPECT_EQ(base.count(), 1);
}

TEST(LogHistogramTest, CdfMonotoneAndConsistentWithQuantile) {
  LogHistogram h;
  Rng rng(9);
  for (int i = 0; i < 50000; ++i) {
    h.Add(rng.NextLognormal(std::log(1e4), 1.0));
  }
  double prev = 0;
  for (double x = 10; x < 1e8; x *= 2) {
    const double c = h.CdfAt(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  const double q90 = h.Quantile(0.9);
  EXPECT_NEAR(h.CdfAt(q90), 0.9, 0.02);
}

TEST(LogHistogramTest, AddCountWeightsSamples) {
  LogHistogram h;
  h.AddCount(100.0, 99);
  h.AddCount(1e6, 1);
  EXPECT_EQ(h.count(), 100);
  EXPECT_LT(h.Quantile(0.5), 200);
  EXPECT_GT(h.Quantile(0.995), 1e5);
}

}  // namespace
}  // namespace rpcscope
