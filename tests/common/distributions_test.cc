#include "src/common/distributions.h"

#include <gtest/gtest.h>

#include <array>

namespace rpcscope {
namespace {

TEST(QuantileCurveTest, InterpolatesAnchorsExactly) {
  QuantileCurve curve({{0.1, 1.0}, {0.5, 10.0}, {0.9, 100.0}}, 0.01, 1e6);
  EXPECT_NEAR(curve.Quantile(0.1), 1.0, 1e-9);
  EXPECT_NEAR(curve.Quantile(0.5), 10.0, 1e-9);
  EXPECT_NEAR(curve.Quantile(0.9), 100.0, 1e-9);
}

TEST(QuantileCurveTest, LogLinearBetweenAnchors) {
  QuantileCurve curve({{0.1, 1.0}, {0.9, 100.0}}, 0.001, 1e6);
  // Midpoint in p should be the geometric mean in value.
  EXPECT_NEAR(curve.Quantile(0.5), 10.0, 1e-6);
}

TEST(QuantileCurveTest, ExtrapolatesAndClamps) {
  QuantileCurve curve({{0.2, 2.0}, {0.8, 8.0}}, 1.0, 10.0);
  EXPECT_GE(curve.Quantile(0.001), 1.0);
  EXPECT_LE(curve.Quantile(0.999), 10.0);
  EXPECT_LT(curve.Quantile(0.05), 2.0);
  EXPECT_GT(curve.Quantile(0.95), 8.0);
}

TEST(QuantileCurveTest, MonotoneInProbability) {
  QuantileCurve curve({{0.05, 0.5}, {0.5, 40.0}, {0.95, 1000.0}}, 0.01, 1e7);
  double prev = 0;
  for (double p = 0.01; p < 1.0; p += 0.01) {
    const double q = curve.Quantile(p);
    EXPECT_GE(q, prev) << p;
    prev = q;
  }
}

TEST(DiscreteDistTest, MatchesWeights) {
  DiscreteDist d({1.0, 2.0, 7.0});
  Rng rng(123);
  std::array<int64_t, 3> counts{};
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(d.Sample(rng))];
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.005);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.2, 0.005);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.7, 0.005);
}

TEST(DiscreteDistTest, SingleOutcome) {
  DiscreteDist d({5.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(d.Sample(rng), 0);
  }
}

TEST(DiscreteDistTest, HandlesZeroWeights) {
  DiscreteDist d({0.0, 1.0, 0.0});
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(d.Sample(rng), 1);
  }
}

TEST(ZipfWeightsTest, DecreasingAndPositive) {
  const auto w = ZipfWeights(100, 1.1, 2.0);
  ASSERT_EQ(w.size(), 100u);
  for (size_t i = 1; i < w.size(); ++i) {
    EXPECT_LT(w[i], w[i - 1]);
    EXPECT_GT(w[i], 0);
  }
}

}  // namespace
}  // namespace rpcscope
