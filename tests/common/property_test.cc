// Cross-cutting property tests over the common substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/distributions.h"
#include "src/common/histogram.h"
#include "src/common/stats.h"

namespace rpcscope {
namespace {

// Histogram merge is associative and commutative in its observable queries.
TEST(HistogramPropertyTest, MergeOrderIrrelevant) {
  Rng rng(41);
  LogHistogram a, b, c;
  std::vector<LogHistogram*> parts = {&a, &b, &c};
  for (int i = 0; i < 30000; ++i) {
    parts[static_cast<size_t>(rng.NextBounded(3))]->Add(
        rng.NextLognormal(std::log(1e4), 1.2));
  }
  LogHistogram abc;
  abc.Merge(a);
  abc.Merge(b);
  abc.Merge(c);
  LogHistogram cba;
  cba.Merge(c);
  cba.Merge(b);
  cba.Merge(a);
  EXPECT_EQ(abc.count(), cba.count());
  EXPECT_DOUBLE_EQ(abc.sum(), cba.sum());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(abc.Quantile(q), cba.Quantile(q)) << q;
  }
}

// Merging histograms equals histogramming the union.
TEST(HistogramPropertyTest, MergeEqualsUnion) {
  Rng rng(43);
  LogHistogram a, b, whole;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextLognormal(std::log(500.0), 1.5);
    (i % 2 == 0 ? a : b).Add(v);
    whole.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  for (double q : {0.25, 0.5, 0.75, 0.95}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), whole.Quantile(q)) << q;
  }
}

// Quantiles are monotone in p for any input.
class QuantileMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(QuantileMonotoneTest, HistogramQuantileMonotone) {
  Rng rng(static_cast<uint64_t>(GetParam() * 1000));
  LogHistogram h;
  for (int i = 0; i < 5000; ++i) {
    h.Add(rng.NextLognormal(std::log(100.0), GetParam()));
  }
  double prev = 0;
  for (double p = 0.01; p <= 0.99; p += 0.01) {
    const double q = h.Quantile(p);
    EXPECT_GE(q, prev) << p;
    prev = q;
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, QuantileMonotoneTest,
                         ::testing::Values(0.2, 0.8, 1.5, 2.5));

// DiscreteDist produces identical streams for identical construction+seeds.
TEST(DiscretePropertyTest, Deterministic) {
  std::vector<double> weights;
  Rng init(47);
  for (int i = 0; i < 300; ++i) {
    weights.push_back(init.NextDouble() + 0.01);
  }
  DiscreteDist d1(weights), d2(weights);
  Rng r1(9), r2(9);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(d1.Sample(r1), d2.Sample(r2));
  }
}

// Inverse-CDF draws from QuantileCurve, histogrammed, recover the curve.
TEST(QuantileCurvePropertyTest, HistogramRecoversCurve) {
  QuantileCurve curve({{0.1, 10.0}, {0.5, 100.0}, {0.9, 2000.0}}, 1.0, 1e6);
  Rng rng(51);
  LogHistogram h({.min_value = 0.1, .max_value = 1e7, .buckets_per_decade = 40});
  for (int i = 0; i < 300000; ++i) {
    h.Add(curve.Quantile(rng.NextDouble()));
  }
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(h.Quantile(p) / curve.Quantile(p), 1.0, 0.12) << p;
  }
}

// Pearson correlation is symmetric and scale-invariant.
TEST(CorrelationPropertyTest, SymmetricAndScaleInvariant) {
  Rng rng(53);
  std::vector<double> x, y, y_scaled;
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.NextGaussian();
    x.push_back(a);
    const double b = 0.6 * a + 0.8 * rng.NextGaussian();
    y.push_back(b);
    y_scaled.push_back(42.0 * b + 7.0);
  }
  EXPECT_NEAR(PearsonCorrelation(x, y), PearsonCorrelation(y, x), 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, y), PearsonCorrelation(x, y_scaled), 1e-9);
  EXPECT_NEAR(PearsonCorrelation(x, y), 0.6, 0.06);
}

}  // namespace
}  // namespace rpcscope
