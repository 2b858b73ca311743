#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rpcscope {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedRespectsBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0, sumsq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, LognormalMedianMatches) {
  Rng rng(17);
  std::vector<double> samples(100001);
  for (auto& s : samples) {
    s = rng.NextLognormal(std::log(42.0), 1.0);
  }
  std::nth_element(samples.begin(), samples.begin() + 50000, samples.end());
  EXPECT_NEAR(samples[50000], 42.0, 1.5);
}

TEST(RngTest, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(23);
  for (double mean : {0.5, 4.0, 200.0}) {
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.NextPoisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << mean;
  }
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  Rng base1(99), base2(99);
  Rng f1 = base1.Fork(1);
  Rng f2 = base2.Fork(1);
  Rng g = base1.Fork(2);
  EXPECT_EQ(f1.NextUint64(), f2.NextUint64());
  // A different stream should not reproduce the same sequence.
  Rng f1b = base2.Fork(1);
  EXPECT_NE(f1b.NextUint64(), g.NextUint64());
}

TEST(RngTest, Mix64IsStateless) { EXPECT_EQ(Mix64(42), Mix64(42)); }

TEST(RngTest, BoolProbabilityRoughlyHonored) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

}  // namespace
}  // namespace rpcscope
