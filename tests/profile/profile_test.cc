#include "src/profile/profile.h"

#include <gtest/gtest.h>

namespace rpcscope {
namespace {

CycleBreakdown MakeCycles(double tax_each, double app) {
  CycleBreakdown b;
  for (int i = 0; i < kNumTaxCategories; ++i) {
    b.cycles[static_cast<size_t>(i)] = tax_each;
  }
  b[CycleCategory::kApplication] = app;
  return b;
}

TEST(ProfileCollectorTest, TaxFractionComputed) {
  ProfileCollector collector;
  // 6 tax categories x 10 cycles = 60 tax; 940 app => 6% tax.
  collector.AddRpcSample(1, MakeCycles(10, 940), 1.0);
  EXPECT_NEAR(collector.TaxFraction(), 0.06, 1e-9);
  EXPECT_DOUBLE_EQ(collector.total_cycles(), 1000);
}

TEST(ProfileCollectorTest, NormalizesByMachineSpeed) {
  ProfileCollector a, b;
  a.AddRpcSample(1, MakeCycles(10, 40), 1.0);
  b.AddRpcSample(1, MakeCycles(20, 80), 2.0);
  EXPECT_DOUBLE_EQ(a.total_cycles(), b.total_cycles());
}

TEST(ProfileCollectorTest, PerServiceAttribution) {
  ProfileCollector collector;
  collector.AddRpcSample(3, MakeCycles(5, 70), 1.0);
  collector.AddRpcSample(3, MakeCycles(5, 70), 1.0);
  collector.AddRpcSample(4, MakeCycles(5, 170), 1.0);
  ASSERT_TRUE(collector.per_service_cycles().contains(3));
  EXPECT_DOUBLE_EQ(collector.per_service_cycles().at(3), 200);
  EXPECT_DOUBLE_EQ(collector.per_service_cycles().at(4), 200);
}

TEST(ProfileCollectorTest, CategoryFractionsSumToTaxFraction) {
  ProfileCollector collector;
  collector.AddRpcSample(1, MakeCycles(7, 100), 1.0);
  const auto fractions = collector.TaxCategoryFractions();
  double sum = 0;
  for (double f : fractions) {
    sum += f;
  }
  EXPECT_NEAR(sum, collector.TaxFraction(), 1e-12);
}

}  // namespace
}  // namespace rpcscope
