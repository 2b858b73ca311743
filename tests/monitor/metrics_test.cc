#include "src/monitor/metrics.h"

#include <gtest/gtest.h>

namespace rpcscope {
namespace {

TEST(MetricRegistryTest, CountersAccumulateAndSample) {
  MetricRegistry registry;
  Counter& c = registry.GetCounter("rpcs");
  c.Increment(10);
  registry.SampleAll(Minutes(30));
  c.Increment(5);
  registry.SampleAll(Minutes(60));
  const TimeSeries* ts = registry.Series("rpcs");
  ASSERT_NE(ts, nullptr);
  ASSERT_EQ(ts->points().size(), 2u);
  EXPECT_EQ(ts->points()[0].value, 10);
  EXPECT_EQ(ts->points()[1].value, 15);
}

TEST(MetricRegistryTest, SameNameReturnsSameInstrument) {
  MetricRegistry registry;
  registry.GetCounter("x").Increment(1);
  registry.GetCounter("x").Increment(2);
  EXPECT_EQ(registry.GetCounter("x").value(), 3);
}

TEST(TimeSeriesTest, RetentionExpiresOldPoints) {
  MetricRegistry::Options opts;
  opts.retention = Days(2);
  MetricRegistry registry(opts);
  Counter& c = registry.GetCounter("x");
  for (int d = 0; d < 5; ++d) {
    c.Increment(1);
    registry.SampleAll(Days(d));
  }
  const TimeSeries* ts = registry.Series("x");
  // Only points within the last 2 days survive (days 2, 3, 4).
  EXPECT_EQ(ts->points().size(), 3u);
  EXPECT_EQ(ts->points().front().time, Days(2));
}

TEST(TimeSeriesTest, RangeQuery) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) {
    ts.Append(Minutes(30 * i), i);
  }
  const auto range = ts.Range(Minutes(60), Minutes(120));
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range.front().value, 2);
  EXPECT_EQ(range.back().value, 4);
}

TEST(TimeSeriesTest, RatePerSecondFromCumulative) {
  TimeSeries ts;
  ts.Append(0, 0);
  ts.Append(Seconds(10), 100);
  ts.Append(Seconds(20), 300);
  const auto rate = ts.RatePerSecond(0, Seconds(20));
  ASSERT_EQ(rate.size(), 2u);
  EXPECT_DOUBLE_EQ(rate[0].value, 10.0);
  EXPECT_DOUBLE_EQ(rate[1].value, 20.0);
}

TEST(MetricRegistryTest, MissingSeriesIsNull) {
  MetricRegistry registry;
  EXPECT_EQ(registry.Series("nothing"), nullptr);
}

}  // namespace
}  // namespace rpcscope
