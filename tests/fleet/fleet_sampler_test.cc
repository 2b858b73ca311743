#include "src/fleet/fleet_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/stats.h"

namespace rpcscope {
namespace {

class FleetSamplerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    services_ = new ServiceCatalog(ServiceCatalog::BuildDefault());
    catalog_ = new MethodCatalog(MethodCatalog::Generate(*services_, {}));
    topology_ = new Topology(TopologyOptions{});
    costs_ = new CycleCostModel();
  }
  static void TearDownTestSuite() {
    delete services_;
    delete catalog_;
    delete topology_;
    delete costs_;
  }

  FleetSampler MakeSampler(uint64_t seed = 7) {
    FleetSamplerOptions opts;
    opts.seed = seed;
    return FleetSampler(services_, catalog_, topology_, costs_, opts);
  }

  static ServiceCatalog* services_;
  static MethodCatalog* catalog_;
  static Topology* topology_;
  static CycleCostModel* costs_;
};

ServiceCatalog* FleetSamplerTest::services_ = nullptr;
MethodCatalog* FleetSamplerTest::catalog_ = nullptr;
Topology* FleetSamplerTest::topology_ = nullptr;
CycleCostModel* FleetSamplerTest::costs_ = nullptr;

TEST_F(FleetSamplerTest, SpansAreWellFormed) {
  FleetSampler sampler = MakeSampler();
  for (int i = 0; i < 2000; ++i) {
    const SampledRpc rpc = sampler.Sample();
    const Span& s = rpc.span;
    EXPECT_GE(s.method_id, 0);
    EXPECT_GE(s.service_id, 0);
    EXPECT_GE(s.client_cluster, 0);
    EXPECT_GE(s.server_cluster, 0);
    EXPECT_GT(s.request_wire_bytes, 0);
    EXPECT_GT(s.response_wire_bytes, 0);
    for (SimDuration c : s.latency.components) {
      EXPECT_GE(c, 0);
    }
    EXPECT_GT(s.latency.Total(), 0);
    EXPECT_GT(rpc.cycles.Total(), 0);
    EXPECT_GT(rpc.machine_speed, 0.5);
  }
}

TEST_F(FleetSamplerTest, EveryMethodOfTheCatalogSamplesWellFormed) {
  // One draw per method of the default catalog reads every row of the
  // sampler's per-method table.
  FleetSampler sampler = MakeSampler();
  ASSERT_EQ(catalog_->size(), 10000);
  for (int32_t id = 0; id < catalog_->size(); ++id) {
    const SampledRpc rpc = sampler.SampleMethod(id);
    ASSERT_EQ(rpc.span.method_id, id);
    for (SimDuration c : rpc.span.latency.components) {
      ASSERT_GE(c, 0) << "method " << id;
    }
    const double cycles = rpc.cycles.Total();
    ASSERT_TRUE(std::isfinite(cycles) && cycles > 0) << "method " << id << ": " << cycles;
    const double normalized = rpc.span.normalized_cpu_cycles;
    ASSERT_TRUE(std::isfinite(normalized) && normalized > 0)
        << "method " << id << ": " << normalized;
  }
}

TEST_F(FleetSamplerTest, MethodLatencyQuantilesMatchModel) {
  FleetSampler sampler = MakeSampler();
  // The median-rank method should produce a median RCT close to its model.
  const int32_t mid = 5000;
  std::vector<double> totals_ms;
  for (int i = 0; i < 4000; ++i) {
    totals_ms.push_back(ToMillis(sampler.SampleMethod(mid).span.latency.Total()));
  }
  const double median = ExactQuantile(totals_ms, 0.5);
  // Model: app median ~38ms plus queue/wire; expect the ballpark of 40-60 ms.
  EXPECT_GT(median, 20.0);
  EXPECT_LT(median, 90.0);
  // P99 >= 225 ms holds for the median method (paper: half of methods).
  EXPECT_GE(ExactQuantile(totals_ms, 0.99), 225.0);
}

TEST_F(FleetSamplerTest, FastPathGivesSubMillisecondP1) {
  FleetSampler sampler = MakeSampler();
  // A mid-rank method with a fast path should show P1 well below its median.
  const int32_t mid = 3000;
  const MethodModel& m = catalog_->method(mid);
  if (m.fast_weight <= 0) {
    GTEST_SKIP() << "method has no fast path";
  }
  std::vector<double> totals_us;
  for (int i = 0; i < 6000; ++i) {
    totals_us.push_back(ToMicros(sampler.SampleMethod(mid).span.latency.Total()));
  }
  EXPECT_LT(ExactQuantile(totals_us, 0.01), 3000.0);
  EXPECT_GT(ExactQuantile(totals_us, 0.5), 10000.0);
}

TEST_F(FleetSamplerTest, AppTimeDominatesAggregateTax) {
  FleetSampler sampler = MakeSampler();
  double total = 0, tax = 0;
  for (int i = 0; i < 60000; ++i) {
    const Span s = sampler.Sample().span;
    total += static_cast<double>(s.latency.Total());
    tax += static_cast<double>(s.latency.Tax());
  }
  // Fig. 10a: the aggregate tax is ~2% of total completion time. Our model
  // lands within a few percent; EXPERIMENTS.md records the exact value.
  EXPECT_GT(tax / total, 0.002);
  EXPECT_LT(tax / total, 0.10);
}

TEST_F(FleetSamplerTest, ErrorsMatchTaxonomy) {
  FleetSampler sampler = MakeSampler();
  int64_t errors = 0, cancelled = 0, notfound = 0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    const Span s = sampler.Sample().span;
    if (s.status != StatusCode::kOk) {
      ++errors;
      if (s.status == StatusCode::kCancelled) {
        ++cancelled;
      } else if (s.status == StatusCode::kNotFound) {
        ++notfound;
      }
    }
  }
  // Paper: ~1.9% of RPCs fail; 45% of errors are cancellations, 20% NotFound.
  const double error_rate = static_cast<double>(errors) / n;
  EXPECT_GT(error_rate, 0.005);
  EXPECT_LT(error_rate, 0.04);
  EXPECT_NEAR(static_cast<double>(cancelled) / static_cast<double>(errors), 0.45, 0.06);
  EXPECT_NEAR(static_cast<double>(notfound) / static_cast<double>(errors), 0.20, 0.05);
}

TEST_F(FleetSamplerTest, ErrorMixFrequenciesSumToOne) {
  double sum = 0;
  for (const ErrorMixEntry& e : FleetErrorMix()) {
    sum += e.frequency;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(FleetSamplerTest, LocalityRespectsDistanceClasses) {
  FleetSampler sampler = MakeSampler();
  // Sample the fastest popular method: nearly all calls intra-cluster.
  int64_t same_cluster = 0;
  const int n = 5000;
  const int32_t fast_method = 30;
  for (int i = 0; i < n; ++i) {
    const Span s = sampler.SampleMethod(fast_method).span;
    if (s.client_cluster == s.server_cluster) {
      ++same_cluster;
    }
  }
  EXPECT_GT(static_cast<double>(same_cluster) / n, 0.70);
}

TEST_F(FleetSamplerTest, WireLatencyReflectsDistance) {
  FleetSampler sampler = MakeSampler();
  // Slow analytical methods cross continents; their P99 wire latency must
  // approach WAN scale, while fast methods stay in the LAN regime.
  std::vector<double> fast_wire, slow_wire;
  for (int i = 0; i < 8000; ++i) {
    fast_wire.push_back(ToMillis(sampler.SampleMethod(30).span.latency.WireTotal()));
    slow_wire.push_back(ToMillis(sampler.SampleMethod(9950).span.latency.WireTotal()));
  }
  EXPECT_LT(ExactQuantile(fast_wire, 0.5), 2.0);
  EXPECT_GT(ExactQuantile(slow_wire, 0.99), 100.0);
}

TEST_F(FleetSamplerTest, CyclesUncorrelatedWithLatency) {
  FleetSampler sampler = MakeSampler();
  // §4.2: RPC latency is not correlated with CPU cost across methods.
  std::vector<double> latency, cycles;
  for (int m = 100; m < 10000; m += 200) {
    const MethodModel& model = catalog_->method(m);
    latency.push_back(std::log(model.app_median_us));
    cycles.push_back(std::log(model.cpu_median_cycles));
  }
  EXPECT_LT(std::abs(PearsonCorrelation(latency, cycles)), 0.45);
}

TEST_F(FleetSamplerTest, DeterministicForSeed) {
  FleetSampler a = MakeSampler(11);
  FleetSampler b = MakeSampler(11);
  for (int i = 0; i < 100; ++i) {
    const SampledRpc ra = a.Sample();
    const SampledRpc rb = b.Sample();
    EXPECT_EQ(ra.span.method_id, rb.span.method_id);
    EXPECT_EQ(ra.span.latency.Total(), rb.span.latency.Total());
    EXPECT_EQ(ra.cycles.Total(), rb.cycles.Total());
  }
}

}  // namespace
}  // namespace rpcscope
