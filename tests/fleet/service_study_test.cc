#include "src/fleet/service_study.h"

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/fleet/cluster_state.h"

namespace rpcscope {
namespace {

// Shared fixtures keep DES runs (the expensive part) to one per service.
class ServiceStudyTest : public ::testing::Test {
 protected:
  static ServiceCatalog& Catalog() {
    static ServiceCatalog catalog = ServiceCatalog::BuildDefault();
    return catalog;
  }

  static ServiceStudyResult RunFor(int32_t service_id, SimDuration duration = Seconds(4)) {
    ServiceStudyConfig config = MakeStudyConfig(Catalog(), service_id);
    config.duration = duration;
    return RunServiceStudy(config, {});
  }

  static double ComponentShareAtMedian(const std::vector<Span>& spans, RpcComponent c) {
    double comp = 0, total = 0;
    for (const Span& s : spans) {
      if (s.status != StatusCode::kOk) {
        continue;
      }
      comp += static_cast<double>(s.latency[c]);
      total += static_cast<double>(s.latency.Total());
    }
    return total > 0 ? comp / total : 0;
  }
};

TEST_F(ServiceStudyTest, ProducesSpansAndUtilizationNearTarget) {
  const ServiceStudyResult result = RunFor(Catalog().studied().bigtable);
  EXPECT_GT(result.spans.size(), 5000u);
  const ServiceStudyConfig config = MakeStudyConfig(Catalog(), Catalog().studied().bigtable);
  EXPECT_NEAR(result.server_app_utilization, config.target_utilization, 0.15);
}

TEST_F(ServiceStudyTest, BigtableIsAppDominant) {
  const ServiceStudyResult result = RunFor(Catalog().studied().bigtable);
  const double app = ComponentShareAtMedian(result.spans, RpcComponent::kServerApp);
  EXPECT_GT(app, 0.4);
}

TEST_F(ServiceStudyTest, SsdCacheIsQueueDominant) {
  const ServiceStudyResult result = RunFor(Catalog().studied().ssd_cache);
  double queue = 0, app = 0, total = 0;
  for (const Span& s : result.spans) {
    queue += static_cast<double>(s.latency.QueueTotal());
    app += static_cast<double>(s.latency[RpcComponent::kServerApp]);
    total += static_cast<double>(s.latency.Total());
  }
  EXPECT_GT(queue / total, app / total);
}

TEST_F(ServiceStudyTest, KvStoreIsStackHeavy) {
  const ServiceStudyResult result = RunFor(Catalog().studied().kv_store);
  double stack = 0, app = 0;
  for (const Span& s : result.spans) {
    stack += static_cast<double>(s.latency.ProcStackTotal());
    app += static_cast<double>(s.latency[RpcComponent::kServerApp]);
  }
  EXPECT_GT(stack, app);
}

TEST_F(ServiceStudyTest, TailExceedsMedianSubstantially) {
  const ServiceStudyResult result = RunFor(Catalog().studied().f1);
  std::vector<double> totals;
  for (const Span& s : result.spans) {
    if (s.status == StatusCode::kOk) {
      totals.push_back(ToMillis(s.latency.Total()));
    }
  }
  ASSERT_GT(totals.size(), 1000u);
  const double median = ExactQuantile(totals, 0.5);
  const double p95 = ExactQuantile(totals, 0.95);
  // Paper: P95 is 1.86-10.6x the median; F1 is the most variable.
  EXPECT_GT(p95 / median, 1.8);
}

TEST_F(ServiceStudyTest, ExogenousSlowdownInflatesLatency) {
  ServiceStudyConfig config = MakeStudyConfig(Catalog(), Catalog().studied().bigtable);
  config.duration = Seconds(3);
  ServiceStudyRun fast_run;
  ServiceStudyRun slow_run;
  slow_run.app_slowdown = 2.0;
  slow_run.wakeup_latency = Micros(60);
  slow_run.seed_salt = 1;
  const ServiceStudyResult fast = RunServiceStudy(config, fast_run);
  const ServiceStudyResult slow = RunServiceStudy(config, slow_run);
  auto p95 = [](const std::vector<Span>& spans) {
    std::vector<double> totals;
    for (const Span& s : spans) {
      totals.push_back(ToMillis(s.latency.Total()));
    }
    return ExactQuantile(totals, 0.95);
  };
  EXPECT_GT(p95(slow.spans), p95(fast.spans) * 1.4);
}

TEST_F(ServiceStudyTest, CrossClusterRunPaysWireLatency) {
  ServiceStudyConfig config = MakeStudyConfig(Catalog(), Catalog().studied().spanner);
  config.duration = Seconds(2);
  config.target_utilization = 0.3;
  ServiceStudyRun local;
  ServiceStudyRun remote;
  remote.client_cluster = 40;  // A different continent in the default topology.
  remote.seed_salt = 2;
  const ServiceStudyResult local_result = RunServiceStudy(config, local);
  const ServiceStudyResult remote_result = RunServiceStudy(config, remote);
  auto median_wire = [](const std::vector<Span>& spans) {
    std::vector<double> wire;
    for (const Span& s : spans) {
      wire.push_back(ToMillis(s.latency.WireTotal()));
    }
    return ExactQuantile(wire, 0.5);
  };
  EXPECT_GT(median_wire(remote_result.spans), median_wire(local_result.spans) * 20);
}

TEST_F(ServiceStudyTest, HedgedServiceRecordsCancellations) {
  ServiceStudyConfig config = MakeStudyConfig(Catalog(), Catalog().studied().kv_store);
  config.duration = Seconds(3);
  const ServiceStudyResult result = RunServiceStudy(config, {});
  int cancelled = 0;
  for (const Span& s : result.spans) {
    if (s.status == StatusCode::kCancelled) {
      ++cancelled;
    }
  }
  EXPECT_GT(cancelled, 0);
  EXPECT_GT(result.wasted_cycles, 0);
}

TEST_F(ServiceStudyTest, AllEightConfigsRunAndCategorize) {
  const auto configs = MakeAllStudyConfigs(Catalog());
  ASSERT_EQ(configs.size(), 8u);
  for (const ServiceStudyConfig& c : configs) {
    EXPECT_GE(c.service_id, 0);
    EXPECT_FALSE(c.service_name.empty());
    EXPECT_GT(c.app_median_us, 0);
    EXPECT_GT(c.request_bytes, 0);
  }
}

// A run's clusters and client count are caller input. Out of range they
// would put servers past the topology or clients in the next cluster, so the
// run refuses them in every build type.
TEST(ServiceStudyDeathTest, RefusesPlacementOutsideItsCluster) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  ServiceStudyConfig config = MakeStudyConfig(catalog, catalog.studied().bigtable);
  config.duration = Millis(20);
  config.warmup = 0;
  ServiceStudyRun past_topology;
  past_topology.server_cluster = Topology(TopologyOptions{}).num_clusters();
  EXPECT_DEATH((void)RunServiceStudy(config, past_topology), "server cluster [0-9]+ of [0-9]+");
  // Clients fill the upper half of the cluster's machines: 32 at the defaults.
  config.num_clients = 33;
  EXPECT_DEATH((void)RunServiceStudy(config, {}), "machine 64 of 64 per cluster");
}

}  // namespace
}  // namespace rpcscope
