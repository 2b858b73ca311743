#include "src/fleet/mini_fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/fleet/service_study.h"
#include "src/trace/tree.h"

namespace rpcscope {
namespace {

class MiniFleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new ServiceCatalog(ServiceCatalog::BuildDefault());
    MiniFleetOptions options;
    options.duration = Seconds(2);
    options.frontend_rps = 400;
    result_ = new MiniFleetResult(RunMiniFleet(*catalog_, options));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete catalog_;
  }
  static ServiceCatalog* catalog_;
  static MiniFleetResult* result_;
};

ServiceCatalog* MiniFleetTest::catalog_ = nullptr;
MiniFleetResult* MiniFleetTest::result_ = nullptr;

TEST_F(MiniFleetTest, AllStudiedServicesServeTraffic) {
  const StudiedServices& ids = catalog_->studied();
  for (int32_t id : {ids.network_disk, ids.bigtable, ids.kv_store, ids.ssd_cache,
                     ids.bigquery, ids.video_metadata, ids.spanner, ids.f1,
                     ids.ml_inference}) {
    EXPECT_GT(result_->spans_per_service[id], 0)
        << catalog_->service(id).name;
  }
  EXPECT_GT(result_->root_calls, 1000u);
  EXPECT_GT(result_->spans.size(), result_->root_calls / 2);
}

TEST_F(MiniFleetTest, DependencyEdgesAppearAsNestedSpans) {
  // Find a KV-Store span whose parent chain reaches Bigtable and then
  // Network Disk (Table 1's KV -> Bigtable -> Network Disk edges).
  TraceForest forest(result_->spans);
  const StudiedServices& ids = catalog_->studied();
  bool kv_to_bt = false, bt_to_nd = false, bq_to_ssd = false;
  std::unordered_map<SpanId, const Span*> by_id;
  for (const Span& s : result_->spans) {
    by_id[s.span_id] = &s;
  }
  for (const Span& s : result_->spans) {
    if (s.parent_span_id == 0) {
      continue;
    }
    auto it = by_id.find(s.parent_span_id);
    if (it == by_id.end()) {
      continue;
    }
    const Span& parent = *it->second;
    if (s.service_id == ids.bigtable && parent.service_id == ids.kv_store) {
      kv_to_bt = true;
    }
    if (s.service_id == ids.network_disk && parent.service_id == ids.bigtable) {
      bt_to_nd = true;
    }
    if (s.service_id == ids.ssd_cache && parent.service_id == ids.bigquery) {
      bq_to_ssd = true;
    }
  }
  EXPECT_TRUE(kv_to_bt);
  EXPECT_TRUE(bt_to_nd);
  EXPECT_TRUE(bq_to_ssd);
}

TEST_F(MiniFleetTest, ParentLatencyCoversChildren) {
  // The paper's measurement convention: nested call time is part of the
  // parent's application time. Spot-check on BigQuery fan-outs.
  std::unordered_map<SpanId, const Span*> by_id;
  for (const Span& s : result_->spans) {
    by_id[s.span_id] = &s;
  }
  const StudiedServices& ids = catalog_->studied();
  int checked = 0;
  for (const Span& s : result_->spans) {
    if (s.service_id != ids.ssd_cache || s.parent_span_id == 0) {
      continue;
    }
    auto it = by_id.find(s.parent_span_id);
    if (it == by_id.end() || it->second->service_id != ids.bigquery) {
      continue;
    }
    EXPECT_GE(it->second->latency[RpcComponent::kServerApp], s.latency.Total());
    if (++checked > 200) {
      break;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST_F(MiniFleetTest, TreesAreShallowAndWide) {
  TraceForest forest(result_->spans);
  int64_t max_depth = 0;
  for (const SpanShape& shape : forest.span_shapes()) {
    max_depth = std::max(max_depth, shape.ancestors);
  }
  // Longest Table-1 chain: frontend root (depth 0) -> KV -> Bigtable -> ND.
  EXPECT_GE(max_depth, 2);
  EXPECT_LE(max_depth, 4);
}

// Each service serves its study preset's error rate: a call fails NOT_FOUND
// with probability error_prob, drawn per call, so the failed share of all
// spans is a binomial sample around the span-weighted error_prob. No fault,
// deadline or policy is active, so nothing else fails.
TEST_F(MiniFleetTest, ServesTheStudyErrorRate) {
  double expected = 0;
  double variance = 0;
  int64_t not_found = 0;
  int64_t ok = 0;
  for (const Span& s : result_->spans) {
    const double p = MakeStudyConfig(*catalog_, s.service_id).error_prob;
    expected += p;
    variance += p * (1 - p);
    not_found += s.status == StatusCode::kNotFound ? 1 : 0;
    ok += s.status == StatusCode::kOk ? 1 : 0;
  }
  EXPECT_EQ(ok + not_found, static_cast<int64_t>(result_->spans.size()));
  // Four standard deviations of the binomial count.
  EXPECT_NEAR(static_cast<double>(not_found), expected, 4 * std::sqrt(variance));
}

// At fleet_dense's load (one domain, 4,000 rps per frontend) no service is
// deployed past its capacity: each one's median receive-queue wait stays
// below its study app median. An overloaded service shows a backlog that
// grows for as long as the run lasts instead.
TEST(MiniFleetCapacityTest, NoServiceQueuesAtDenseLoad) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  MiniFleetOptions options;
  options.duration = Seconds(2);
  options.frontend_rps = 4000;
  const MiniFleetResult result = RunMiniFleet(catalog, options);
  std::map<int32_t, std::vector<SimDuration>> waits;
  for (const Span& s : result.spans) {
    waits[s.service_id].push_back(s.latency[RpcComponent::kServerRecvQueue]);
  }
  const StudiedServices& ids = catalog.studied();
  for (int32_t id : {ids.network_disk, ids.bigtable, ids.kv_store, ids.ssd_cache, ids.bigquery,
                     ids.video_metadata, ids.spanner, ids.f1, ids.ml_inference}) {
    std::vector<SimDuration>& w = waits[id];
    ASSERT_GT(w.size(), 100u) << catalog.service(id).name;
    const auto median = w.begin() + static_cast<std::ptrdiff_t>(w.size() / 2);
    std::nth_element(w.begin(), median, w.end());
    EXPECT_LT(ToMicros(*median), MakeStudyConfig(catalog, id).app_median_us)
        << catalog.service(id).name;
  }
}

// MiniFleetOptions::fault_plan only needs to live through the constructor,
// so ConfigHash must read the fleet's own copy of the plan, never the
// caller's pointer.
TEST(MiniFleetConfigHashTest, FaultPlanNeedNotOutliveConstruction) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  auto plan = std::make_unique<FaultPlan>();
  plan->crashes.push_back({.machine = 1, .at = Millis(300), .restart_at = Millis(600)});
  plan->gray_slowdowns.push_back(
      {.machine = 2, .factor = 40.0, .start = Millis(300), .end = Millis(650)});
  plan->losses.push_back(
      {.src = 3, .dst = 4, .loss_probability = 0.2, .start = Millis(350), .end = Millis(700)});
  MiniFleetOptions options;
  options.duration = Seconds(1);
  options.fault_plan = plan.get();
  const MiniFleet fleet(catalog, options);
  const uint64_t while_alive = fleet.ConfigHash(Millis(250));
  plan.reset();
  EXPECT_EQ(fleet.ConfigHash(Millis(250)), while_alive);

  // The plan's content is still part of the hash.
  options.fault_plan = nullptr;
  const MiniFleet no_plan(catalog, options);
  EXPECT_NE(no_plan.ConfigHash(Millis(250)), while_alive);
}

}  // namespace
}  // namespace rpcscope
