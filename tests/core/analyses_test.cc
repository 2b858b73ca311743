// Integration tests of the figure analyses over small fleet samples.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/analyses.h"
#include "src/fleet/growth_model.h"

namespace rpcscope {
namespace {

class AnalysesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    services_ = new ServiceCatalog(ServiceCatalog::BuildDefault());
    methods_ = new MethodCatalog(MethodCatalog::Generate(*services_, {}));
    topology_ = new Topology(TopologyOptions{});
    costs_ = new CycleCostModel();
    scan_ = new FleetScan(methods_->size());
    FleetSampler sampler(services_, methods_, topology_, costs_, {});
    for (int i = 0; i < 300000; ++i) {
      scan_->Add(sampler.Sample());
    }
  }
  static void TearDownTestSuite() {
    delete scan_;
    delete costs_;
    delete topology_;
    delete methods_;
    delete services_;
  }

  static ServiceCatalog* services_;
  static MethodCatalog* methods_;
  static Topology* topology_;
  static CycleCostModel* costs_;
  static FleetScan* scan_;
};

ServiceCatalog* AnalysesTest::services_ = nullptr;
MethodCatalog* AnalysesTest::methods_ = nullptr;
Topology* AnalysesTest::topology_ = nullptr;
CycleCostModel* AnalysesTest::costs_ = nullptr;
FleetScan* AnalysesTest::scan_ = nullptr;

TEST_F(AnalysesTest, PopularityReportHasAnchors) {
  const FigureReport report = AnalyzePopularity(scan_->agg, *methods_);
  const std::string out = report.Render();
  EXPECT_NE(out.find("Network Disk Write"), std::string::npos);
  EXPECT_NE(out.find("28%"), std::string::npos);
  EXPECT_EQ(report.id, "fig03");
}

TEST_F(AnalysesTest, LatencyHeatmapNeedsAHundredSamplesPerMethod) {
  // The weighted scan gives many methods 100+ samples: ten decile rows.
  const FigureReport full = AnalyzeLatency(scan_->agg);
  ASSERT_EQ(full.tables.size(), 2u);
  EXPECT_EQ(full.tables[1].row_count(), 10u);

  // A 20-per-method stratified scan leaves no method with 100 samples. The
  // comparison table stays and the heatmap has no rows (this used to index
  // an empty vector).
  FleetScan sparse(methods_->size());
  FleetSampler sampler(services_, methods_, topology_, costs_, {});
  for (int32_t method = 0; method < 50; ++method) {
    for (int i = 0; i < 20; ++i) {
      sparse.Add(sampler.SampleMethod(method));
    }
  }
  ASSERT_TRUE(sparse.agg.Eligible(100).empty());
  const FigureReport report = AnalyzeLatency(sparse.agg);
  ASSERT_EQ(report.tables.size(), 2u);
  EXPECT_EQ(report.tables[1].row_count(), 0u);
  EXPECT_NE(report.Render().find("P99 latency, 50% of methods"), std::string::npos);
}

TEST_F(AnalysesTest, EmptyScanRendersNoNanCells) {
  // Every share in the scan-fed reports guards its zero denominator, so a
  // scan with no calls renders no NaN cell. The match includes the percent
  // sign because fig07's note contains the word "dominant".
  const FleetScan empty(methods_->size());
  const std::vector<FigureReport> reports = {
      AnalyzeLatency(empty.agg),
      AnalyzePopularity(empty.agg, *methods_),
      AnalyzeSizes(empty.agg),
      AnalyzeSizeRatio(empty.agg),
      AnalyzeServiceMix(empty.agg, empty.profile, *services_),
      AnalyzeTaxRatio(empty.agg),
      AnalyzeWireStack(empty.agg),
      AnalyzeQueueing(empty.agg),
      AnalyzeCycleTax(empty.profile),
      AnalyzeMethodCycles(empty.agg),
      AnalyzeErrors(empty.error_counts, empty.error_cycles, empty.total_calls),
  };
  for (const FigureReport& report : reports) {
    const std::string out = report.Render();
    EXPECT_EQ(out.find("nan%"), std::string::npos) << report.id << ":\n" << out;
  }
}

TEST_F(AnalysesTest, CycleTaxInPaperBallpark) {
  // Tax share of all cycles should land near the paper's 7.1%.
  EXPECT_GT(scan_->profile.TaxFraction(), 0.03);
  EXPECT_LT(scan_->profile.TaxFraction(), 0.15);
  // Compression is the single biggest tax category (Fig. 20b).
  const auto fractions = scan_->profile.TaxCategoryFractions();
  const double compression = fractions[static_cast<size_t>(CycleCategory::kCompression)];
  for (size_t c = 0; c < fractions.size(); ++c) {
    if (c != static_cast<size_t>(CycleCategory::kCompression)) {
      EXPECT_GE(compression, fractions[c]);
    }
  }
}

TEST_F(AnalysesTest, ErrorTaxonomyMatchesMix) {
  int64_t total_errors = 0;
  for (const auto& [code, count] : scan_->error_counts) {
    total_errors += count;
  }
  const double error_rate =
      static_cast<double>(total_errors) / static_cast<double>(scan_->total_calls);
  EXPECT_NEAR(error_rate, 0.019, 0.008);
  // Cancellations waste an outsized share of cycles relative to their count.
  const double cancelled_count_share =
      static_cast<double>(scan_->error_counts[StatusCode::kCancelled]) /
      static_cast<double>(total_errors);
  double total_wasted = 0;
  for (const auto& [code, cycles] : scan_->error_cycles) {
    total_wasted += cycles;
  }
  const double cancelled_cycle_share =
      scan_->error_cycles[StatusCode::kCancelled] / total_wasted;
  EXPECT_GT(cancelled_cycle_share, cancelled_count_share);
}

TEST_F(AnalysesTest, ErrorsReportRenders) {
  const FigureReport report =
      AnalyzeErrors(scan_->error_counts, scan_->error_cycles, scan_->total_calls);
  EXPECT_EQ(report.id, "fig23");
  EXPECT_NE(report.Render().find("CANCELLED"), std::string::npos);
}

TEST_F(AnalysesTest, ServiceMixAnchorsHold) {
  const FigureReport report = AnalyzeServiceMix(scan_->agg, scan_->profile, *services_);
  const std::string out = report.Render();
  EXPECT_NE(out.find("Network Disk"), std::string::npos);
  // Network Disk dominates bytes (Fig. 8b) despite few cycles.
  double nd_bytes = 0, total_bytes = 0;
  for (const MethodAccum& m : scan_->agg.methods()) {
    if (m.calls == 0) {
      continue;
    }
    const double b = m.req_size.sum() + m.resp_size.sum();
    total_bytes += b;
    if (m.service_id == services_->studied().network_disk) {
      nd_bytes += b;
    }
  }
  // Network Disk transfers the most bytes of any service (Fig. 8b).
  std::vector<double> per_service_bytes(static_cast<size_t>(services_->size()), 0.0);
  for (const MethodAccum& m : scan_->agg.methods()) {
    if (m.service_id >= 0) {
      per_service_bytes[static_cast<size_t>(m.service_id)] +=
          m.req_size.sum() + m.resp_size.sum();
    }
  }
  const double max_bytes =
      *std::max_element(per_service_bytes.begin(), per_service_bytes.end());
  EXPECT_GE(nd_bytes, max_bytes * 0.999);
  EXPECT_GT(nd_bytes / total_bytes, 0.15);
}

TEST_F(AnalysesTest, TaxOverviewTwoPassDeterministic) {
  auto make = [this]() {
    return FleetSampler(services_, methods_, topology_, costs_, {.seed = 55});
  };
  const FigureReport a = AnalyzeTaxOverview(make, 50000);
  const FigureReport b = AnalyzeTaxOverview(make, 50000);
  EXPECT_EQ(a.Render(), b.Render());
}

TEST_F(AnalysesTest, GrowthAnalysis) {
  GrowthModelOptions opts;
  opts.days = 60;
  MetricRegistry registry;
  GrowthModel(opts).GenerateInto(registry);
  const FigureReport report = AnalyzeGrowth(registry, opts.days);
  EXPECT_EQ(report.id, "fig01");
  EXPECT_NE(report.Render().find("annualized growth"), std::string::npos);
}

TEST_F(AnalysesTest, TreeShapeAnalyses) {
  CallGraphModel model(methods_, {});
  const TreeShapeStats stats = CollectTreeShapes(model, 800);
  ASSERT_FALSE(stats.tree_depths.empty());
  const FigureReport desc = AnalyzeDescendants(stats);
  const FigureReport anc = AnalyzeAncestors(stats);
  EXPECT_EQ(desc.id, "fig04");
  EXPECT_EQ(anc.id, "fig05");
  EXPECT_NE(anc.Render().find("wider than deep"), std::string::npos);
}

TEST_F(AnalysesTest, WhatIfIdentifiesInjectedBottleneck) {
  // Synthetic service where the tail is entirely queue-driven: the what-if
  // must attribute (nearly) all tail rescues to the server receive queue.
  std::vector<Span> spans;
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    Span s;
    s.method_id = 1;
    s.latency[RpcComponent::kServerApp] = Millis(1);
    s.latency[RpcComponent::kServerRecvQueue] =
        rng.NextBool(0.08) ? Millis(50) : Micros(100);
    spans.push_back(s);
  }
  const FigureReport report = AnalyzeWhatIf({{"synthetic", std::move(spans)}});
  const std::string csv = report.RenderCsv();
  // Column order: service,CSQ,ReqW,ReqPS,SRQ,App,...; SRQ rescues ~100%.
  EXPECT_NE(csv.find("100.0%"), std::string::npos);
}

TEST_F(AnalysesTest, CrossClusterSortsByLatency) {
  std::vector<CrossClusterPoint> points;
  for (int c = 0; c < 3; ++c) {
    CrossClusterPoint p;
    p.client_cluster = c;
    p.distance_class = c == 0 ? "same-cluster" : "intercontinental";
    for (int i = 0; i < 50; ++i) {
      Span s;
      s.latency[RpcComponent::kServerApp] = Millis(1);
      s.latency[RpcComponent::kRequestWire] = c == 0 ? Micros(30) : Millis(60);
      s.latency[RpcComponent::kResponseWire] = c == 0 ? Micros(30) : Millis(60);
      p.spans.push_back(s);
    }
    points.push_back(std::move(p));
  }
  const FigureReport report = AnalyzeCrossCluster(points);
  const std::string out = report.Render();
  // The wire share of remote clients approaches 100%.
  EXPECT_NE(out.find("intercontinental"), std::string::npos);
  EXPECT_EQ(report.id, "fig19");
}

}  // namespace
}  // namespace rpcscope
