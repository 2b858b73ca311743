// One analysis function per paper figure/table. Each consumes substrate
// output (sampled spans, call trees, DES study results, profiles, metric
// series) and produces a FigureReport with paper-vs-measured comparisons.
// bench/figures.cc (rpcscope_figures) holds one thin row per figure: build the
// workload -> call the analysis -> print.
#ifndef RPCSCOPE_SRC_CORE_ANALYSES_H_
#define RPCSCOPE_SRC_CORE_ANALYSES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/method_stats.h"
#include "src/core/report.h"
#include "src/fleet/call_graph.h"
#include "src/fleet/cluster_state.h"
#include "src/fleet/fleet_sampler.h"
#include "src/fleet/load_balancer.h"
#include "src/fleet/method_catalog.h"
#include "src/fleet/service_catalog.h"
#include "src/monitor/metrics.h"
#include "src/profile/profile.h"
#include "src/rpc/stage_model.h"

namespace rpcscope {

// --- Fig. 1: normalized RPS per CPU cycle over the measurement window.
FigureReport AnalyzeGrowth(const MetricRegistry& registry, int days);

// --- Fig. 2: per-method RPC completion time distributions.
FigureReport AnalyzeLatency(const MethodAggregator& agg);

// --- Fig. 3: method popularity vs latency rank.
FigureReport AnalyzePopularity(const MethodAggregator& agg, const MethodCatalog& catalog);

// --- Figs. 4 & 5: descendants / ancestors of nested call trees.
struct TreeShapeStats {
  // Per-method distributions of descendant counts and depths.
  std::map<int32_t, std::vector<double>> descendants_by_method;
  std::map<int32_t, std::vector<double>> ancestors_by_method;
  std::vector<double> tree_depths;
  std::vector<double> tree_widths;
};
TreeShapeStats CollectTreeShapes(CallGraphModel& model, int num_trees);
FigureReport AnalyzeDescendants(const TreeShapeStats& stats);
FigureReport AnalyzeAncestors(const TreeShapeStats& stats);

// --- Figs. 6 & 7: request sizes and response/request ratios.
FigureReport AnalyzeSizes(const MethodAggregator& agg);
FigureReport AnalyzeSizeRatio(const MethodAggregator& agg);

// --- Fig. 8 + Table 1: service mix by calls / bytes / cycles.
FigureReport AnalyzeServiceMix(const MethodAggregator& agg, const ProfileCollector& profile,
                               const ServiceCatalog& services);
FigureReport MakeTable1(const ServiceCatalog& services);

// --- Fig. 10: fleet-wide latency tax overview (mean and P95 tail).
// Two passes over identically-seeded samplers (bounded memory at fleet
// sample counts): pass 1 finds the P95 RCT, pass 2 aggregates components.
FigureReport AnalyzeTaxOverview(const std::function<FleetSampler()>& make_sampler, int64_t n);

// --- Figs. 11-13: per-method tax ratio, wire+stack latency, queueing.
FigureReport AnalyzeTaxRatio(const MethodAggregator& agg);
FigureReport AnalyzeWireStack(const MethodAggregator& agg);
FigureReport AnalyzeQueueing(const MethodAggregator& agg);

// --- Figs. 14-15: per-service completion-time breakdowns and the what-if
// tail analysis, from DES study spans.
struct ServiceSpans {
  std::string name;
  std::vector<Span> spans;
};
FigureReport AnalyzeServiceBreakdown(const std::vector<ServiceSpans>& studies);
FigureReport AnalyzeWhatIf(const std::vector<ServiceSpans>& studies);

// --- Fig. 16: P95 breakdown across clusters.
struct ClusterRunSpans {
  int cluster_index = 0;
  double exo_cpu_util = 0;
  std::vector<Span> spans;
};
FigureReport AnalyzeClusterVariation(
    const std::vector<std::pair<std::string, std::vector<ClusterRunSpans>>>& per_service);

// --- Fig. 17: exogenous variables vs P95 latency (bucketed sweeps).
// Buckets carry precomputed per-run statistics (runs are reused across the
// four variables, so carrying raw spans four times would dominate memory).
struct ExogenousBucket {
  double variable_value = 0;
  double p95_latency_ms = 0;
  double app_share = 0;
  double queue_share = 0;
};
FigureReport AnalyzeExogenousSweep(
    const std::vector<std::pair<std::string, std::vector<ExogenousBucket>>>& sweeps);

// Reduces one run's spans to the bucket statistics.
ExogenousBucket SummarizeRun(double variable_value, const std::vector<Span>& spans);

// --- Fig. 18: 24-hour co-movement of latency and exogenous variables.
struct DiurnalWindow {
  double hour = 0;
  double p95_latency_ms = 0;
  ExogenousState state;
};
FigureReport AnalyzeDiurnal(const std::vector<std::pair<std::string, std::vector<DiurnalWindow>>>&
                                clusters);

// --- Fig. 19: cross-cluster latency staircase.
struct CrossClusterPoint {
  int client_cluster = 0;
  std::string distance_class;
  std::vector<Span> spans;
};
FigureReport AnalyzeCrossCluster(const std::vector<CrossClusterPoint>& points);

// --- Figs. 20 & 21: cycle tax breakdown and per-method cycles.
FigureReport AnalyzeCycleTax(const ProfileCollector& profile);
FigureReport AnalyzeMethodCycles(const MethodAggregator& agg);

// --- Offload what-if (docs/TAX.md#reading-offload_whatif-output): reprice
// sampled fleet RPCs under each stage-cost profile in the catalog and compare
// fleet-wide completion-time quantiles and the cycle tax against the baseline
// profile (catalog id 0). The repricing is a span transform in the spirit of
// Fig. 15: queueing and wire components are left untouched; the two proc+stack
// components are scaled by the profile/baseline host-cycle ratio for their
// direction, plus device transfer+execution time when stages are offloaded.
struct OffloadProfileOutcome {
  std::string name;
  double p50_ms = 0;
  double p99_ms = 0;
  double host_tax_cycles = 0;  // Host-side stage cycles across all messages.
  double device_cycles = 0;    // Cycles moved to offload devices.
  std::array<double, kNumTaxCategories> category_cycles{};
};
struct OffloadWhatIf {
  FigureReport report;
  // One outcome per catalog profile, in catalog (id) order.
  std::vector<OffloadProfileOutcome> profiles;
};
OffloadWhatIf AnalyzeOffloadWhatIf(const std::vector<SampledRpc>& rpcs,
                                   const CycleCostModel& costs,
                                   const ProfileCatalog& profiles);

// --- Fig. 22: load balancing across clusters and machines.
FigureReport AnalyzeLoadBalance(
    const std::vector<std::pair<std::string, LoadBalanceResult>>& services);

// --- Fig. 23: error taxonomy by count and wasted cycles.
FigureReport AnalyzeErrors(const std::map<StatusCode, int64_t>& error_counts,
                           const std::map<StatusCode, double>& error_cycles,
                           int64_t total_calls);

// Shared helper: feed sampled RPCs into an aggregator/profile/error maps.
struct FleetScan {
  MethodAggregator agg;
  ProfileCollector profile;
  std::map<StatusCode, int64_t> error_counts;
  std::map<StatusCode, double> error_cycles;
  int64_t total_calls = 0;

  explicit FleetScan(int32_t num_methods) : agg(num_methods) {}
  void Add(const SampledRpc& rpc);
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_CORE_ANALYSES_H_
