// rpcscope_figures: regenerates the paper's figures and Table 1.
//
// One row per figure, keyed by the name of the binary that used to print it.
// Every row reads the one shared const FleetContext and nothing else, so a
// row prints the same bytes alone or after any other rows.
//
// Usage: rpcscope_figures [--fig=NAME]... [--csv]
//   --fig=NAME  prints the named report; repeat to print several, in the order
//               given. Without --fig every report is printed, in table order.
//   --csv       prints each report's tables as CSV.
// An unknown name or argument lists the valid names on stderr and exits 2.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/fleet/cluster_state.h"
#include "src/fleet/growth_model.h"
#include "src/fleet/load_balancer.h"
#include "src/fleet/service_study.h"

namespace rpcscope {
namespace {

// Fig. 14: intra-cluster RPC completion-time breakdown CDFs for the eight
// studied services, from full discrete-event runs of the RPC stack.
FigureReport Fig14Breakdown(const FleetContext& ctx) {
  std::vector<ServiceSpans> studies;
  for (ServiceStudyConfig config : MakeAllStudyConfigs(ctx.services)) {
    config.duration = Seconds(6);
    ServiceStudyResult result = RunServiceStudy(config, {});
    studies.push_back({config.service_name, std::move(result.spans)});
  }
  return AnalyzeServiceBreakdown(studies);
}

// Fig. 15: what-if analysis — percentage of P95-tail RPCs that become
// non-tail when each latency component is reduced to its median.
FigureReport Fig15WhatIf(const FleetContext& ctx) {
  std::vector<ServiceSpans> studies;
  // The paper's Fig. 15 includes BigQuery alongside the Table-1 services.
  std::vector<ServiceStudyConfig> configs = MakeAllStudyConfigs(ctx.services);
  configs.push_back(MakeStudyConfig(ctx.services, ctx.services.studied().bigquery));
  for (ServiceStudyConfig config : configs) {
    config.duration = Seconds(6);
    ServiceStudyResult result = RunServiceStudy(config, {});
    studies.push_back({config.service_name, std::move(result.spans)});
  }
  return AnalyzeWhatIf(studies);
}

// Fig. 16: P95 latency breakdown of each studied service across clusters —
// same workload and platform, different exogenous cluster state.
FigureReport Fig16Clusters(const FleetContext& ctx) {
  const ClusterStateModel state_model({});
  // Cluster counts per service follow the paper's x-axes (5-44 clusters).
  const std::vector<int> cluster_counts = {22, 26, 44, 22, 5, 44, 14, 16};

  std::vector<std::pair<std::string, std::vector<ClusterRunSpans>>> per_service;
  const auto configs = MakeAllStudyConfigs(ctx.services);
  for (size_t i = 0; i < configs.size(); ++i) {
    ServiceStudyConfig config = configs[i];
    config.duration = Seconds(2);
    std::vector<ClusterRunSpans> runs;
    const int n_clusters = std::min(cluster_counts[i], ctx.topology.num_clusters());
    for (int c = 0; c < n_clusters; ++c) {
      const ExogenousState state =
          state_model.StateAt(static_cast<ClusterId>(c), Hours(12));
      ServiceStudyRun run;
      run.server_cluster = static_cast<ClusterId>(c);
      run.app_slowdown = ClusterStateModel::AppSlowdown(state);
      run.wakeup_latency = ClusterStateModel::WakeupLatency(state);
      run.seed_salt = static_cast<uint64_t>(c);
      ServiceStudyResult result = RunServiceStudy(config, run);
      runs.push_back({c, state.cpu_util, std::move(result.spans)});
    }
    per_service.emplace_back(config.service_name, std::move(runs));
  }
  return AnalyzeClusterVariation(per_service);
}

// Fig. 17: exogenous variables (CPU util, memory BW, long-wakeup rate, CPI)
// vs P95 latency breakdown, for one service per category.
FigureReport Fig17Exogenous(const FleetContext& ctx) {
  const ClusterStateModel state_model({});
  const StudiedServices& ids = ctx.services.studied();

  FigureReport combined;
  combined.id = "fig17";
  combined.title = "Exogenous variables vs latency components (Fig. 17)";

  // One service per category, as in the paper: Bigtable (app-heavy),
  // KV-Store (stack-heavy), Video Metadata (queue-heavy).
  for (int32_t service : {ids.bigtable, ids.kv_store, ids.video_metadata}) {
    ServiceStudyConfig config = MakeStudyConfig(ctx.services, service);
    config.duration = Seconds(2);

    // Sweep cluster state by sampling many (cluster, time) pairs; each run is
    // summarized once, then bucketed by each of the four variables.
    struct RunRecord {
      ExogenousState state;
      ExogenousBucket summary;
    };
    std::vector<RunRecord> records;
    for (int c = 0; c < 16; ++c) {
      const ExogenousState state =
          state_model.StateAt(static_cast<ClusterId>(c * 3), Hours((c * 7) % 24));
      ServiceStudyRun run;
      run.server_cluster = 0;
      run.app_slowdown = ClusterStateModel::AppSlowdown(state);
      run.wakeup_latency = ClusterStateModel::WakeupLatency(state);
      run.seed_salt = static_cast<uint64_t>(c) + 100;
      ServiceStudyResult result = RunServiceStudy(config, run);
      records.push_back({state, SummarizeRun(0, result.spans)});
    }

    std::vector<std::pair<std::string, std::vector<ExogenousBucket>>> sweeps;
    auto sweep = [&](const std::string& name, auto extract) {
      std::vector<ExogenousBucket> buckets;
      for (const RunRecord& r : records) {
        ExogenousBucket b = r.summary;
        b.variable_value = extract(r.state);
        buckets.push_back(b);
      }
      std::sort(buckets.begin(), buckets.end(),
                [](const ExogenousBucket& a, const ExogenousBucket& b) {
                  return a.variable_value < b.variable_value;
                });
      sweeps.emplace_back(config.service_name + ": " + name, std::move(buckets));
    };
    sweep("CPU util", [](const ExogenousState& s) { return s.cpu_util; });
    sweep("memory BW (GB/s)", [](const ExogenousState& s) { return s.memory_bw_gbps; });
    sweep("long-wakeup rate", [](const ExogenousState& s) { return s.long_wakeup_rate; });
    sweep("cycles/instr", [](const ExogenousState& s) { return s.cycles_per_instr; });

    FigureReport part = AnalyzeExogenousSweep(sweeps);
    for (TextTable& t : part.tables) {
      combined.tables.push_back(std::move(t));
    }
  }
  combined.notes.push_back("Each service category responds to server-state variables; higher "
                           "utilization, wake-up rates, and CPI inflate tail latency.");
  return combined;
}

// Fig. 18: 24-hour co-movement of Bigtable tail latency with the exogenous
// variables, in a representative fast and slow cluster.
FigureReport Fig18Diurnal(const FleetContext& ctx) {
  const ClusterStateModel state_model({});
  ServiceStudyConfig config = MakeStudyConfig(ctx.services, ctx.services.studied().bigtable);
  config.duration = Seconds(1);
  config.warmup = Millis(200);

  // Pick a fast and a slow cluster by midday CPU utilization.
  ClusterId fast = 0, slow = 0;
  double best_util = 1.0, worst_util = 0.0;
  for (ClusterId c = 0; c < ctx.topology.num_clusters(); ++c) {
    const double util = state_model.StateAt(c, Hours(12)).cpu_util;
    if (util < best_util) {
      best_util = util;
      fast = c;
    }
    if (util > worst_util) {
      worst_util = util;
      slow = c;
    }
  }

  std::vector<std::pair<std::string, std::vector<DiurnalWindow>>> clusters;
  for (const auto& [name, cluster] :
       std::vector<std::pair<std::string, ClusterId>>{{"fast cluster", fast},
                                                      {"slow cluster", slow}}) {
    std::vector<DiurnalWindow> windows;
    for (int half_hour = 0; half_hour < 48; ++half_hour) {
      const SimTime t = Minutes(30 * half_hour);
      const ExogenousState state = state_model.StateAt(cluster, t);
      ServiceStudyRun run;
      run.server_cluster = cluster;
      run.app_slowdown = ClusterStateModel::AppSlowdown(state);
      run.wakeup_latency = ClusterStateModel::WakeupLatency(state);
      run.seed_salt = static_cast<uint64_t>(half_hour) * 31 + static_cast<uint64_t>(cluster);
      ServiceStudyResult result = RunServiceStudy(config, run);
      std::vector<double> totals;
      for (const Span& s : result.spans) {
        if (s.status == StatusCode::kOk) {
          totals.push_back(ToMillis(s.latency.Total()));
        }
      }
      DiurnalWindow w;
      w.hour = half_hour / 2.0;
      w.p95_latency_ms = ExactQuantile(totals, 0.95);
      w.state = state;
      windows.push_back(w);
    }
    clusters.emplace_back(name, std::move(windows));
  }
  return AnalyzeDiurnal(clusters);
}

// Fig. 19: Spanner cross-cluster latency — clients in many clusters calling
// servers in one cluster; the wire dominates with distance.
FigureReport Fig19CrossCluster(const FleetContext& ctx) {
  ServiceStudyConfig config = MakeStudyConfig(ctx.services, ctx.services.studied().spanner);
  config.duration = Seconds(1);
  config.warmup = Millis(200);
  config.target_utilization = 0.3;
  config.num_clients = 4;

  const ClusterId server_cluster = 0;
  std::vector<CrossClusterPoint> points;
  for (ClusterId client = 0; client < ctx.topology.num_clusters(); ++client) {
    ServiceStudyRun run;
    run.server_cluster = server_cluster;
    run.client_cluster = client;
    run.seed_salt = static_cast<uint64_t>(client) + 7000;
    ServiceStudyResult result = RunServiceStudy(config, run);
    CrossClusterPoint p;
    p.client_cluster = client;
    p.distance_class =
        std::string(DistanceClassName(ctx.topology.ClusterDistance(client, server_cluster)));
    p.spans = std::move(result.spans);
    points.push_back(std::move(p));
  }
  return AnalyzeCrossCluster(points);
}

// Fig. 22: CPU usage distribution across clusters vs across machines within
// clusters, per studied service.
FigureReport Fig22LoadBalance(const FleetContext& ctx) {
  const StudiedServices& ids = ctx.services.studied();

  std::vector<std::pair<std::string, LoadBalanceResult>> results;
  const auto configs = MakeAllStudyConfigs(ctx.services);
  for (const ServiceStudyConfig& config : configs) {
    LoadBalanceStudyOptions opts;
    opts.seed = 4242 + static_cast<uint64_t>(config.service_id);
    // Spanner, F1, and ML Inference route by data affinity (§4.3).
    opts.data_dependent = config.service_id == ids.spanner || config.service_id == ids.f1 ||
                          config.service_id == ids.ml_inference;
    LoadBalanceStudy study(&ctx.topology, opts);
    results.emplace_back(config.service_name, study.Run());
  }
  return AnalyzeLoadBalance(results);
}

struct Figure {
  std::string_view name;
  FigureReport (*build)(const FleetContext& ctx);
};

// One row per figure, printed in this order when no --fig is given.
constexpr Figure kFigures[] = {
    // Fig. 1: normalized RPS per CPU cycle over 700 days.
    {"fig01_growth",
     [](const FleetContext&) {
       GrowthModelOptions opts;
       MetricRegistry registry(
           MetricRegistry::Options{.sample_window = Minutes(30), .retention = Days(701)});
       GrowthModel model(opts);
       model.GenerateInto(registry);
       return AnalyzeGrowth(registry, opts.days);
     }},
    // Fig. 2: per-method RPC completion time heatmap and tail CDF.
    {"fig02_latency",
     [](const FleetContext& ctx) { return AnalyzeLatency(StratifiedScan(ctx, 300).agg); }},
    // Fig. 3: per-method RPC frequency and popularity skew.
    {"fig03_popularity",
     [](const FleetContext& ctx) {
       return AnalyzePopularity(WeightedScan(ctx, 3000000).agg, ctx.methods);
     }},
    // Fig. 4: per-method descendant counts of nested call trees.
    {"fig04_descendants",
     [](const FleetContext& ctx) {
       CallGraphModel model(&ctx.methods, {});
       return AnalyzeDescendants(CollectTreeShapes(model, 12000));
     }},
    // Fig. 5: per-method ancestor counts (call-tree depth).
    {"fig05_ancestors",
     [](const FleetContext& ctx) {
       CallGraphModel model(&ctx.methods, {});
       return AnalyzeAncestors(CollectTreeShapes(model, 12000));
     }},
    // Fig. 6: per-method request/response sizes.
    {"fig06_sizes",
     [](const FleetContext& ctx) { return AnalyzeSizes(StratifiedScan(ctx, 300).agg); }},
    // Fig. 7: per-method response/request size ratio.
    {"fig07_ratio",
     [](const FleetContext& ctx) { return AnalyzeSizeRatio(StratifiedScan(ctx, 300).agg); }},
    // Fig. 8: fraction of top services by calls, bytes, and cycles.
    {"fig08_services",
     [](const FleetContext& ctx) {
       const FleetScan scan = WeightedScan(ctx, 3000000);
       return AnalyzeServiceMix(scan.agg, scan.profile, ctx.services);
     }},
    // Table 1: the eight studied services.
    {"table1_services", [](const FleetContext& ctx) { return MakeTable1(ctx.services); }},
    // Fig. 10: fleet-wide RPC latency tax, mean and P95 tail.
    {"fig10_tax",
     [](const FleetContext& ctx) {
       return AnalyzeTaxOverview([&ctx]() { return ctx.MakeSampler(7); }, 2000000);
     }},
    // Fig. 11: per-method ratio of RPC latency tax to RCT.
    {"fig11_taxratio",
     [](const FleetContext& ctx) { return AnalyzeTaxRatio(StratifiedScan(ctx, 300).agg); }},
    // Fig. 12: per-method network wire + proc/stack latency.
    {"fig12_network",
     [](const FleetContext& ctx) { return AnalyzeWireStack(StratifiedScan(ctx, 300).agg); }},
    // Fig. 13: per-method queueing latency.
    {"fig13_queuing",
     [](const FleetContext& ctx) { return AnalyzeQueueing(StratifiedScan(ctx, 300).agg); }},
    {"fig14_breakdown", Fig14Breakdown},
    {"fig15_whatif", Fig15WhatIf},
    {"fig16_clusters", Fig16Clusters},
    {"fig17_exogenous", Fig17Exogenous},
    {"fig18_diurnal", Fig18Diurnal},
    {"fig19_crosscluster", Fig19CrossCluster},
    // Fig. 20: the RPC cycle tax and its breakdown.
    {"fig20_cycletax",
     [](const FleetContext& ctx) { return AnalyzeCycleTax(WeightedScan(ctx, 2000000).profile); }},
    // Fig. 21: per-method normalized CPU cycles.
    {"fig21_cycles",
     [](const FleetContext& ctx) { return AnalyzeMethodCycles(StratifiedScan(ctx, 300).agg); }},
    {"fig22_loadbalance", Fig22LoadBalance},
    // Fig. 23: RPC error taxonomy by count and wasted cycles.
    {"fig23_errors",
     [](const FleetContext& ctx) {
       const FleetScan scan = WeightedScan(ctx, 3000000);
       return AnalyzeErrors(scan.error_counts, scan.error_cycles, scan.total_calls);
     }},
};

int Usage(std::string_view bad) {
  std::fprintf(stderr, "rpcscope_figures: unknown argument '%.*s'\n",
               static_cast<int>(bad.size()), bad.data());
  std::fputs("usage: rpcscope_figures [--fig=NAME]... [--csv]\nNAME is one of:\n", stderr);
  for (const Figure& fig : kFigures) {
    std::fprintf(stderr, "  %.*s\n", static_cast<int>(fig.name.size()), fig.name.data());
  }
  return 2;
}

}  // namespace
}  // namespace rpcscope

int main(int argc, char** argv) {
  using namespace rpcscope;
  std::vector<const Figure*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--csv") {
      continue;  // RunFigureMain reads it.
    }
    const Figure* fig = nullptr;
    if (arg.starts_with("--fig=")) {
      const std::string_view name = arg.substr(6);
      const auto it = std::find_if(std::begin(kFigures), std::end(kFigures),
                                   [name](const Figure& f) { return f.name == name; });
      fig = it == std::end(kFigures) ? nullptr : &*it;
    }
    if (fig == nullptr) {
      return Usage(arg);
    }
    selected.push_back(fig);
  }
  if (selected.empty()) {
    for (const Figure& fig : kFigures) {
      selected.push_back(&fig);
    }
  }
  const FleetContext ctx;
  for (const Figure* fig : selected) {
    RunFigureMain(argc, argv, fig->build(ctx));
  }
  return 0;
}
