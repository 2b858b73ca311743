// Fleet-wide analyses: Figs. 1-3, 6-8, 10-13, 20, 21, 23 and Table 1.
#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/stats.h"
#include "src/core/analyses.h"
#include "src/core/plot.h"
#include "src/fleet/growth_model.h"

namespace rpcscope {

namespace {

std::string FmtUs(double us) { return FormatDuration(DurationFromMicros(us)); }

// Each eligible method's `q`-quantile of one of its histograms, sorted
// ascending. A report builds each such vector once and reads every method
// quantile from it: the median method's P99 RCT is SortedQuantile(p99, 0.5)
// for p99 = MethodQuantiles(agg, &MethodAccum::rct, 0.99).
std::vector<double> MethodQuantiles(const MethodAggregator& agg,
                                    LogHistogram MethodAccum::*histogram, double q) {
  return agg.CollectSorted(
      100, [histogram, q](const MethodAccum& m) { return (m.*histogram).Quantile(q); });
}

// `part / whole`, or 0 when nothing was counted (an empty scan).
double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

}  // namespace

void FleetScan::Add(const SampledRpc& rpc) {
  agg.Add(rpc.span);
  profile.AddRpcSample(rpc.span.service_id, rpc.cycles, rpc.machine_speed);
  ++total_calls;
  if (rpc.span.status != StatusCode::kOk) {
    ++error_counts[rpc.span.status];
    error_cycles[rpc.span.status] += rpc.cycles.Total() / rpc.machine_speed;
  }
}

FigureReport AnalyzeGrowth(const MetricRegistry& registry, int days) {
  FigureReport report;
  report.id = "fig01";
  report.title = "Normalized RPS per CPU cycle over time (Fig. 1)";
  const std::vector<double> ratio = GrowthModel::NormalizedDailyRatio(registry, days);

  TextTable series({"day", "normalized RPS/CPU"});
  for (size_t d = 0; d < ratio.size(); d += 28) {
    series.AddRow({std::to_string(d), FormatDouble(ratio[d], 3)});
  }
  if (!ratio.empty()) {
    series.AddRow({std::to_string(ratio.size() - 1), FormatDouble(ratio.back(), 3)});
  }

  ComparisonTable cmp;
  if (!ratio.empty()) {
    const double total_growth = ratio.back();
    const double annual =
        std::pow(total_growth, 365.0 / static_cast<double>(ratio.size())) - 1.0;
    cmp.Add("total growth over window", "+64%",
            "+" + FormatDouble((total_growth - 1.0) * 100, 1) + "%");
    cmp.Add("annualized growth", "~30%/yr", FormatDouble(annual * 100, 1) + "%/yr");
  }
  report.tables.push_back(cmp.Build());
  report.tables.push_back(series);
  report.notes.push_back("RPC usage grows faster than compute: the fleet serves more RPCs per "
                         "CPU cycle every year.");
  return report;
}

FigureReport AnalyzeLatency(const MethodAggregator& agg) {
  FigureReport report;
  report.id = "fig02";
  report.title = "Per-method RPC completion time (Fig. 2)";

  const std::vector<double> p1 = MethodQuantiles(agg, &MethodAccum::rct, 0.01);
  const std::vector<double> p50 = MethodQuantiles(agg, &MethodAccum::rct, 0.5);
  const std::vector<double> p99 = MethodQuantiles(agg, &MethodAccum::rct, 0.99);

  ComparisonTable cmp;
  cmp.Add("P1 latency, 90% of methods <=", "657us", FmtUs(SortedQuantile(p1, 0.90)));
  cmp.Add("median latency, 90% of methods >=", "10.7ms", FmtUs(SortedQuantile(p50, 0.10)));
  cmp.Add("P99 latency, 99.5% of methods >=", "1ms", FmtUs(SortedQuantile(p99, 0.005)));
  cmp.Add("P99 latency, 50% of methods >=", "225ms", FmtUs(SortedQuantile(p99, 0.50)));
  cmp.Add("slowest 5% of methods: P1 >=", "166ms", FmtUs(SortedQuantile(p1, 0.95)));
  cmp.Add("slowest 5% of methods: P99 >=", "5s", FmtUs(SortedQuantile(p99, 0.95)));
  report.tables.push_back(cmp.Build());

  // Heatmap-style summary: method deciles (by median RCT) x latency quantiles.
  // No rows when no method has the 100 samples a decile needs. The sort keys
  // are computed once; comparing only the key keeps std::sort's order of
  // methods with equal medians.
  std::vector<std::pair<double, const MethodAccum*>> eligible;
  for (const MethodAccum* m : agg.Eligible(100)) {
    eligible.emplace_back(m->rct.Quantile(0.5), m);
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  TextTable heat({"method decile", "P1", "P10", "P50", "P90", "P99"});
  for (int d = 0; d < 10 && !eligible.empty(); ++d) {
    const size_t idx =
        std::min(eligible.size() - 1, (eligible.size() * (2 * static_cast<size_t>(d) + 1)) / 20);
    const auto& [median, m] = eligible[idx];
    heat.AddRow({std::to_string(d * 10) + "-" + std::to_string(d * 10 + 10) + "%",
                 FmtUs(m->rct.Quantile(0.01)), FmtUs(m->rct.Quantile(0.10)), FmtUs(median),
                 FmtUs(m->rct.Quantile(0.90)), FmtUs(m->rct.Quantile(0.99))});
  }
  report.tables.push_back(heat);
  report.notes.push_back("Hyperscale RPCs operate at millisecond, not microsecond timescales; "
                         "tails reach seconds.");
  // Fig. 2b analogue: CDF of per-method P99 latency in milliseconds. Dividing
  // by a positive constant keeps the vector sorted.
  std::vector<double> p99s_ms = p99;
  for (double& v : p99s_ms) {
    v /= 1000.0;
  }
  report.notes.push_back("CDF of per-method P99 completion time (ms):\n" +
                         RenderAsciiCdf(p99s_ms, 60, 10, "ms"));
  return report;
}

FigureReport AnalyzePopularity(const MethodAggregator& agg, const MethodCatalog& catalog) {
  FigureReport report;
  report.id = "fig03";
  report.title = "Per-method RPC frequency (Fig. 3)";

  // Call counts per method, in latency order (method id == latency rank).
  const auto& methods = agg.methods();
  std::vector<double> counts(methods.size());
  double total = 0;
  for (size_t i = 0; i < methods.size(); ++i) {
    counts[i] = static_cast<double>(methods[i].calls);
    total += counts[i];
  }
  double fastest100 = 0;
  for (size_t i = 0; i < std::min<size_t>(100, counts.size()); ++i) {
    fastest100 += counts[i];
  }
  const size_t slow_start = counts.size() >= 1000 ? counts.size() - 1000 : 0;
  double slowest1000 = 0, slowest1000_time = 0, total_time = 0;
  for (size_t i = 0; i < methods.size(); ++i) {
    total_time += methods[i].total_time_us;
    if (i >= slow_start) {
      slowest1000 += counts[i];
      slowest1000_time += methods[i].total_time_us;
    }
  }
  std::vector<double> sorted_counts = counts;
  std::sort(sorted_counts.rbegin(), sorted_counts.rend());
  double top10 = 0, top100 = 0;
  for (size_t i = 0; i < std::min<size_t>(100, sorted_counts.size()); ++i) {
    if (i < 10) {
      top10 += sorted_counts[i];
    }
    top100 += sorted_counts[i];
  }
  const double write_share =
      catalog.network_disk_write_id() >= 0
          ? Share(counts[static_cast<size_t>(catalog.network_disk_write_id())], total)
          : 0;

  ComparisonTable cmp;
  cmp.Add("Network Disk Write share of all calls", "28%", FormatPercent(write_share));
  cmp.Add("100 lowest-latency methods share", "40%", FormatPercent(Share(fastest100, total)));
  cmp.Add("top-10 most popular methods share", "58%", FormatPercent(Share(top10, total)));
  cmp.Add("top-100 most popular methods share", "91%", FormatPercent(Share(top100, total)));
  cmp.Add("slowest 1000 methods: share of calls", "1.1%",
          FormatPercent(Share(slowest1000, total)));
  cmp.Add("slowest 1000 methods: share of total RPC time", "89%",
          FormatPercent(Share(slowest1000_time, total_time)));
  report.tables.push_back(cmp.Build());
  report.notes.push_back("Popularity is extremely skewed and concentrated on low-latency "
                         "methods; the slow tail dominates total RPC time.");
  return report;
}

FigureReport AnalyzeSizes(const MethodAggregator& agg) {
  FigureReport report;
  report.id = "fig06";
  report.title = "Per-method request size (Fig. 6)";
  const std::vector<double> req_mins =
      agg.CollectSorted(100, [](const MethodAccum& m) { return m.req_size.min(); });
  const std::vector<double> req = MethodQuantiles(agg, &MethodAccum::req_size, 0.5);
  const std::vector<double> resp = MethodQuantiles(agg, &MethodAccum::resp_size, 0.5);
  ComparisonTable cmp;
  cmp.Add("smallest request observed", "64B (one cache line)",
          FormatBytes(SortedQuantile(req_mins, 0.0)));
  cmp.Add("median-method median request", "1530B", FormatBytes(SortedQuantile(req, 0.5)));
  cmp.Add("median-method median response", "315B", FormatBytes(SortedQuantile(resp, 0.5)));
  cmp.Add("P90-method median request", "11.8KB", FormatBytes(SortedQuantile(req, 0.9)));
  cmp.Add("P90-method median response", "10KB", FormatBytes(SortedQuantile(resp, 0.9)));
  cmp.Add("P99-method median request", "196KB", FormatBytes(SortedQuantile(req, 0.99)));
  cmp.Add("P99-method median response", "563KB", FormatBytes(SortedQuantile(resp, 0.99)));
  report.tables.push_back(cmp.Build());
  report.notes.push_back("Most RPCs are small (KB-scale) but the size tail spans orders of "
                         "magnitude; single-MTU offloads would miss the tail.");
  return report;
}

FigureReport AnalyzeSizeRatio(const MethodAggregator& agg) {
  FigureReport report;
  report.id = "fig07";
  report.title = "Per-method response/request size ratio (Fig. 7)";
  const std::vector<double> median_ratios = MethodQuantiles(agg, &MethodAccum::size_ratio, 0.5);
  double below_one = 0;
  for (double r : median_ratios) {
    if (r < 1.0) {
      below_one += 1;
    }
  }
  ComparisonTable cmp;
  cmp.Add("methods with median ratio < 1 (write-dominant)", "majority",
          FormatPercent(median_ratios.empty()
                            ? 0
                            : below_one / static_cast<double>(median_ratios.size())));
  cmp.Add("median-method median ratio", "<1",
          FormatDouble(SortedQuantile(median_ratios, 0.5), 2));
  cmp.Add("P99-method median ratio (read-heavy tail)", ">>1",
          FormatDouble(SortedQuantile(median_ratios, 0.99), 1));
  report.tables.push_back(cmp.Build());

  TextTable dist({"method quantile", "median resp/req ratio"});
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    dist.AddRow({FormatPercent(q, 0), FormatDouble(SortedQuantile(median_ratios, q), 2)});
  }
  report.tables.push_back(dist);
  report.notes.push_back("Most methods serve both reads and writes, with the bulk of RPCs "
                         "write-dominant; both tails are heavy.");
  return report;
}

FigureReport AnalyzeServiceMix(const MethodAggregator& agg, const ProfileCollector& profile,
                               const ServiceCatalog& services) {
  FigureReport report;
  report.id = "fig08";
  report.title = "Fraction of top RPC services by calls, bytes, and cycles (Fig. 8)";

  std::vector<double> calls(static_cast<size_t>(services.size()), 0.0);
  std::vector<double> bytes(static_cast<size_t>(services.size()), 0.0);
  double total_calls = 0, total_bytes = 0;
  for (const MethodAccum& m : agg.methods()) {
    if (m.service_id < 0 || m.calls == 0) {
      continue;
    }
    calls[static_cast<size_t>(m.service_id)] += static_cast<double>(m.calls);
    const double b = m.req_size.sum() + m.resp_size.sum();
    bytes[static_cast<size_t>(m.service_id)] += b;
    total_calls += static_cast<double>(m.calls);
    total_bytes += b;
  }
  double total_cycles = 0;
  for (const auto& [sid, cycles] : profile.per_service_cycles()) {
    total_cycles += cycles;
  }

  TextTable mix({"service", "calls %", "bytes %", "cycles %"});
  for (int32_t id : services.TopByCallShare(static_cast<size_t>(services.size()))) {
    const size_t s = static_cast<size_t>(id);
    const auto it = profile.per_service_cycles().find(id);
    const double cyc = it == profile.per_service_cycles().end() ? 0 : it->second;
    mix.AddRow({services.service(id).name, FormatPercent(Share(calls[s], total_calls)),
                FormatPercent(Share(bytes[s], total_bytes)),
                FormatPercent(Share(cyc, total_cycles), 2)});
  }
  report.tables.push_back(mix);

  const int32_t nd = services.studied().network_disk;
  const int32_t ml = services.studied().ml_inference;
  const int32_t f1 = services.studied().f1;
  auto cycles_share = [&](int32_t id) {
    const auto it = profile.per_service_cycles().find(id);
    return it == profile.per_service_cycles().end() ? 0.0 : Share(it->second, total_cycles);
  };
  double top8 = 0;
  for (int32_t id : services.TopByCallShare(8)) {
    top8 += calls[static_cast<size_t>(id)];
  }
  ComparisonTable cmp;
  cmp.Add("top-8 services' share of calls", "60%", FormatPercent(Share(top8, total_calls)));
  cmp.Add("Network Disk share of calls", "35%",
          FormatPercent(Share(calls[static_cast<size_t>(nd)], total_calls)));
  cmp.Add("Network Disk share of cycles", "<2%", FormatPercent(cycles_share(nd), 2));
  cmp.Add("ML Inference calls vs cycles", "0.17% / 0.89%",
          FormatPercent(Share(calls[static_cast<size_t>(ml)], total_calls), 2) + " / " +
              FormatPercent(cycles_share(ml), 2));
  cmp.Add("F1 calls vs cycles", "1.8% / 1.8%",
          FormatPercent(Share(calls[static_cast<size_t>(f1)], total_calls), 2) + " / " +
              FormatPercent(cycles_share(f1), 2));
  report.tables.push_back(cmp.Build());
  report.notes.push_back("Storage dominates invocations and bytes; compute-heavy services "
                         "consume disproportionately many cycles per call.");
  return report;
}

FigureReport MakeTable1(const ServiceCatalog& services) {
  FigureReport report;
  report.id = "table1";
  report.title = "RPC services in this study (Table 1)";
  TextTable t({"category", "server", "client", "RPC size", "method description"});
  auto row = [&](const char* category, int32_t id) {
    const ServiceSpec& s = services.service(id);
    t.AddRow({category, s.name, s.table1_client, s.table1_rpc_size, s.table1_description});
  };
  const StudiedServices& ids = services.studied();
  row("Storage", ids.bigtable);
  row("Storage", ids.network_disk);
  row("Storage", ids.ssd_cache);
  row("Storage", ids.video_metadata);
  row("Storage", ids.spanner);
  row("Compute-intensive", ids.f1);
  row("Compute-intensive", ids.ml_inference);
  row("Latency-sensitive", ids.kv_store);
  report.tables.push_back(t);
  return report;
}

FigureReport AnalyzeTaxOverview(const std::function<FleetSampler()>& make_sampler, int64_t n) {
  FigureReport report;
  report.id = "fig10";
  report.title = "RPC latency tax: fleet-wide mean and P95 tail (Fig. 10)";

  // Pass 1: distribution of completion times to locate the P95 threshold.
  LogHistogram totals({.min_value = 1.0, .max_value = 1e8, .buckets_per_decade = 20});
  {
    FleetSampler sampler = make_sampler();
    for (int64_t i = 0; i < n; ++i) {
      const Span span = sampler.Sample().span;
      if (span.status == StatusCode::kOk) {
        totals.Add(ToMicros(span.latency.Total()));
      }
    }
  }
  const double p95_us = totals.Quantile(0.95);

  // Pass 2: component sums, overall and among tail RPCs.
  double sum_total = 0, sum_app = 0, sum_wire = 0, sum_proc = 0, sum_queue = 0;
  double tail_total = 0, tail_app = 0, tail_wire = 0, tail_proc = 0, tail_queue = 0;
  {
    FleetSampler sampler = make_sampler();
    for (int64_t i = 0; i < n; ++i) {
      const Span span = sampler.Sample().span;
      if (span.status != StatusCode::kOk) {
        continue;
      }
      const double total = ToMicros(span.latency.Total());
      const double app = ToMicros(span.latency[RpcComponent::kServerApp]);
      const double wire = ToMicros(span.latency.WireTotal());
      const double proc = ToMicros(span.latency.ProcStackTotal());
      const double queue = ToMicros(span.latency.QueueTotal());
      sum_total += total;
      sum_app += app;
      sum_wire += wire;
      sum_proc += proc;
      sum_queue += queue;
      if (total >= p95_us) {
        tail_total += total;
        tail_app += app;
        tail_wire += wire;
        tail_proc += proc;
        tail_queue += queue;
      }
    }
  }

  ComparisonTable cmp;
  cmp.Add("mean latency tax (share of RCT)", "2.0%",
          FormatPercent((sum_total - sum_app) / sum_total, 2));
  cmp.Add("  network wire share", "1.1%", FormatPercent(sum_wire / sum_total, 2));
  cmp.Add("  RPC proc + net stack share", "0.49%", FormatPercent(sum_proc / sum_total, 2));
  cmp.Add("  queueing share", "0.43%", FormatPercent(sum_queue / sum_total, 2));
  cmp.Add("P95-tail tax (share of tail RCT)", "significant, network-skewed",
          FormatPercent((tail_total - tail_app) / tail_total, 1));
  report.tables.push_back(cmp.Build());

  TextTable tail({"component", "overall share", "P95-tail share"});
  tail.AddRow({"Server application", FormatPercent(sum_app / sum_total),
               FormatPercent(tail_app / tail_total)});
  tail.AddRow({"Network wire", FormatPercent(sum_wire / sum_total, 2),
               FormatPercent(tail_wire / tail_total, 2)});
  tail.AddRow({"RPC proc + net stack", FormatPercent(sum_proc / sum_total, 2),
               FormatPercent(tail_proc / tail_total, 2)});
  tail.AddRow({"Queueing", FormatPercent(sum_queue / sum_total, 2),
               FormatPercent(tail_queue / tail_total, 2)});
  report.tables.push_back(tail);
  report.notes.push_back("Application time dominates on average, but the tax share grows in "
                         "the tail and skews toward the network.");
  return report;
}

FigureReport AnalyzeTaxRatio(const MethodAggregator& agg) {
  FigureReport report;
  report.id = "fig11";
  report.title = "Per-method tax ratio: RPC Latency Tax / RCT (Fig. 11)";
  const std::vector<double> p50 = MethodQuantiles(agg, &MethodAccum::tax_ratio, 0.5);
  const std::vector<double> p90 = MethodQuantiles(agg, &MethodAccum::tax_ratio, 0.9);
  const std::vector<double> p99 = MethodQuantiles(agg, &MethodAccum::tax_ratio, 0.99);
  ComparisonTable cmp;
  cmp.Add("median-method median tax ratio", "8.6%", FormatPercent(SortedQuantile(p50, 0.5)));
  cmp.Add("top-decile methods: median tax ratio", "38%", FormatPercent(SortedQuantile(p50, 0.9)));
  cmp.Add("top-decile methods: P90 tax ratio", "96%", FormatPercent(SortedQuantile(p90, 0.9)));
  cmp.Add("P99 tax ratio, median method", "66%", FormatPercent(SortedQuantile(p99, 0.5)));
  cmp.Add("P99 tax ratio, bottom 1% of methods", "0.5%",
          FormatPercent(SortedQuantile(p99, 0.01), 2));
  cmp.Add("P99 tax ratio, top 1% of methods", "99.99%",
          FormatPercent(SortedQuantile(p99, 0.99), 2));
  report.tables.push_back(cmp.Build());
  report.notes.push_back("Most RPCs are bottlenecked by application time, but at the tail many "
                         "methods' latency is almost entirely RPC tax.");
  return report;
}

FigureReport AnalyzeWireStack(const MethodAggregator& agg) {
  FigureReport report;
  report.id = "fig12";
  report.title = "Per-method network wire + proc/stack latency (Fig. 12)";
  const std::vector<double> p99 = MethodQuantiles(agg, &MethodAccum::wire_stack, 0.99);
  ComparisonTable cmp;
  cmp.Add("fastest 1% of methods: P99", "6ms", FmtUs(SortedQuantile(p99, 0.01)));
  cmp.Add("fastest 10% of methods: P99", "19ms", FmtUs(SortedQuantile(p99, 0.10)));
  cmp.Add("fastest 50% of methods: P99 <=", "115ms", FmtUs(SortedQuantile(p99, 0.50)));
  cmp.Add("slowest 10% of methods: P99 >=", "271ms", FmtUs(SortedQuantile(p99, 0.90)));
  cmp.Add("slowest 1% of methods: P99 >=", "826ms (> 200ms max WAN RTT)",
          FmtUs(SortedQuantile(p99, 0.99)));
  report.tables.push_back(cmp.Build());
  report.notes.push_back("Tail network latencies exceed the longest WAN propagation delay: "
                         "congestion still impacts the WAN.");
  return report;
}

FigureReport AnalyzeQueueing(const MethodAggregator& agg) {
  FigureReport report;
  report.id = "fig13";
  report.title = "Per-method queueing latency (Fig. 13)";
  const std::vector<double> p50 = MethodQuantiles(agg, &MethodAccum::queue, 0.5);
  const std::vector<double> p99 = MethodQuantiles(agg, &MethodAccum::queue, 0.99);
  ComparisonTable cmp;
  cmp.Add("median-method median queueing <=", "360us", FmtUs(SortedQuantile(p50, 0.5)));
  cmp.Add("median-method P99 queueing <=", "102ms", FmtUs(SortedQuantile(p99, 0.5)));
  cmp.Add("worst-decile methods: median queueing", "1.1ms", FmtUs(SortedQuantile(p50, 0.9)));
  cmp.Add("worst-decile methods: P99 queueing", "611ms", FmtUs(SortedQuantile(p99, 0.9)));
  report.tables.push_back(cmp.Build());
  report.notes.push_back("Tail queueing is orders of magnitude above the median: better "
                         "scheduling/load-balancing can cut tail latency.");
  return report;
}

FigureReport AnalyzeCycleTax(const ProfileCollector& profile) {
  FigureReport report;
  report.id = "fig20";
  report.title = "RPC cycle tax across the fleet (Fig. 20)";
  const auto fractions = profile.TaxCategoryFractions();
  ComparisonTable cmp;
  cmp.Add("total RPC cycle tax (share of all cycles)", "7.1%",
          FormatPercent(profile.TaxFraction(), 2));
  cmp.Add("  compression", "3.1%",
          FormatPercent(fractions[static_cast<size_t>(CycleCategory::kCompression)], 2));
  cmp.Add("  networking", "1.7%",
          FormatPercent(fractions[static_cast<size_t>(CycleCategory::kNetworking)], 2));
  cmp.Add("  serialization", "1.2%",
          FormatPercent(fractions[static_cast<size_t>(CycleCategory::kSerialization)], 2));
  cmp.Add("  RPC library", "1.1%",
          FormatPercent(fractions[static_cast<size_t>(CycleCategory::kRpcLibrary)], 2));
  cmp.Add("  encryption (folded into networking in the paper)", "-",
          FormatPercent(fractions[static_cast<size_t>(CycleCategory::kEncryption)], 2));
  cmp.Add("  checksum", "-",
          FormatPercent(fractions[static_cast<size_t>(CycleCategory::kChecksum)], 2));
  report.tables.push_back(cmp.Build());
  report.notes.push_back("Compression is the single biggest tax component; the RPC library "
                         "itself is a small fraction, so offloading it alone has limited value.");
  std::vector<Bar> bars;
  for (int c = 0; c < kNumTaxCategories; ++c) {
    bars.push_back({std::string(CycleCategoryName(static_cast<CycleCategory>(c))),
                    fractions[static_cast<size_t>(c)] * 100});
  }
  report.notes.push_back("tax cycles by category (% of all fleet cycles):\n" +
                         RenderAsciiBars(bars, 40));
  return report;
}

FigureReport AnalyzeMethodCycles(const MethodAggregator& agg) {
  FigureReport report;
  report.id = "fig21";
  report.title = "Per-method normalized CPU cycles (Fig. 21)";
  const std::vector<double> p10 = MethodQuantiles(agg, &MethodAccum::cycles, 0.10);
  const std::vector<double> p90 = MethodQuantiles(agg, &MethodAccum::cycles, 0.90);
  const std::vector<double> p99_over_p50 = agg.CollectSorted(100, [](const MethodAccum& m) {
    const double p50 = m.cycles.Quantile(0.5);
    return p50 > 0 ? m.cycles.Quantile(0.99) / p50 : 0;
  });
  ComparisonTable cmp;
  cmp.Add("cheapest 10% of calls, cheapest 10% of methods", "0.017",
          FormatDouble(SortedQuantile(p10, 0.10), 3));
  cmp.Add("cheapest 10% of calls, 90th pct of methods", "0.02",
          FormatDouble(SortedQuantile(p10, 0.90), 3));
  cmp.Add("most-expensive 10% of calls, method spread", "0.02-0.16+",
          FormatDouble(SortedQuantile(p90, 0.10), 3) + " - " +
              FormatDouble(SortedQuantile(p90, 0.90), 3));
  cmp.Add("median-method P99/median cycle ratio", "10-100x",
          FormatDouble(SortedQuantile(p99_over_p50, 0.5), 1) + "x");
  report.tables.push_back(cmp.Build());
  report.notes.push_back("CPU cost per call is heavy-tailed for almost all methods, and is not "
                         "predictable from size or latency: load balancing by count mis-balances "
                         "CPU.");
  return report;
}

FigureReport AnalyzeErrors(const std::map<StatusCode, int64_t>& error_counts,
                           const std::map<StatusCode, double>& error_cycles,
                           int64_t total_calls) {
  FigureReport report;
  report.id = "fig23";
  report.title = "RPC error taxonomy by count and wasted cycles (Fig. 23)";
  int64_t total_errors = 0;
  double total_wasted = 0;
  for (const auto& [code, count] : error_counts) {
    total_errors += count;
  }
  for (const auto& [code, cycles] : error_cycles) {
    total_wasted += cycles;
  }
  TextTable t({"error type", "% of errors", "% of wasted cycles"});
  // Render in descending count order.
  std::vector<std::pair<StatusCode, int64_t>> ordered(error_counts.begin(), error_counts.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [code, count] : ordered) {
    const auto it = error_cycles.find(code);
    const double cycles = it == error_cycles.end() ? 0 : it->second;
    t.AddRow({std::string(StatusCodeName(code)),
              FormatPercent(total_errors > 0
                                ? static_cast<double>(count) / static_cast<double>(total_errors)
                                : 0),
              FormatPercent(total_wasted > 0 ? cycles / total_wasted : 0)});
  }
  report.tables.push_back(t);

  auto share = [&](StatusCode code, const auto& map_in, double denom) -> double {
    const auto it = map_in.find(code);
    if (it == map_in.end() || denom <= 0) {
      return 0;
    }
    return static_cast<double>(it->second) / denom;
  };
  ComparisonTable cmp;
  cmp.Add("overall error rate", "1.9%",
          FormatPercent(total_calls > 0 ? static_cast<double>(total_errors) /
                                              static_cast<double>(total_calls)
                                        : 0,
                        2));
  cmp.Add("Cancelled: share of errors", "45%",
          FormatPercent(share(StatusCode::kCancelled, error_counts,
                              static_cast<double>(total_errors))));
  cmp.Add("Cancelled: share of wasted cycles", "55%",
          FormatPercent(share(StatusCode::kCancelled, error_cycles, total_wasted)));
  cmp.Add("NotFound: share of errors", "20%",
          FormatPercent(share(StatusCode::kNotFound, error_counts,
                              static_cast<double>(total_errors))));
  cmp.Add("NotFound: share of wasted cycles", "21%",
          FormatPercent(share(StatusCode::kNotFound, error_cycles, total_wasted)));
  report.tables.push_back(cmp.Build());
  report.notes.push_back("Cancellations (mostly request hedging) dominate errors and consume an "
                         "outsized share of wasted cycles.");
  return report;
}

}  // namespace rpcscope
