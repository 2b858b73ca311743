#include "bench.h"

#include "host.h"

namespace perfbench {
namespace {

// Set-up samples taken at the start of every cycle, so they are spread over
// the run like the repetitions. A fleet builds in 0.1-0.4 ms, and the first
// builds after a repetition's teardown run slower than the rest, so fleets
// are sampled many times per cycle; the scan's catalogs take milliseconds.
int SetupSamplesPerCycle(Workload w) { return IsFleet(w) ? 20 : 2; }

// Repetition cycles run even when `seconds` is already used up.
constexpr int kMinCycles = 3;
// Executor workers of the extra fleet_epochs repetitions behind
// sim.worker_speedup. The timed repetitions run on one: two workers amplify
// host steal, since a stolen vCPU stalls every barrier round, and runs with 5%
// steal read 30% slower.
constexpr int kSpeedupWorkers = 2;

void PrintFingerprint(std::FILE* log, const char* label, const RepResult& rep) {
  std::fprintf(log, "%s digests:", label);
  for (const auto& [name, value] : rep.digests) {
    std::fprintf(log, " %s=%016llx", name.c_str(), static_cast<unsigned long long>(value));
  }
  std::fprintf(log, "\n%s counts:", label);
  for (const auto& [name, value] : rep.counts) {
    std::fprintf(log, " %s=%llu", name.c_str(), static_cast<unsigned long long>(value));
  }
  std::fprintf(log, "\n");
}

void PrintSummaryRow(std::FILE* log, const char* name, const char* unit, const Summary& s) {
  std::fprintf(log,
               "  %-14s %-10s median %-13.6g q1 %-13.6g q3 %-13.6g spread %6.2f%%  n=%zu\n",
               name, unit, s.median, s.q1, s.q3, 100.0 * s.Spread(), s.n);
}

double CountOf(const RepResult& rep, const std::string& name) {
  const auto it = rep.counts.find(name);
  return it == rep.counts.end() ? 0.0 : static_cast<double>(it->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

template <typename F>
double MedianOf(const std::vector<RepResult>& reps, F f) {
  std::vector<double> values;
  values.reserve(reps.size());
  for (const RepResult& r : reps) {
    values.push_back(f(r));
  }
  return Summarize(values).median;
}

double Rate(const RepResult& r) { return Ratio(static_cast<double>(r.work), r.work_s); }

// Per-layer metrics of a traced run. A layer's time is the median over the
// traced repetitions of that repetition's summed self time in the layer's
// calls, calibrated by its cycle's probes (`scale`, indexed by the spans'
// rep id); counts come from the first traced repetition (every repetition
// reproduces them, or its checks fail).
std::vector<Metric> LayerMetrics(Workload workload, const std::vector<TraceSpan>& spans,
                                 const std::vector<double>& scale,
                                 const std::vector<double>& probe_s,
                                 const std::vector<RepResult>& traced,
                                 const std::vector<RepResult>& untraced,
                                 const std::vector<RepResult>& more_workers) {
  const auto self_by_rep = SelfSecondsByRep(spans);
  auto self_s = [&self_by_rep, &scale](const std::string& name) {
    std::vector<double> values;
    for (const auto& [rep, by_name] : self_by_rep) {
      const auto it = by_name.find(name);
      values.push_back(it == by_name.end() ? 0.0 : it->second * scale.at(static_cast<size_t>(rep)));
    }
    return Summarize(values).median;
  };
  const RepResult& first = traced.front();
  auto count = [&first](const std::string& name) { return CountOf(first, name); };

  const double run_s = self_s("sim.run");
  const double events = count("sim.events");
  const double rounds = count("sim.rounds");
  const double ok = count("rpc.completions_ok");
  const double err = count("rpc.completions_err");
  auto work_s = [](const RepResult& r) { return r.work_s; };
  auto wall_s = [](const RepResult& r) { return r.wall_s; };
  // RunSegment time at the timed worker count over the time at more workers,
  // and CPU over wall inside RunSegment on the repetitions with the most.
  const double speedup = more_workers.empty()
                             ? 0.0
                             : Ratio(MedianOf(untraced, work_s), MedianOf(more_workers, work_s));
  const double parallelism =
      IsFleet(workload)
          ? MedianOf(more_workers.empty() ? traced : more_workers,
                     [](const RepResult& r) { return Ratio(r.work_cpu_s, r.work_s); })
          : 0.0;

  return {
      {"sim.run_s", run_s, "s"},
      {"sim.ns_per_event", Ratio(run_s * 1e9, events), "ns"},
      {"sim.events", events, "count"},
      {"sim.rounds", rounds, "count"},
      {"sim.events_per_round", Ratio(events, rounds), "events/round"},
      {"sim.cross_domain_events", count("sim.cross_domain_events"), "count"},
      {"sim.resync_s", self_s("sim.resync"), "s"},
      {"sim.parallelism", parallelism, "cpu/wall"},
      {"sim.worker_speedup", speedup, "ratio"},
      {"trace.spans", count("trace.spans"), "count"},
      {"trace.merge_s", self_s("trace.merge"), "s"},
      {"monitor.replay_s", self_s("monitor.replay"), "s"},
      {"fleet.collect_s", self_s("fleet.collect"), "s"},
      {"monitor.spans_streamed", count("monitor.spans_streamed"), "count"},
      {"monitor.windows_closed", count("monitor.windows_closed"), "count"},
      {"monitor.span_buffer_drops", count("monitor.span_buffer_drops"), "count"},
      {"monitor.reservoir_drops", count("monitor.reservoir_drops"), "count"},
      {"monitor.peak_buffered_spans", count("monitor.peak_buffered_spans"), "count"},
      {"checkpoint.write_s", self_s("checkpoint.write"), "s"},
      {"checkpoint.writes", count("checkpoint.writes"), "count"},
      {"checkpoint.bytes_written", count("checkpoint.bytes_written"), "bytes"},
      {"checkpoint.last_bytes", count("checkpoint.last_bytes"), "bytes"},
      {"checkpoint.restore_s", self_s("checkpoint.restore"), "s"},
      {"rpc.completions_ok", ok, "count"},
      {"rpc.completions_err", err, "count"},
      {"rpc.retries", count("rpc.retries"), "count"},
      {"rpc.attempt_timeouts", count("rpc.attempt_timeouts"), "count"},
      {"rpc.queue_rejected", count("rpc.queue_rejected"), "count"},
      {"rpc.server_shed", count("rpc.server_shed"), "count"},
      {"rpc.ok_frac", Ratio(ok, ok + err), "fraction"},
      {"net.messages_sent", count("net.messages_sent"), "count"},
      {"net.bytes_sent", count("net.bytes_sent"), "bytes"},
      {"net.frames_dropped", count("net.frames_dropped"), "count"},
      {"fault.crashes", count("fault.crashes"), "count"},
      {"fault.restarts", count("fault.restarts"), "count"},
      {"fault.gray_windows", count("fault.gray_windows"), "count"},
      {"fault.loss_drops", count("fault.loss_drops"), "count"},
      {"policy.stages_applied", count("policy.stages_applied"), "count"},
      {"fleet.build_s", self_s("fleet.build"), "s"},
      {"fleet.arm_s", self_s("fleet.arm"), "s"},
      {"fleet.teardown_s", self_s("fleet.teardown"), "s"},
      {"fleet.root_calls", count("fleet.root_calls"), "count"},
      {"fleet.catalog_s", self_s("fleet.catalog"), "s"},
      {"fleet.sample_s", self_s("fleet.sample"), "s"},
      {"fleet.samples", count("fleet.samples"), "count"},
      {"core.scan_add_s", self_s("core.scan_add"), "s"},
      {"core.analyze_s", self_s("core.analyze"), "s"},
      {"core.offload_s", self_s("core.offload"), "s"},
      {"bench.rep_self_s", self_s("rep"), "s"},
      {"bench.probe_s", Summarize(probe_s).median, "s"},
      {"bench.trace_overhead_s", MedianOf(traced, wall_s) - MedianOf(untraced, wall_s), "s"},
  };
}

}  // namespace

double CalibrationScale(const std::vector<double>& probe_s, size_t i) {
  return Ratio(SpeedProbe::kReferenceSeconds, (probe_s[i] + probe_s[i + 1]) / 2);
}

void Calibrate(RepResult& r, double scale) {
  r.setup_s *= scale;
  r.wall_s *= scale;
  r.work_s *= scale;
  r.work_cpu_s *= scale;
}

BenchResult RunBenchmark(const WorkloadConfig& config, const BenchOptions& options,
                         std::FILE* log) {
  BenchResult result;
  SpanTrace trace(false);
  WorkloadRunner runner(config, &trace);
  SpeedProbe probe;
  Outcome& outcome = result.outcome;

  // Warm-up through the public run function: discarded from the timings (a cold
  // first repetition runs much slower), kept as the reference fingerprint.
  result.reference = runner.RunReference();
  outcome.Record(result.reference.checks);
  PrintFingerprint(log, "reference", result.reference);
  probe.Run();  // Its first run pages in the table.

  // The probe runs before every cycle and once after the last one.
  std::vector<double> probe_s;
  std::vector<std::vector<double>> setup_by_cycle;
  // One per cycle; traced and more_workers only when the cycle runs them.
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::vector<RepResult> more_workers;
  auto run = [&](std::vector<RepResult>& into, int workers) {
    into.push_back(runner.RunRepetition(workers));
    outcome.Record(into.back().checks);
  };
  const double start = NowSeconds();
  for (int cycle = 0; cycle < kMinCycles || NowSeconds() - start < options.seconds; ++cycle) {
    probe_s.push_back(probe.Run());
    setup_by_cycle.emplace_back();
    for (int i = 0; i < SetupSamplesPerCycle(config.workload); ++i) {
      setup_by_cycle.back().push_back(runner.MeasureSetup());
    }
    run(untraced, 1);
    if (!options.trace) {
      continue;
    }
    trace.set_enabled(true);
    trace.set_rep(cycle);
    run(traced, 1);
    trace.set_enabled(false);
    if (config.workload == Workload::kFleetEpochs) {
      // sim.worker_speedup: the same inputs on more executor workers (the
      // digests and counts must not change).
      run(more_workers, kSpeedupWorkers);
    }
  }
  probe_s.push_back(probe.Run());
  const double peak_rss = PeakRssMiB();

  // Calibrate every time of cycle i by the probes around it, keeping the
  // untraced repetitions' host seconds for the log.
  std::vector<double> scale;
  std::vector<double> setup;
  std::vector<double> raw_walls;
  std::vector<double> raw_rates;
  for (size_t i = 0; i < untraced.size(); ++i) {
    scale.push_back(CalibrationScale(probe_s, i));
    raw_walls.push_back(untraced[i].wall_s);
    raw_rates.push_back(Rate(untraced[i]));
    Calibrate(untraced[i], scale[i]);
    for (const double s : setup_by_cycle[i]) {
      setup.push_back(s * scale[i]);
    }
    setup.push_back(untraced[i].setup_s);
  }
  for (size_t i = 0; i < traced.size(); ++i) {
    Calibrate(traced[i], scale[i]);
  }
  for (size_t i = 0; i < more_workers.size(); ++i) {
    Calibrate(more_workers[i], scale[i]);
  }

  PrintFingerprint(log, "repetition", untraced.front());
  for (const std::string& failure : outcome.failures()) {
    std::fprintf(log, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::fprintf(log, "repetitions: %lld attempted (1 warm-up), %lld failed, failed_frac=%g\n",
               static_cast<long long>(outcome.attempted()),
               static_cast<long long>(outcome.failed()), outcome.FailedFrac());

  std::vector<double> walls;
  std::vector<double> rates;
  std::fprintf(log, "repetition host wall_s, probe_s:");
  for (size_t i = 0; i < untraced.size(); ++i) {
    walls.push_back(untraced[i].wall_s);
    rates.push_back(Rate(untraced[i]));
    std::fprintf(log, " %.4f,%.4f", raw_walls[i], probe_s[i]);
  }
  std::fprintf(log, "\n");
  const Summary setup_s = Summarize(setup);
  const Summary wall_s = Summarize(walls);
  const Summary rate = Summarize(rates);
  const bool fleet = IsFleet(config.workload);
  const char* rate_name = fleet ? "events_per_s" : "samples_per_s";
  const char* rate_unit = fleet ? "events/s" : "samples/s";
  std::fprintf(log, "host speed: probe_s, %g s on the reference host:\n",
               SpeedProbe::kReferenceSeconds);
  PrintSummaryRow(log, "probe_s", "s", Summarize(probe_s));
  std::fprintf(log, "end-to-end in host seconds, over the untraced repetitions:\n");
  PrintSummaryRow(log, "wall_s", "s", Summarize(raw_walls));
  PrintSummaryRow(log, rate_name, rate_unit, Summarize(raw_rates));
  std::fprintf(log, "end-to-end in calibrated seconds (the reported metrics):\n");
  PrintSummaryRow(log, "setup_s", "s", setup_s);
  PrintSummaryRow(log, "wall_s", "s", wall_s);
  PrintSummaryRow(log, rate_name, rate_unit, rate);
  std::fprintf(log, "  %-14s %-10s %.2f\n", "peak_rss_mb", "MiB", peak_rss);
  std::fprintf(log, "  %-14s %-10s %g\n", "failed_frac", "fraction", outcome.FailedFrac());

  if (!options.trace) {
    // work_per_s is events_per_s on the fleets and samples_per_s on the scan.
    result.metrics = {{"setup_s", setup_s.median, "s"},
                      {"wall_s", wall_s.median, "s"},
                      {"work_per_s", rate.median, "1/s"},
                      {"peak_rss_mb", peak_rss, "MiB"}};
    return result;
  }
  result.spans = trace.spans();
  result.metrics = LayerMetrics(config.workload, result.spans, scale, probe_s, traced, untraced,
                                more_workers);
  std::fprintf(log, "per-layer, calibrated self time medians over %zu traced repetitions:\n",
               traced.size());
  for (const Metric& m : result.metrics) {
    std::fprintf(log, "  %-28s %-14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double overhead = result.metrics.back().value;
  std::fprintf(log, "tracing overhead: traced wall %.6f s - untraced %.6f s = %+.6f s (%+.2f%%)\n",
               wall_s.median + overhead, wall_s.median, overhead,
               100.0 * Ratio(overhead, wall_s.median));
  return result;
}

std::string ResultLine(const Outcome& outcome, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += outcome.ExitCode() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted());
  line += ", \"failed\": " + std::to_string(outcome.failed());
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return line + "}}";
}

}  // namespace perfbench
