// One benchmark run: a warm-up repetition that fixes the reference outputs,
// then timed repetitions for a fixed time, summarized as end-to-end metrics
// (untraced) or per-layer metrics (traced).
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct BenchOptions {
  double seconds = 30;
  bool trace = false;
};

struct BenchResult {
  Outcome outcome;
  // End-to-end metrics for an untraced run, per-layer metrics for a traced one.
  std::vector<Metric> metrics;
  RepResult reference;
  std::vector<TraceSpan> spans;
};

// Runs `config` for `options.seconds`, logging human-readable progress,
// digests, counts and spreads to `log`.
//
// Untraced: set-up samples and timed repetitions, reported as medians. Traced:
// each cycle runs an untraced repetition, a traced one and, on fleet_epochs, a
// repetition on two executor workers; per-layer self times are medians over
// the traced repetitions, and the tracing overhead is the traced minus the
// untraced median wall time. A SpeedProbe runs before every cycle and after
// the last, and every time reported is calibrated by the probes around its
// cycle.
BenchResult RunBenchmark(const WorkloadConfig& config, const BenchOptions& options,
                         std::FILE* log);

// Host seconds to calibrated seconds for cycle `i`: the probe's reference time
// over the mean of `probe_s[i]` and `probe_s[i + 1]`, the probes run just
// before and just after the cycle.
double CalibrationScale(const std::vector<double>& probe_s, size_t i);

// Scales a repetition's times (set-up, wall, work and its CPU time) by
// `scale`; rates computed from them scale by its inverse.
void Calibrate(RepResult& r, double scale);

// The result line: one JSON object with correct, attempted, failed, metrics.
std::string ResultLine(const Outcome& outcome, const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
