// Self-test of the benchmark's own code: self time on a nested span tree, the
// median/quartile helper, failure accounting, calibration, and the seed
// property (a second seed passes every check, changes the digests and keeps
// the metric names).
// It also checks that only fleet_epochs stages fleet_study's rollout. The
// seed property runs every workload at its benchmark size: about 100 s.
//
//   perfbench_selftest        (also registered with ctest in perfbench/)
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "../src/bench.h"
#include "../src/harness.h"
#include "../src/host.h"
#include "../src/workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

TraceSpan Span(const char* name, double start, double end, int parent, int rep = 0) {
  TraceSpan s;
  s.name = name;
  s.start_s = start;
  s.end_s = end;
  s.parent = parent;
  s.rep = rep;
  return s;
}

void TestSelfTimeOnNestedTree() {
  // rep [0,10] has children a [1,4] and b [5,9]; a has child c [2,3]; b has
  // two overlapping children d [5,7] and e [6,8], which cover [5,8] once.
  const std::vector<TraceSpan> spans = {
      Span("rep", 0, 10, -1), Span("a", 1, 4, 0), Span("c", 2, 3, 1),
      Span("b", 5, 9, 0),     Span("d", 5, 7, 3), Span("e", 6, 8, 3),
  };
  const std::vector<double> self = SelfSeconds(spans);
  Expect(Near(self[0], 3), "rep self = 10 - 3 - 4");
  Expect(Near(self[1], 2), "a self = 3 - 1");
  Expect(Near(self[2], 1), "leaf c self = its duration");
  Expect(Near(self[3], 1), "b self = 4 - |[5,8]| (overlapping children counted once)");
  Expect(Near(self[4], 2) && Near(self[5], 2), "leaves d and e keep their durations");

  // A child running past its parent's end only covers the parent's interval.
  const std::vector<double> clipped = SelfSeconds({Span("p", 0, 4, -1), Span("q", 3, 6, 0)});
  Expect(Near(clipped[0], 3), "child interval is clipped to the parent");

  // Per-repetition sums by name; names repeat within a repetition.
  std::vector<TraceSpan> two_reps = spans;
  two_reps.push_back(Span("rep", 20, 22, -1, 1));
  two_reps.push_back(Span("a", 20, 21, 6, 1));
  two_reps.push_back(Span("a", 21, 21.5, 6, 1));
  const auto by_rep = SelfSecondsByRep(two_reps);
  Expect(by_rep.size() == 2, "two repetitions");
  Expect(Near(by_rep.at(0).at("a"), 2) && Near(by_rep.at(1).at("a"), 1.5),
         "self time summed per repetition and name");
  Expect(Near(by_rep.at(1).at("rep"), 0.5), "second repetition's own self time");
}

void TestSummaryOddAndEven() {
  // Reference values from Python: statistics.quantiles(values, n=4).
  const Summary odd = Summarize({3, 1, 2});
  Expect(odd.n == 3 && Near(odd.median, 2) && Near(odd.q1, 1) && Near(odd.q3, 3),
         "odd count: median 2, quartiles [1, 3]");
  Expect(Near(odd.Spread(), 1.0), "odd count spread (3 - 1) / 2");
  // Unevenly spaced values, so interpolating at the wrong rank shows.
  const Summary even = Summarize({1000, 1, 100, 10});
  Expect(even.n == 4 && Near(even.median, 55) && Near(even.q1, 3.25) && Near(even.q3, 775),
         "even count: median 55, quartiles [3.25, 775]");
  const Summary five = Summarize({16, 1, 4, 2, 8});
  Expect(Near(five.median, 4) && Near(five.q1, 1.5) && Near(five.q3, 12),
         "five values: median 4, quartiles [1.5, 12]");
  const Summary two = Summarize({1, 2});
  Expect(Near(two.median, 1.5) && Near(two.q1, 0.75) && Near(two.q3, 2.25),
         "two values: median 1.5, quartiles [0.75, 2.25]");
  const Summary one = Summarize({7});
  Expect(Near(one.median, 7) && Near(one.Spread(), 0), "one value: no spread");
  Expect(Summarize({}).n == 0, "empty sample");
}

void TestFailedCheckIsCounted() {
  Outcome outcome;
  Checks passing;
  passing.Expect(true, "holds");
  outcome.Record(passing);
  Expect(outcome.ExitCode() == 0 && outcome.FailedFrac() == 0, "all passing: exit 0");

  // A repetition that does not reproduce the reference's digest fails.
  RepResult reference;
  reference.digests["event_digest"] = 0x1234;
  reference.counts["sim.events"] = 10;
  RepResult rep;
  rep.digests["event_digest"] = 0x1235;
  rep.counts["sim.events"] = 10;
  CompareFingerprints(reference, nullptr, rep);
  Expect(!rep.checks.ok() && rep.checks.failures().size() == 1, "digest mismatch detected");
  outcome.Record(rep.checks);
  Expect(outcome.attempted() == 2 && outcome.failed() == 1, "failed repetition counted");
  Expect(Near(outcome.FailedFrac(), 0.5), "failed_frac = 1 / 2");
  Expect(outcome.ExitCode() != 0, "a failed check gives a non-zero exit");
  const std::vector<Metric> none;
  Expect(ResultLine(outcome, none).find("\"correct\": false, \"attempted\": 2, \"failed\": 1") !=
             std::string::npos,
         "result line reports the failure");

  // A layer count that differs from the first repetition fails as well.
  RepResult first;
  first.counts["rpc.retries"] = 5;
  RepResult later;
  later.counts["rpc.retries"] = 6;
  CompareFingerprints(RepResult{}, &first, later);
  Expect(!later.checks.ok(), "layer count mismatch against the first repetition detected");
}

void TestCalibration() {
  // Cycle 0 ran between probes of 40 and 60 ms, cycle 1 between 60 and 100.
  const std::vector<double> probe_s = {0.04, 0.06, 0.1};
  const double ref = SpeedProbe::kReferenceSeconds;
  Expect(Near(CalibrationScale(probe_s, 0), ref / 0.05), "scale: reference over the mean probe");
  Expect(Near(CalibrationScale(probe_s, 1), ref / 0.08), "scale uses the probes around the cycle");

  RepResult rep;
  rep.setup_s = 0.1;
  rep.wall_s = 2;
  rep.work_s = 1;
  rep.work_cpu_s = 1;
  rep.work = 100;
  Calibrate(rep, 0.5);
  Expect(Near(rep.setup_s, 0.05) && Near(rep.wall_s, 1) && Near(rep.work_s, 0.5) &&
             Near(rep.work_cpu_s, 0.5),
         "every time is scaled");
  Expect(rep.work == 100, "work is a count, not scaled");

  SpeedProbe probe;
  const double first = probe.Run();
  const double second = probe.Run();
  Expect(first > 0 && second > 0, "the probe takes measurable time");
}

std::set<std::string> Names(const BenchResult& r) {
  std::set<std::string> names;
  for (const Metric& m : r.metrics) {
    names.insert(m.name);
  }
  return names;
}

template <typename Map>
std::set<std::string> Keys(const Map& map) {
  std::set<std::string> keys;
  for (const auto& [k, v] : map) {
    keys.insert(k);
  }
  return keys;
}

void TestSeedProperty(const std::string& dir) {
  std::FILE* log = std::tmpfile();
  for (const Workload w : {Workload::kFleetDense, Workload::kFleetEpochs, Workload::kCatalogScan}) {
    const std::string name = WorkloadName(w);
    for (const bool traced : {false, true}) {
      BenchOptions options;
      options.seconds = 0.01;
      options.trace = traced;
      const BenchResult a = RunBenchmark({.workload = w, .seed = 0, .work_dir = dir}, options, log);
      const BenchResult b = RunBenchmark({.workload = w, .seed = 1, .work_dir = dir}, options, log);
      const std::string label = name + (traced ? " traced" : " untraced");
      Expect(a.outcome.ExitCode() == 0 && a.outcome.failed() == 0, label + ": seed 0 passes");
      Expect(b.outcome.ExitCode() == 0 && b.outcome.failed() == 0, label + ": seed 1 passes");
      for (const std::string& f : b.outcome.failures()) {
        std::fprintf(stderr, "  %s\n", f.c_str());
      }
      Expect(!a.metrics.empty() && Names(a) == Names(b), label + ": same metric names");
      Expect(Keys(a.reference.digests) == Keys(b.reference.digests) &&
                 Keys(a.reference.counts) == Keys(b.reference.counts),
             label + ": same digest and count names");
      for (const auto& [digest, value] : a.reference.digests) {
        Expect(b.reference.digests.at(digest) != value, label + ": seed changes " + digest);
      }
      if (IsFleet(w)) {
        // fleet_study's midpoint rollout runs on fleet_epochs alone.
        Expect(a.reference.counts.at("policy.stages_applied") ==
                   (w == Workload::kFleetEpochs ? 1u : 0u),
               label + ": rollout staged only on fleet_epochs");
      }
      Expect(traced == !a.spans.empty(), label + ": spans only when traced");
    }
  }
  std::fclose(log);
}

}  // namespace
}  // namespace perfbench

int main() {
  namespace fs = std::filesystem;
  // Checkpoints go below the working directory (the build tree under ctest).
  const fs::path dir = fs::current_path() / "perfbench_selftest_work";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  perfbench::TestSelfTimeOnNestedTree();
  perfbench::TestSummaryOddAndEven();
  perfbench::TestFailedCheckIsCounted();
  perfbench::TestCalibration();
  perfbench::TestSeedProperty(dir.string());
  fs::remove_all(dir, ec);
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
