// The benchmark's three workloads, driven through rpcscope's public API.
//
//   fleet_dense   single-domain Table-1 mini-fleet at 4000 rps per frontend:
//                 the sequential DES hot path plus trace retention and the
//                 end-of-run flush, where every call succeeds.
//   fleet_epochs  fleet_study's checkpoint mode with --chaos --rollout:
//                 8 shards, a checkpoint every 500 ms, killed at the epoch-8
//                 barrier and resumed in a fresh fleet.
//   catalog_scan  the figure binaries' path: catalog generation, weighted and
//                 stratified scans, the analyzers they feed, and the offload
//                 what-if pass. No DES at all.
//
// Timed repetitions run on one executor worker; traced runs of fleet_epochs
// add repetitions on two.
//
// perfbench/README.md says why each exists and which layers it should move.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

enum class Workload { kFleetDense, kFleetEpochs, kCatalogScan };

// Returns false for an unknown name.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);
bool IsFleet(Workload w);

// What to run. Each workload's sizes are fixed in workloads.cc.
struct WorkloadConfig {
  Workload workload = Workload::kFleetDense;
  // Workload seed, added to MiniFleetOptions::seed (0xf1ee7) and to the
  // sampler seed (7); 0 reproduces the repository's default inputs.
  uint64_t seed = 0;
  // Directory for checkpoint stores; each repetition uses a fresh one below it.
  std::string work_dir;
};

// What one repetition measured and produced.
struct RepResult {
  double setup_s = 0;   // Catalog + construction (+ first arm) before the timed part.
  // First event or sample until the result is in hand, less the killed
  // fleet's teardown.
  double wall_s = 0;
  double work_s = 0;    // Host seconds inside RunSegment, or of sampling.
  double work_cpu_s = 0;  // Process CPU seconds inside RunSegment (fleets).
  uint64_t work = 0;    // DES events executed, or RPCs sampled.
  // Exact fingerprints of the simulated output: digests print in hex, counts
  // in decimal. A perf-only change must leave every one of them identical.
  std::map<std::string, uint64_t> digests;
  std::map<std::string, uint64_t> counts;
  Checks checks;
};

// Runs repetitions of one workload. Spans of layer calls go to `trace` while
// it is enabled.
class WorkloadRunner {
 public:
  WorkloadRunner(const WorkloadConfig& config, SpanTrace* trace);
  ~WorkloadRunner();
  WorkloadRunner(const WorkloadRunner&) = delete;
  WorkloadRunner& operator=(const WorkloadRunner&) = delete;

  // The warm-up repetition, run through the public run function fleet_study uses
  // (RunMiniFleet, or an uninterrupted RunMiniFleetCheckpointed at the same
  // cadence) — for the scan, through the same path as every repetition. Its
  // fingerprint becomes the reference the timed repetitions must reproduce.
  RepResult RunReference();

  // One repetition with `workers` executor threads (fleets only). Its checks
  // compare it against the reference and, for layer counts, against the first
  // repetition run.
  RepResult RunRepetition(int workers = 1);

  // One extra set-up sample: catalog + construction + first arm, then
  // teardown. Returns host seconds.
  double MeasureSetup();

 private:
  RepResult FleetRepetition(int workers);
  RepResult ScanRepetition();
  void CheckAgainstReference(RepResult& rep);

  WorkloadConfig config_;
  SpanTrace* trace_;
  std::unique_ptr<RepResult> reference_;
  std::unique_ptr<RepResult> first_rep_;
};

// The checks a repetition must pass against a reference: every digest and
// every reference count reproduced exactly. Counts only the repetition
// reports (layer counts) are compared against `first`, when given.
void CompareFingerprints(const RepResult& reference, const RepResult* first, RepResult& rep);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
