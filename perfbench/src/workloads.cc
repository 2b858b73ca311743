#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "host.h"
#include "src/checkpoint/checkpoint.h"
#include "src/core/analyses.h"
#include "src/fault/fault_plan.h"
#include "src/fleet/fleet_sampler.h"
#include "src/fleet/method_catalog.h"
#include "src/fleet/mini_fleet.h"
#include "src/net/topology.h"
#include "src/rpc/cost_model.h"
#include "src/rpc/rpc_system.h"
#include "src/rpc/stage_model.h"

namespace perfbench {

namespace fs = std::filesystem;
using rpcscope::FleetSampler;
using rpcscope::FleetSamplerOptions;
using rpcscope::FleetScan;
using rpcscope::FigureReport;
using rpcscope::MethodCatalog;
using rpcscope::MiniFleet;
using rpcscope::MiniFleetOptions;
using rpcscope::MiniFleetResult;
using rpcscope::RpcSystem;
using rpcscope::SampledRpc;
using rpcscope::ServiceCatalog;
using rpcscope::SimTime;
using rpcscope::Topology;

namespace {

constexpr uint64_t kFleetSeed = 0xf1ee7;
constexpr uint64_t kSamplerSeed = 7;
// Sampled RPCs drawn per batch before they are added to a scan: small enough
// to stay in L2, large enough that the two clock reads per batch cost nothing.
constexpr int64_t kScanBatch = 256;
// Checkpoints kept on disk, as the CI soak keeps them.
constexpr int kCheckpointKeep = 2;
// The weighted scan is fleet_study's default size. The stratified scan stays
// at 100 per method: AnalyzeLatency needs methods with at least 100 samples.
// The offload pass runs at the CI smoke size.
constexpr int64_t kWeightedSamples = 500000;
constexpr int kStratifiedPerMethod = 100;
constexpr int kOffloadPerMethod = 10;

uint64_t Fnv1a(const std::string& text, uint64_t h = 14695981039346656037ull) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// fleet_study's chaos plan (examples/fleet_study.cpp, MakeChaosPlan), scaled
// to the horizon the same way: a crash + restart, a gray slowdown and a lossy
// link on the lowest machine ids.
rpcscope::FaultPlan ChaosPlan(rpcscope::SimDuration duration) {
  rpcscope::FaultPlan plan;
  plan.crashes.push_back(
      {.machine = 1, .at = duration * 3 / 10, .restart_at = duration * 6 / 10});
  plan.gray_slowdowns.push_back(
      {.machine = 2, .factor = 40.0, .start = duration * 2 / 5, .end = duration * 7 / 10});
  plan.losses.push_back({.src = 3,
                         .dst = 4,
                         .loss_probability = 0.2,
                         .start = duration / 2,
                         .end = duration * 4 / 5});
  return plan;
}

// Records a failed call; builds the message only on failure, since most
// calls sit inside timed regions.
void ExpectOk(const rpcscope::Status& status, const char* call, Checks& checks) {
  if (!status.ok()) {
    checks.Expect(false, std::string(call) + ": " + status.ToString());
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

// Counts a repetition's fleet reports after Collect: what each layer did,
// summed over shards.
void AddFleetLayerCounts(RpcSystem& system, RepResult& rep) {
  auto counter = [&system](const char* name) {
    return static_cast<uint64_t>(system.MergedCounter(name));
  };
  rep.counts["rpc.completions_ok"] = counter("client.completions_ok");
  rep.counts["rpc.completions_err"] = counter("client.completions_err");
  rep.counts["rpc.retries"] = counter("client.retries");
  rep.counts["rpc.attempt_timeouts"] = counter("client.attempt_timeouts");
  rep.counts["rpc.queue_rejected"] = counter("client.queue_rejected");
  rep.counts["rpc.server_shed"] = counter("server.shed");
  rep.counts["fault.crashes"] = counter("fault.crashes");
  rep.counts["fault.restarts"] = counter("fault.restarts");
  rep.counts["fault.gray_windows"] = counter("fault.gray_windows");
  rep.counts["fault.loss_drops"] = counter("fault.loss_drops");
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t dropped = 0;
  uint64_t spans = 0;
  uint64_t peak_buffered = 0;
  for (int s = 0; s < system.num_shards(); ++s) {
    RpcSystem::ShardContext& shard = system.shard(s);
    messages += shard.fabric.messages_sent();
    bytes += static_cast<uint64_t>(shard.fabric.bytes_sent());
    dropped += shard.fabric.frames_dropped();
    spans += shard.tracer.spans().size();
    if (shard.stream_sink != nullptr) {
      peak_buffered = std::max<uint64_t>(peak_buffered, shard.stream_sink->peak_buffered_spans());
    }
  }
  rep.counts["net.messages_sent"] = messages;
  rep.counts["net.bytes_sent"] = bytes;
  rep.counts["net.frames_dropped"] = dropped;
  rep.counts["trace.spans"] = spans;
  rep.counts["monitor.peak_buffered_spans"] = peak_buffered;
}

// The fingerprint both the public run function's result and a repetition's Collect
// carry.
void AddFleetResultFingerprint(const MiniFleetResult& result, RepResult& rep) {
  rep.digests["event_digest"] = result.event_digest;
  rep.digests["streamed_digest"] = result.streamed_aggregate_digest;
  rep.digests["replayed_digest"] = result.replayed_aggregate_digest;
  rep.digests["exemplar_digest"] = result.exemplar_digest;
  rep.counts["sim.events"] = result.events_executed;
  rep.counts["fleet.root_calls"] = result.root_calls;
  rep.counts["fleet.spans_post_warmup"] = result.spans.size();
  rep.counts["monitor.spans_streamed"] = static_cast<uint64_t>(result.spans_streamed);
  rep.counts["monitor.windows_closed"] = static_cast<uint64_t>(result.windows_closed);
  rep.counts["monitor.span_buffer_drops"] = result.span_buffer_drops;
  rep.counts["monitor.reservoir_drops"] = static_cast<uint64_t>(result.reservoir_drops);
  rep.counts["policy.stages_applied"] = result.policy_stages_applied;
  rep.checks.ExpectEq(result.replayed_aggregate_digest, result.streamed_aggregate_digest,
                      "streamed aggregate digest equals the post-run replay");
  rep.checks.Expect(result.events_executed > 0 && !result.spans.empty(),
                    "the fleet executed events and produced spans");
}

// Draws `n` RPCs with `draw(i)` in batches, timing the draws and the scan adds
// as separate layer calls. `scan` may be null (the draws are then kept in
// `keep`).
template <typename Draw>
void BatchedScan(int64_t n, Draw draw, FleetScan* scan, std::vector<SampledRpc>* keep,
                 SpanTrace& trace, RepResult& rep) {
  std::vector<SampledRpc> batch;
  batch.reserve(static_cast<size_t>(kScanBatch));
  const double start = NowSeconds();
  for (int64_t i = 0; i < n; i += kScanBatch) {
    const int64_t m = std::min(kScanBatch, n - i);
    {
      ScopedSpan span(trace, "fleet.sample");
      batch.clear();
      for (int64_t j = 0; j < m; ++j) {
        batch.push_back(draw(i + j));
      }
    }
    if (scan != nullptr) {
      ScopedSpan span(trace, "core.scan_add");
      for (const SampledRpc& rpc : batch) {
        scan->Add(rpc);
      }
    } else {
      keep->insert(keep->end(), batch.begin(), batch.end());
    }
  }
  rep.work_s += NowSeconds() - start;
  rep.work += static_cast<uint64_t>(n);
}

// Options, fault plan and epoch cadence of one fleet workload (the warmup is
// MiniFleetOptions' default of 500 ms). The plan must outlive every MiniFleet
// constructed from the options.
struct FleetInputs {
  FleetInputs(Workload w, uint64_t seed) {
    options.seed = kFleetSeed + seed;
    if (w == Workload::kFleetDense) {
      // 10x bench_simcore's 400 rps per frontend, on one domain.
      options.frontend_rps = 4000;
      options.duration = rpcscope::Seconds(4);
      return;
    }
    // fleet_study's checkpoint mode with --chaos --rollout on 8 shards, as the
    // CI soak runs it: a checkpoint every 500 ms, killed at the epoch-8
    // barrier. The rollout is a 50 ms attempt watchdog and one retry, staged
    // fleet-wide at the run's midpoint barrier.
    options.frontend_rps = 600;
    options.duration = rpcscope::Seconds(8);
    options.num_shards = 8;
    checkpoint_every = rpcscope::Millis(500);
    kill_after_epochs = 8;
    rpcscope::PolicySnapshot stage;
    stage.defaults.attempt_timeout = rpcscope::Millis(50);
    stage.defaults.max_retries = 1;
    options.policy.AddStage(options.duration / 2, stage);
    plan = ChaosPlan(options.duration);
    options.fault_plan = &plan;
  }
  FleetInputs(const FleetInputs&) = delete;
  FleetInputs& operator=(const FleetInputs&) = delete;

  uint64_t NumEpochs() const {
    if (checkpoint_every <= 0) {
      return 1;
    }
    return static_cast<uint64_t>(std::max<int64_t>(
        1, (options.duration + checkpoint_every - 1) / checkpoint_every));
  }
  SimTime EpochEnd(uint64_t k) const {
    return k + 1 >= NumEpochs() ? rpcscope::kMaxSimTime
                                : static_cast<SimTime>(k + 1) * checkpoint_every;
  }

  rpcscope::FaultPlan plan;
  MiniFleetOptions options;
  rpcscope::SimDuration checkpoint_every = 0;  // 0: one uninterrupted epoch.
  int kill_after_epochs = 0;                   // 0: never killed.
};

// Catalog + fleet construction + arming of the first epoch: the fleets'
// set-up as a user pays it.
std::unique_ptr<MiniFleet> BuildFleet(const ServiceCatalog& services,
                                      const MiniFleetOptions& options, SimTime first_end,
                                      SpanTrace& trace, Checks& checks) {
  std::unique_ptr<MiniFleet> fleet;
  {
    ScopedSpan span(trace, "fleet.build");
    fleet = std::make_unique<MiniFleet>(services, options);
  }
  ScopedSpan span(trace, "fleet.arm");
  ExpectOk(fleet->ArmThrough(first_end), "ArmThrough", checks);
  return fleet;
}

ServiceCatalog BuildServices(SpanTrace& trace) {
  ScopedSpan span(trace, "fleet.catalog");
  return ServiceCatalog::BuildDefault();
}

// The scan's model inputs: catalogs (the default 10 k methods), topology and
// the cost model.
struct ScanInputs {
  explicit ScanInputs(SpanTrace& trace)
      : services(BuildServices(trace)),
        methods(Generate(services, trace)),
        topology(MakeTopology(trace)) {}

  static MethodCatalog Generate(const ServiceCatalog& services, SpanTrace& trace) {
    ScopedSpan span(trace, "fleet.catalog");
    return MethodCatalog::Generate(services, rpcscope::MethodCatalogOptions{});
  }
  static Topology MakeTopology(SpanTrace& trace) {
    ScopedSpan span(trace, "fleet.catalog");
    return Topology(rpcscope::TopologyOptions{});
  }

  ServiceCatalog services;
  MethodCatalog methods;
  Topology topology;
  rpcscope::CycleCostModel costs;
};

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::kFleetDense, Workload::kFleetEpochs, Workload::kCatalogScan}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kFleetDense:
      return "fleet_dense";
    case Workload::kFleetEpochs:
      return "fleet_epochs";
    case Workload::kCatalogScan:
      return "catalog_scan";
  }
  return "unknown";
}

bool IsFleet(Workload w) { return w != Workload::kCatalogScan; }

WorkloadRunner::WorkloadRunner(const WorkloadConfig& config, SpanTrace* trace)
    : config_(config), trace_(trace) {}

WorkloadRunner::~WorkloadRunner() = default;

double WorkloadRunner::MeasureSetup() {
  SpanTrace off(false);
  if (IsFleet(config_.workload)) {
    const FleetInputs inputs(config_.workload, config_.seed);
    Checks ignored;
    const double start = NowSeconds();
    const ServiceCatalog services = BuildServices(off);
    const std::unique_ptr<MiniFleet> fleet =
        BuildFleet(services, inputs.options, inputs.EpochEnd(0), off, ignored);
    return NowSeconds() - start;  // Before the fleet's teardown.
  }
  const double start = NowSeconds();
  const ScanInputs inputs(off);
  return NowSeconds() - start;
}

RepResult WorkloadRunner::RunReference() {
  RepResult ref;
  const double start = NowSeconds();
  if (config_.workload == Workload::kCatalogScan) {
    ref = ScanRepetition();
  } else {
    const FleetInputs inputs(config_.workload, config_.seed);
    const ServiceCatalog services = ServiceCatalog::BuildDefault();
    MiniFleetResult result;
    if (inputs.checkpoint_every <= 0) {
      result = rpcscope::RunMiniFleet(services, inputs.options);
    } else {
      const std::string dir = config_.work_dir + "/reference";
      std::error_code ec;
      fs::remove_all(dir, ec);
      rpcscope::CheckpointRunOptions ckpt;
      ckpt.dir = dir;
      ckpt.every = inputs.checkpoint_every;
      ckpt.keep = kCheckpointKeep;
      rpcscope::Result<MiniFleetResult> run =
          rpcscope::RunMiniFleetCheckpointed(services, inputs.options, ckpt);
      fs::remove_all(dir, ec);
      ExpectOk(run.status(), "RunMiniFleetCheckpointed", ref.checks);
      if (run.ok()) {
        result = std::move(*run);
      }
      ref.counts["checkpoint.writes"] = result.checkpoints_written;
    }
    ref.work = result.events_executed;
    AddFleetResultFingerprint(result, ref);
  }
  ref.wall_s = NowSeconds() - start;
  reference_ = std::make_unique<RepResult>(ref);
  return ref;
}

RepResult WorkloadRunner::RunRepetition(int workers) {
  RepResult rep =
      config_.workload == Workload::kCatalogScan ? ScanRepetition() : FleetRepetition(workers);
  CheckAgainstReference(rep);
  if (first_rep_ == nullptr) {
    first_rep_ = std::make_unique<RepResult>(rep);
  }
  return rep;
}

void WorkloadRunner::CheckAgainstReference(RepResult& rep) {
  if (reference_ == nullptr) {
    rep.checks.Expect(false, "no reference repetition was run");
    return;
  }
  CompareFingerprints(*reference_, first_rep_.get(), rep);
}

void CompareFingerprints(const RepResult& reference, const RepResult* first, RepResult& rep) {
  for (const auto& [name, want] : reference.digests) {
    const auto it = rep.digests.find(name);
    rep.checks.Expect(it != rep.digests.end(), name + " missing");
    if (it != rep.digests.end()) {
      rep.checks.ExpectEq(it->second, want, name + " reproduces the reference");
    }
  }
  for (const auto& [name, want] : reference.counts) {
    const auto it = rep.counts.find(name);
    rep.checks.Expect(it != rep.counts.end(), name + " missing");
    if (it != rep.counts.end()) {
      rep.checks.ExpectEq(it->second, want, name + " reproduces the reference");
    }
  }
  if (first == nullptr) {
    return;
  }
  for (const auto& [name, want] : first->counts) {
    if (reference.counts.count(name) != 0) {
      continue;
    }
    const auto it = rep.counts.find(name);
    rep.checks.Expect(it != rep.counts.end(), name + " missing");
    if (it != rep.counts.end()) {
      rep.checks.ExpectEq(it->second, want, name + " repeats the first repetition");
    }
  }
}

RepResult WorkloadRunner::FleetRepetition(int workers) {
  SpanTrace& trace = *trace_;
  FleetInputs inputs(config_.workload, config_.seed);
  inputs.options.worker_threads = workers;
  const uint64_t epochs = inputs.NumEpochs();
  const std::string dir = config_.work_dir + "/ckpt";
  const bool checkpointing = inputs.checkpoint_every > 0;
  std::error_code ec;
  if (checkpointing) {
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
  }

  RepResult rep;
  const double setup_start = NowSeconds();
  const ServiceCatalog services = BuildServices(trace);
  std::unique_ptr<MiniFleet> fleet =
      BuildFleet(services, inputs.options, inputs.EpochEnd(0), trace, rep.checks);
  rep.setup_s = NowSeconds() - setup_start;
  const uint64_t config_hash = fleet->ConfigHash(inputs.checkpoint_every);

  // A killed process frees its memory without running destructors, so the
  // killed fleet's teardown is timed apart and left out of wall_s.
  double teardown_s = 0;
  uint64_t writes = 0;
  uint64_t bytes_written = 0;
  uint64_t last_bytes = 0;
  uint64_t rounds = 0;
  uint64_t cross = 0;
  MiniFleetResult result;

  const double wall_start = NowSeconds();
  const int rep_span = trace.Begin("rep");
  for (uint64_t k = 0; k < epochs; ++k) {
    const bool final_epoch = k + 1 == epochs;
    const SimTime end = inputs.EpochEnd(k);
    if (k > 0) {
      ScopedSpan span(trace, "fleet.arm");
      ExpectOk(fleet->ArmThrough(end), "ArmThrough", rep.checks);
    }
    {
      ScopedSpan span(trace, "sim.run");
      RpcSystem& system = fleet->system();
      const uint64_t events_before = system.TotalEventsExecuted();
      const double cpu_before = ProcessCpuSeconds();
      const double t0 = NowSeconds();
      fleet->RunSegment(end);
      rep.work_s += NowSeconds() - t0;
      rep.work_cpu_s += ProcessCpuSeconds() - cpu_before;
      rep.work += system.TotalEventsExecuted() - events_before;
      // Summed per segment: MiniFleetResult keeps only the last segment's
      // executor stats.
      rounds += system.last_rounds();
      cross += system.last_cross_domain_events();
    }
    if (final_epoch) {
      break;
    }
    {
      ScopedSpan span(trace, "sim.resync");
      ExpectOk(fleet->ResyncAt(end), "ResyncAt", rep.checks);
    }
    if (checkpointing) {
      {
        ScopedSpan span(trace, "checkpoint.write");
        ExpectOk(fleet->WriteCheckpoint(dir, k + 1, config_hash, inputs.options.duration,
                                        kCheckpointKeep),
                 "WriteCheckpoint", rep.checks);
      }
      ++writes;
      const std::vector<std::string> stored = rpcscope::ListCheckpoints(dir);
      last_bytes = stored.empty() ? 0 : DirectoryBytes(stored.back());
      bytes_written += last_bytes;
    }
    if (inputs.kill_after_epochs > 0 &&
        k + 1 == static_cast<uint64_t>(inputs.kill_after_epochs)) {
      // Kill at this barrier and resume in a fresh fleet from the newest
      // valid checkpoint, as a restarted fleet_study --resume would.
      {
        ScopedSpan span(trace, "fleet.teardown");
        const double t0 = NowSeconds();
        fleet.reset();
        teardown_s = NowSeconds() - t0;
      }
      {
        ScopedSpan span(trace, "fleet.build");
        fleet = std::make_unique<MiniFleet>(services, inputs.options);
      }
      ScopedSpan span(trace, "checkpoint.restore");
      const rpcscope::Result<std::string> newest =
          rpcscope::NewestValidCheckpoint(dir, config_hash);
      ExpectOk(newest.status(), "NewestValidCheckpoint", rep.checks);
      if (newest.ok()) {
        const rpcscope::Result<uint64_t> epoch = fleet->RestoreCheckpoint(*newest, config_hash);
        rep.checks.Expect(epoch.ok() && *epoch == k + 1,
                          "RestoreCheckpoint resumes at the kill barrier");
      }
    }
  }
  {
    ScopedSpan span(trace, "fleet.collect");
    result = fleet->Collect();
  }
  trace.End(rep_span);
  rep.wall_s = NowSeconds() - wall_start - teardown_s;

  if (trace.enabled()) {
    // Timed only to split Collect's cost; outside the repetition's wall.
    std::vector<rpcscope::Span> merged;
    {
      ScopedSpan span(trace, "trace.merge");
      merged = fleet->system().MergedSpans();
    }
    ScopedSpan span(trace, "monitor.replay");
    const rpcscope::ObservabilityHub hub =
        rpcscope::ReplayIntoHub(merged, inputs.options.observability);
    rep.checks.ExpectEq(hub.AggregateDigest(), result.streamed_aggregate_digest,
                        "separately timed replay equals the streamed digest");
  }

  AddFleetResultFingerprint(result, rep);
  AddFleetLayerCounts(fleet->system(), rep);
  rep.counts["sim.rounds"] = rounds;
  rep.counts["sim.cross_domain_events"] = cross;
  if (checkpointing) {
    rep.counts["checkpoint.writes"] = writes;
    rep.counts["checkpoint.bytes_written"] = bytes_written;
    rep.counts["checkpoint.last_bytes"] = last_bytes;
    fs::remove_all(dir, ec);
  }
  rep.checks.ExpectEq(rep.work, result.events_executed,
                      "events counted per segment equal the fleet's total");
  return rep;
}

RepResult WorkloadRunner::ScanRepetition() {
  SpanTrace& trace = *trace_;
  RepResult rep;
  const double setup_start = NowSeconds();
  const ScanInputs in(trace);
  rep.setup_s = NowSeconds() - setup_start;
  FleetSamplerOptions sampler_options;
  sampler_options.seed = kSamplerSeed + config_.seed;
  const int32_t num_methods = in.methods.size();
  const int64_t stratified = static_cast<int64_t>(num_methods) * kStratifiedPerMethod;
  const int64_t offload = static_cast<int64_t>(num_methods) * kOffloadPerMethod;

  std::vector<FigureReport> reports;
  rpcscope::OffloadWhatIf whatif;
  FleetScan weighted(num_methods);
  FleetScan strat(num_methods);
  std::vector<SampledRpc> offload_rpcs;

  const double wall_start = NowSeconds();
  const int rep_span = trace.Begin("rep");
  {
    // Each scan draws from a freshly seeded sampler, as the figure binaries do.
    FleetSampler sampler(&in.services, &in.methods, &in.topology, &in.costs, sampler_options);
    BatchedScan(
        kWeightedSamples, [&sampler](int64_t) { return sampler.Sample(); }, &weighted,
        nullptr, trace, rep);
  }
  {
    FleetSampler sampler(&in.services, &in.methods, &in.topology, &in.costs, sampler_options);
    BatchedScan(
        stratified,
        [&sampler](int64_t i) {
          return sampler.SampleMethod(static_cast<int32_t>(i / kStratifiedPerMethod));
        },
        &strat, nullptr, trace, rep);
  }
  {
    ScopedSpan span(trace, "core.analyze");
    reports.push_back(rpcscope::AnalyzeLatency(strat.agg));                         // Fig. 2
    reports.push_back(rpcscope::AnalyzePopularity(weighted.agg, in.methods));       // Fig. 3
    reports.push_back(rpcscope::AnalyzeSizes(strat.agg));                           // Fig. 6
    reports.push_back(rpcscope::AnalyzeSizeRatio(strat.agg));                       // Fig. 7
    reports.push_back(
        rpcscope::AnalyzeServiceMix(weighted.agg, weighted.profile, in.services));  // Fig. 8
    reports.push_back(rpcscope::AnalyzeTaxRatio(strat.agg));                        // Fig. 11
    reports.push_back(rpcscope::AnalyzeWireStack(strat.agg));                       // Fig. 12
    reports.push_back(rpcscope::AnalyzeQueueing(strat.agg));                        // Fig. 13
    reports.push_back(rpcscope::AnalyzeCycleTax(weighted.profile));                 // Fig. 20
    reports.push_back(rpcscope::AnalyzeMethodCycles(strat.agg));                    // Fig. 21
    reports.push_back(rpcscope::AnalyzeErrors(weighted.error_counts, weighted.error_cycles,
                                              weighted.total_calls));               // Fig. 23
  }
  {
    FleetSampler sampler(&in.services, &in.methods, &in.topology, &in.costs, sampler_options);
    offload_rpcs.reserve(static_cast<size_t>(offload));
    BatchedScan(
        offload,
        [&sampler](int64_t i) {
          return sampler.SampleMethod(static_cast<int32_t>(i / kOffloadPerMethod));
        },
        nullptr, &offload_rpcs, trace, rep);
    ScopedSpan span(trace, "core.offload");
    whatif = rpcscope::AnalyzeOffloadWhatIf(offload_rpcs, in.costs,
                                            rpcscope::BuiltinProfileCatalog());
  }
  trace.End(rep_span);
  rep.wall_s = NowSeconds() - wall_start;

  uint64_t report_digest = 14695981039346656037ull;
  uint64_t nonempty = 0;
  for (const FigureReport& r : reports) {
    const std::string text = r.Render();
    report_digest = Fnv1a(text, report_digest);
    const bool has_content = !r.tables.empty() && !text.empty();
    nonempty += has_content ? 1 : 0;
    rep.checks.Expect(has_content, "report " + r.id + " is non-empty");
  }
  const std::string whatif_text = whatif.report.Render();
  rep.checks.Expect(!whatif.report.tables.empty() && !whatif.profiles.empty(),
                    "offload what-if report is non-empty");
  rep.digests["report_digest"] = report_digest;
  rep.digests["offload_digest"] = Fnv1a(whatif_text);
  rep.counts["fleet.samples"] = rep.work;
  rep.counts["scan.weighted_calls"] = static_cast<uint64_t>(weighted.total_calls);
  rep.counts["scan.stratified_calls"] = static_cast<uint64_t>(strat.total_calls);
  rep.counts["scan.offload_rpcs"] = offload_rpcs.size();
  rep.counts["scan.reports_nonempty"] = nonempty;
  uint64_t errors = 0;
  for (const auto& [code, n] : weighted.error_counts) {
    errors += static_cast<uint64_t>(n);
  }
  rep.counts["scan.weighted_errors"] = errors;
  rep.checks.ExpectEq(static_cast<uint64_t>(weighted.total_calls),
                      static_cast<uint64_t>(kWeightedSamples), "weighted scan total");
  rep.checks.ExpectEq(static_cast<uint64_t>(weighted.agg.total_calls()),
                      static_cast<uint64_t>(kWeightedSamples), "weighted aggregator total");
  rep.checks.ExpectEq(static_cast<uint64_t>(strat.total_calls),
                      static_cast<uint64_t>(stratified), "stratified scan total");
  rep.checks.ExpectEq(static_cast<uint64_t>(strat.agg.total_calls()),
                      static_cast<uint64_t>(stratified), "stratified aggregator total");
  rep.checks.ExpectEq(offload_rpcs.size(), static_cast<uint64_t>(offload), "offload sample count");
  rep.checks.ExpectEq(whatif.profiles.size(), rpcscope::BuiltinProfileCatalog().size(),
                      "offload what-if covers every built-in profile");
  return rep;
}

}  // namespace perfbench
