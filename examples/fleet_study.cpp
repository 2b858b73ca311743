// The paper's measurement pipeline in miniature: generate the synthetic
// fleet (service catalog + 10K-method population), collect sampled traces,
// and print a fleet characterization — latency scales, popularity skew,
// latency-tax split, cycle tax, and error taxonomy — side by side with the
// paper's headline numbers.
//
//   ./fleet_study [num_samples]
//
// --observe [seconds] runs the live mode instead: the Table-1 mini-fleet
// executes as a sharded DES while the streaming observability pipeline
// (docs/OBSERVABILITY.md) closes short Monarch windows at round barriers and
// prints the per-window fleet RPS / error / latency series as virtual time
// advances — monitoring the fleet while it runs, no post-run pass.
//
// Checkpoint mode (docs/ROBUSTNESS.md#checkpointrestore) runs the mini-fleet
// in epochs and snapshots it at each barrier, so a killed run can be resumed
// bit-for-bit:
//
//   ./fleet_study --checkpoint-dir=DIR --checkpoint-every=MS
//       [--checkpoint-keep=N] [--resume=DIR] [--chaos] [--rollout] [--seed=S]
//       [--duration-ms=MS] [--workers=W] [--shards=N] [--stop-after-epochs=K]
//
// --rollout stages a policy swap (docs/POLICY.md) at the run's midpoint, so
// the soak can kill and resume with the rollout in flight.
//
// Prints machine-parsable `event_digest=` / `streamed_digest=` lines so the
// checkpoint-soak CI job can diff an interrupted+resumed run against an
// uninterrupted one. Exits 0 on a completed run, 3 when stopped early by
// --stop-after-epochs (the simulated kill), 1 on error or digest mismatch.
//
// Policy-rollout mode (docs/POLICY.md) demos the managed policy plane's
// staged-rollout story with a deliberately bad retry policy (an attempt
// watchdog far below the fleet's RCT, plus eager retries):
//
//   ./fleet_study --policy-rollout=<canary_ms>:<fleet_ms>   (or =demo)
//       [--seed=S] [--duration-ms=MS] [--workers=W] [--shards=N] [--colocate]
//
// Three deterministic runs: a baseline, a canary rollout (the bad policy
// scoped to the busiest service at canary_ms — the canary gate catches the
// error spike and halts), and the counterfactual fleet-wide rollout showing
// the goodput collapse the gate prevented. --colocate places frontends on
// their target replicas so the bypassed-tax fraction line is live too.
// Exits 0 when the canary catches the regression.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/core/analyses.h"
#include "src/fault/fault_plan.h"
#include "src/fleet/fleet_sampler.h"
#include "src/fleet/mini_fleet.h"

using namespace rpcscope;

namespace {

int RunObserve(SimDuration duration) {
  const ServiceCatalog services = ServiceCatalog::BuildDefault();
  MiniFleetOptions options;
  options.duration = duration;
  options.warmup = 0;  // Observe from t=0; no post-run filtering here.
  options.frontend_rps = 600;
  options.num_shards = 8;
  options.worker_threads = 2;
  options.observability.window = Millis(100);
  std::printf("live observation: Table-1 mini-fleet, %d shards, %s windows\n",
              options.num_shards, FormatDuration(options.observability.window).c_str());
  std::printf("%-10s %-8s %-8s %-8s %-10s\n", "window", "spans", "rps", "errors", "mean RCT");
  options.window_tap = [](const WindowStats& w) {
    // Fires on the coordinator thread the moment a round barrier's watermark
    // passes the window end — mid-run, while later windows are still being
    // simulated.
    std::printf("%-10s %-8lld %-8.0f %-8lld %-10s\n",
                FormatDuration(w.window_start).c_str(), static_cast<long long>(w.spans),
                w.Rps(), static_cast<long long>(w.errors),
                FormatDuration(static_cast<SimDuration>(w.MeanTotalNanos())).c_str());
  };
  const MiniFleetResult result = RunMiniFleet(services, options);
  std::printf("\nstreamed %lld spans into %lld windows (%lld closed live)\n",
              static_cast<long long>(result.spans_streamed),
              static_cast<long long>(result.windows_closed),
              static_cast<long long>(result.windows_closed));
  std::printf("streamed aggregate digest %016llx; post-run replay %s\n",
              static_cast<unsigned long long>(result.streamed_aggregate_digest),
              result.streamed_aggregate_digest == result.replayed_aggregate_digest
                  ? "matches bit-for-bit"
                  : "MISMATCH");
  return result.streamed_aggregate_digest == result.replayed_aggregate_digest ? 0 : 1;
}

// Chaos plan for checkpointed runs, scaled to the horizon: a crash+restart,
// a gray slowdown, and a lossy link, all on low machine ids (the first
// network-disk replicas, deployed first so they always exist). The plan is
// copied into the fleet and folded into the checkpoint config hash, so a
// resume with a different plan (or none) is rejected.
FaultPlan MakeChaosPlan(SimDuration duration) {
  FaultPlan plan;
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

// Returns the value part if `arg` starts with `flag` (a "--name=" prefix).
const char* FlagValue(const char* arg, const char* flag) {
  const size_t n = std::strlen(flag);
  return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
}

// Colocated fast-path accounting line (docs/POLICY.md#colocated-bypass):
// silent when no call took the bypass.
void PrintBypassedTax(const MiniFleetResult& result) {
  const double denom = result.paid_tax_cycles + result.avoided_tax_cycles;
  if (result.colocated_calls == 0 || denom <= 0) {
    return;
  }
  std::printf("colocated fast path: %llu calls bypassed serialization+wire; "
              "bypassed-tax fraction %.1f%% (avoided %.3g of %.3g tax cycles)\n",
              static_cast<unsigned long long>(result.colocated_calls),
              100.0 * result.avoided_tax_cycles / denom, result.avoided_tax_cycles, denom);
}

// Ok/total span counts for one scope over [from, to): svc == -1 means every
// service; exclude flips the service filter (the fleet *minus* the canary).
struct ScopeStats {
  int64_t total = 0;
  int64_t ok = 0;
  double ErrorRate() const {
    return total > 0 ? 1.0 - static_cast<double>(ok) / static_cast<double>(total) : 0.0;
  }
  double OkPerSec(SimDuration window) const {
    return window > 0 ? static_cast<double>(ok) / ToSeconds(window) : 0.0;
  }
};

ScopeStats StatsFor(const std::vector<Span>& spans, SimTime from, SimTime to, int32_t svc,
                    bool exclude) {
  ScopeStats s;
  for (const Span& span : spans) {
    if (span.start_time < from || span.start_time >= to) {
      continue;
    }
    if (svc >= 0 && (span.service_id == svc) == exclude) {
      continue;
    }
    ++s.total;
    if (span.status == StatusCode::kOk) {
      ++s.ok;
    }
  }
  return s;
}

int RunPolicyRollout(const char* spec, int argc, char** argv) {
  MiniFleetOptions options;
  options.duration = Seconds(4);
  options.warmup = Millis(500);
  options.frontend_rps = 600;
  options.num_shards = 8;
  options.worker_threads = 2;
  SimTime canary_at = Millis(1500);
  SimTime fleet_at = Millis(2500);
  if (std::strcmp(spec, "demo") != 0 && *spec != '\0') {
    char* rest = nullptr;
    canary_at = Millis(std::strtoll(spec, &rest, 10));
    if (rest == nullptr || *rest != ':') {
      std::fprintf(stderr, "bad --policy-rollout spec %s (want <canary_ms>:<fleet_ms>)\n", spec);
      return 1;
    }
    fleet_at = Millis(std::atoll(rest + 1));
  }
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (FlagValue(argv[i], "--policy-rollout=")) {
      continue;
    } else if ((v = FlagValue(argv[i], "--seed="))) {
      options.seed = static_cast<uint64_t>(std::atoll(v));
    } else if ((v = FlagValue(argv[i], "--duration-ms="))) {
      options.duration = Millis(std::atoll(v));
    } else if ((v = FlagValue(argv[i], "--workers="))) {
      options.worker_threads = std::atoi(v);
    } else if ((v = FlagValue(argv[i], "--shards="))) {
      options.num_shards = std::atoi(v);
    } else if (std::strcmp(argv[i], "--colocate") == 0) {
      options.colocate_frontends = true;
    } else {
      std::fprintf(stderr, "unknown policy-rollout flag: %s\n", argv[i]);
      return 1;
    }
  }
  if (!(canary_at > options.warmup && fleet_at > canary_at && options.duration > fleet_at)) {
    std::fprintf(stderr, "rollout stages must satisfy warmup < canary < fleet < duration\n");
    return 1;
  }

  // The bad policy under rollout: a watchdog far below the fleet's tens-of-ms
  // RCT plus eager retries — every slow call burns its whole retry allowance
  // and still fails, while the duplicate attempts keep the servers busy.
  MethodPolicy bad;
  bad.attempt_timeout = Millis(5);
  bad.max_retries = 4;
  bad.retry_backoff = Micros(100);
  bad.retry_backoff_cap = Micros(500);

  const ServiceCatalog services = ServiceCatalog::BuildDefault();
  std::printf("policy rollout drill: bad retry policy (5ms watchdog, 4 retries); "
              "canary stage at %s, fleet stage at %s\n",
              FormatDuration(canary_at).c_str(), FormatDuration(fleet_at).c_str());

  // Run 1 — baseline, no timeline. Also picks the canary scope: the busiest
  // service, so the canary-window stats have the most samples behind them.
  const MiniFleetResult baseline = RunMiniFleet(services, options);
  int32_t canary_svc = -1;
  int64_t canary_spans = -1;
  for (const auto& [svc, n] : baseline.spans_per_service) {
    if (n > canary_spans) {
      canary_svc = svc;
      canary_spans = n;
    }
  }
  if (canary_svc < 0) {
    std::fprintf(stderr, "baseline run produced no spans\n");
    return 1;
  }
  const SimTime end = options.duration;
  const ScopeStats base_all = StatsFor(baseline.spans, canary_at, end, -1, false);
  std::printf("baseline:     fleet goodput %.0f ok/s, error rate %.1f%% (canary scope: "
              "service %d, %lld spans)\n",
              base_all.OkPerSec(end - canary_at), 100.0 * base_all.ErrorRate(),
              canary_svc, static_cast<long long>(canary_spans));

  // Run 2 — the guarded rollout: stage 1 scopes the bad policy to the canary
  // service only. The rest of the fleet keeps the initial policy.
  MiniFleetOptions canary_run = options;
  PolicySnapshot canary_stage;
  canary_stage.SetOverride(canary_svc, bad);
  canary_run.policy.AddStage(canary_at, canary_stage);
  const MiniFleetResult canaried = RunMiniFleet(services, canary_run);
  const ScopeStats canary_before = StatsFor(canaried.spans, 0, canary_at, canary_svc, false);
  const ScopeStats canary_after = StatsFor(canaried.spans, canary_at, end, canary_svc, false);
  const ScopeStats rest_after = StatsFor(canaried.spans, canary_at, end, canary_svc, true);
  std::printf("canary stage: service %d error rate %.1f%% -> %.1f%% after the swap; "
              "rest of fleet %.1f%%\n",
              canary_svc, 100.0 * canary_before.ErrorRate(), 100.0 * canary_after.ErrorRate(),
              100.0 * rest_after.ErrorRate());
  const bool caught = canary_after.ErrorRate() > canary_before.ErrorRate() + 0.20 &&
                      canary_after.ErrorRate() > 2.0 * (canary_before.ErrorRate() + 1e-9);
  PrintBypassedTax(canaried);

  // Run 3 — the counterfactual the gate prevented: stage 2 promotes the bad
  // policy to the fleet defaults at fleet_at.
  MiniFleetOptions fleet_run = canary_run;
  PolicySnapshot fleet_stage;
  fleet_stage.defaults = bad;
  fleet_run.policy.AddStage(fleet_at, fleet_stage);
  const MiniFleetResult collapsed = RunMiniFleet(services, fleet_run);
  const ScopeStats collapse = StatsFor(collapsed.spans, fleet_at, end, -1, false);
  const ScopeStats healthy = StatsFor(canaried.spans, fleet_at, end, -1, false);
  std::printf("counterfactual fleet-wide stage: goodput %.0f ok/s vs %.0f ok/s when halted "
              "at the canary (error rate %.1f%% vs %.1f%%)\n",
              collapse.OkPerSec(end - fleet_at), healthy.OkPerSec(end - fleet_at),
              100.0 * collapse.ErrorRate(), 100.0 * healthy.ErrorRate());

  if (caught && collapse.ErrorRate() > healthy.ErrorRate()) {
    std::printf("verdict: canary caught the bad policy at %s — rollout halted before the "
                "fleet-wide stage\n",
                FormatDuration(canary_at).c_str());
    return 0;
  }
  std::printf("verdict: canary did NOT separate the bad policy from the baseline\n");
  return 1;
}

int RunCheckpointed(int argc, char** argv) {
  MiniFleetOptions options;
  options.duration = Seconds(4);
  options.warmup = Millis(500);
  options.frontend_rps = 600;
  options.num_shards = 8;
  options.worker_threads = 2;
  CheckpointRunOptions ckpt;
  bool chaos = false;
  bool rollout = false;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = FlagValue(argv[i], "--checkpoint-dir="))) {
      ckpt.dir = v;
    } else if ((v = FlagValue(argv[i], "--checkpoint-every="))) {
      ckpt.every = Millis(std::atoll(v));
    } else if ((v = FlagValue(argv[i], "--checkpoint-keep="))) {
      ckpt.keep = std::atoi(v);
    } else if ((v = FlagValue(argv[i], "--resume="))) {
      ckpt.dir = v;
      ckpt.resume = true;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      ckpt.resume = true;
    } else if ((v = FlagValue(argv[i], "--seed="))) {
      options.seed = static_cast<uint64_t>(std::atoll(v));
    } else if ((v = FlagValue(argv[i], "--duration-ms="))) {
      options.duration = Millis(std::atoll(v));
    } else if ((v = FlagValue(argv[i], "--workers="))) {
      options.worker_threads = std::atoi(v);
    } else if ((v = FlagValue(argv[i], "--shards="))) {
      options.num_shards = std::atoi(v);
    } else if ((v = FlagValue(argv[i], "--stop-after-epochs="))) {
      ckpt.stop_after_epochs = std::atoi(v);
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--rollout") == 0) {
      rollout = true;
    } else {
      std::fprintf(stderr, "unknown checkpoint-mode flag: %s\n", argv[i]);
      return 1;
    }
  }
  if (rollout) {
    // A mid-run staged policy swap (docs/POLICY.md), so the checkpoint soak
    // can kill and resume with a rollout in flight. The stage lands at the
    // run's midpoint barrier; the timeline is part of the checkpoint config
    // hash, so a resume without --rollout is rejected instead of diverging.
    PolicySnapshot stage;
    stage.defaults.attempt_timeout = Millis(50);
    stage.defaults.max_retries = 1;
    options.policy.AddStage(options.duration / 2, stage);
  }
  FaultPlan plan;
  if (chaos) {
    plan = MakeChaosPlan(options.duration);
    options.fault_plan = &plan;
  }

  const ServiceCatalog services = ServiceCatalog::BuildDefault();
  const Result<MiniFleetResult> run = RunMiniFleetCheckpointed(services, options, ckpt);
  if (!run.ok()) {
    std::fprintf(stderr, "checkpointed run failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const MiniFleetResult& result = *run;
  std::printf("epochs: resumed_at=%llu interrupted=%d checkpoints_written=%llu\n",
              static_cast<unsigned long long>(result.resumed_epoch),
              result.interrupted ? 1 : 0,
              static_cast<unsigned long long>(result.checkpoints_written));
  if (result.interrupted) {
    std::printf("stopped early after --stop-after-epochs; resume with --resume=%s\n",
                ckpt.dir.c_str());
    return 3;
  }
  std::printf("events_executed=%llu\n", static_cast<unsigned long long>(result.events_executed));
  std::printf("policy_version=%llu policy_stages_applied=%llu\n",
              static_cast<unsigned long long>(result.policy_version),
              static_cast<unsigned long long>(result.policy_stages_applied));
  PrintBypassedTax(result);
  std::printf("event_digest=%016llx\n", static_cast<unsigned long long>(result.event_digest));
  std::printf("streamed_digest=%016llx\n",
              static_cast<unsigned long long>(result.streamed_aggregate_digest));
  std::printf("replayed_digest=%016llx\n",
              static_cast<unsigned long long>(result.replayed_aggregate_digest));
  return result.streamed_aggregate_digest == result.replayed_aggregate_digest ? 0 : 1;
}

bool WantsCheckpointMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--checkpoint", 12) == 0 ||
        std::strncmp(argv[i], "--resume", 8) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t samples = 500000;
  if (argc > 1 && std::strcmp(argv[1], "--observe") == 0) {
    return RunObserve(argc > 2 ? Seconds(std::atoll(argv[2])) : Seconds(2));
  }
  for (int i = 1; i < argc; ++i) {
    if (const char* spec = FlagValue(argv[i], "--policy-rollout=")) {
      return RunPolicyRollout(spec, argc, argv);
    }
  }
  if (WantsCheckpointMode(argc, argv)) {
    return RunCheckpointed(argc, argv);
  }
  if (argc > 1) {
    samples = std::atoll(argv[1]);
  }

  // The fleet substitute: services (Table 1 + supporting population) and the
  // calibrated generative method catalog.
  const ServiceCatalog services = ServiceCatalog::BuildDefault();
  const MethodCatalog methods = MethodCatalog::Generate(services, {});
  const Topology topology{TopologyOptions{}};
  const CycleCostModel costs;

  std::printf("fleet: %d services, %d methods, %d clusters\n", services.size(),
              methods.size(), topology.num_clusters());
  std::printf("sampling %lld popularity-weighted RPCs...\n\n",
              static_cast<long long>(samples));

  FleetSampler sampler(&services, &methods, &topology, &costs, {});
  FleetScan scan(methods.size());
  for (int64_t i = 0; i < samples; ++i) {
    scan.Add(sampler.Sample());
  }

  // Popularity skew and per-method latency (invocation-weighted scan covers
  // the popular methods; per-method figures in bench/ use stratified scans).
  std::fputs(AnalyzePopularity(scan.agg, methods).Render().c_str(), stdout);
  std::fputs(AnalyzeCycleTax(scan.profile).Render().c_str(), stdout);
  std::fputs(
      AnalyzeErrors(scan.error_counts, scan.error_cycles, scan.total_calls).Render().c_str(),
      stdout);

  // A few headline spans, to make the data tangible.
  std::printf("example sampled RPCs:\n");
  FleetSampler preview(&services, &methods, &topology, &costs, {.seed = 99});
  for (int i = 0; i < 5; ++i) {
    const SampledRpc rpc = preview.Sample();
    const MethodModel& m = methods.method(rpc.span.method_id);
    std::printf("  %-28s RCT %-10s tax %-9s req %lldB  status %s\n", m.name.c_str(),
                FormatDuration(rpc.span.latency.Total()).c_str(),
                FormatDuration(rpc.span.latency.Tax()).c_str(),
                static_cast<long long>(rpc.span.request_payload_bytes),
                std::string(StatusCodeName(rpc.span.status)).c_str());
  }
  return 0;
}
