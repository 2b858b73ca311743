// MiniFleet: the Table-1 service graph, live.
//
// Table 1 names each studied service's *client*: Recommendation calls
// KV-Store, KV-Store's data comes from Bigtable, Bigtable reads Network Disk,
// BigQuery looks up the SSD cache, Video Search fetches Video Metadata. This
// module deploys those services as real DES servers with handlers that call
// their Table-1 dependencies, drives the frontends with open-loop load, and
// returns the full nested traces — a running miniature of the fleet the paper
// measured, rather than eight isolated studies.
//
// Each service is the one Figs. 14–19 characterize: MakeStudyConfig's preset
// (src/fleet/service_study.h) served by the study's ServeStudyCall. The
// mini-fleet adds only what Table 1 and the load add, as a table in
// mini_fleet.cc: replica counts, dependency edges and frontend targets.
//
// The fleet is a long-lived object so long-horizon runs can be split into
// epochs and checkpointed at quiescent barriers (docs/ROBUSTNESS.md
// #checkpointrestore). RunMiniFleetCheckpointed is the one driver: it runs
// the epoch loop with snapshot/resume, and RunMiniFleet is its one-epoch case
// (no checkpoint directory, one uninterrupted epoch).
#ifndef RPCSCOPE_SRC_FLEET_MINI_FLEET_H_
#define RPCSCOPE_SRC_FLEET_MINI_FLEET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/fleet/service_catalog.h"
#include "src/monitor/stream.h"
#include "src/rpc/client.h"
#include "src/rpc/server.h"

namespace rpcscope {

struct FaultPlan;
class FaultInjector;
struct MiniFleetDeployment;
struct MiniFleetFrontend;

struct MiniFleetOptions {
  SimDuration duration = Seconds(4);
  SimDuration warmup = Millis(500);
  // Root request rate driven into each frontend entry point.
  double frontend_rps = 600;
  uint64_t seed = 0xf1ee7;
  // Shard-domain execution (docs/PARALLEL.md). With num_shards == 1 (the
  // default) placement and results are exactly the legacy single-domain
  // fleet. With more shards, each service gets its own cluster (and the
  // frontends theirs), so the Table-1 dependency edges become cross-shard
  // RPCs; results are deterministic per (options, num_shards) and identical
  // for any worker_threads value.
  int num_shards = 1;
  int worker_threads = 1;
  // Streaming observability pipeline configuration (src/monitor/stream.h);
  // forwarded to RpcSystemOptions. The run always aggregates online at round
  // barriers, and the result carries both the streamed and post-run-replayed
  // digests so callers can assert equivalence.
  ObservabilityOptions observability;
  // Optional live tap: invoked on the coordinator thread each time the hub
  // closes a metric window (watermark passed its end). Drive it with a short
  // observability.window to watch fleet RPS/latency evolve during the run.
  std::function<void(const WindowStats&)> window_tap;
  // Optional chaos: a fault plan executed by a fleet-owned FaultInjector,
  // epoch-gated so checkpoint barriers stay quiescent. The plan is copied at
  // construction; the pointer only needs to live through the MiniFleet
  // constructor, which clears its own copy of it. The injector's copy of the
  // plan is folded into the checkpoint config hash.
  const FaultPlan* fault_plan = nullptr;
  // Managed policy plane (docs/POLICY.md): the authored timeline of client
  // retry knobs (fleet defaults, per-service overrides), forwarded to
  // RpcSystemOptions. Stages apply at conservative-round barriers; an empty
  // timeline reproduces the pre-policy fleet bit-for-bit. Timeline content
  // is folded into the checkpoint config hash.
  PolicyTimeline policy;
  // Colocated zero-copy fast path demo wiring: place each frontend on its
  // target deployment's first machine and enable ClientOptions::
  // colocated_bypass, so root calls that pick that replica skip
  // serialization and the wire (docs/POLICY.md#colocated-bypass).
  bool colocate_frontends = false;
};

struct MiniFleetResult {
  std::vector<Span> spans;  // All spans (every tier), post-warmup.
  uint64_t root_calls = 0;
  // Spans per service id, for mix sanity checks.
  std::map<int32_t, int64_t> spans_per_service;
  // Determinism fingerprint: total events executed and the order-sensitive
  // (time, seq) event digest (the per-shard fold for sharded runs). Two runs
  // with the same options must match exactly — for sharded runs regardless
  // of worker_threads; the determinism regression tests assert this.
  uint64_t events_executed = 0;
  uint64_t event_digest = 0;
  // Executor stats summed over every segment (single-domain runs count one
  // round per segment and no cross-domain events).
  uint64_t rounds = 0;
  uint64_t cross_domain_events = 0;

  // Streaming-pipeline fingerprints and counters.
  // streamed_aggregate_digest is the hub's AggregateDigest after the run;
  // replayed_aggregate_digest is ReplayIntoHub(MergedSpans(), ...)'s, computed
  // by folding every kept span once, in place, into a fresh sink flushed
  // once into a fresh hub (no sorted copy). The pipeline's correctness claim
  // is that they are equal — for every worker_threads value (parallel_test
  // asserts both) — while the live hub evicts no window (ROADMAP, Known red).
  uint64_t streamed_aggregate_digest = 0;
  uint64_t replayed_aggregate_digest = 0;
  // Reservoir-content digest: worker-count invariant (canonical barrier
  // order), but NOT comparable to a replayed hub (different ingest order).
  uint64_t exemplar_digest = 0;
  int64_t spans_streamed = 0;           // Hub spans_ingested (via deltas).
  uint64_t span_buffer_drops = 0;       // Exemplar candidates dropped at caps.
  int64_t reservoir_drops = 0;
  int64_t windows_closed = 0;
  int64_t late_window_updates = 0;
  size_t peak_buffered_spans = 0;       // Max over shards: bounded-memory proof.

  // Policy-plane state at run end (identical across shards by construction).
  uint64_t policy_version = 0;
  uint64_t policy_stages_applied = 0;
  // Colocated-bypass accounting, summed over all shards' client counters:
  // attempts that took the fast path, the stack tax actually paid (cycles),
  // and the tax the bypassed stages avoided. The bypassed-tax fraction is
  // avoided / (paid + avoided).
  uint64_t colocated_calls = 0;
  double paid_tax_cycles = 0;
  double avoided_tax_cycles = 0;

  // Checkpointed-run bookkeeping (RunMiniFleetCheckpointed only).
  bool interrupted = false;       // Stopped early via stop_after_epochs.
  bool resumed = false;           // Started from a restored checkpoint.
  uint64_t resumed_epoch = 0;     // Epoch barriers already done at resume.
  uint64_t checkpoints_written = 0;
};

// The deployed graph as a long-lived object. Construction builds the system,
// deploys every service, registers handlers, and creates the (unscheduled)
// frontend arrival processes; nothing runs until ArmThrough + RunSegment.
//
// Epoch protocol (docs/ROBUSTNESS.md#checkpointrestore): each iteration arms
// one virtual-time window and runs the sharded executor until every queue
// drains. Arrivals and fault events are only planted inside the armed window,
// so the drain leaves no pending timers — the fleet is quiescent, and
// WriteCheckpoint/RestoreCheckpoint round-trip its complete state. A run
// resumed from any barrier replays the remaining epochs bit-for-bit: same
// event digest, same streamed AggregateDigest as the uninterrupted run with
// the same cadence.
class MiniFleet {
 public:
  MiniFleet(const ServiceCatalog& catalog, const MiniFleetOptions& options);
  ~MiniFleet();

  MiniFleet(const MiniFleet&) = delete;
  MiniFleet& operator=(const MiniFleet&) = delete;

  // Extends every frontend's armed arrival window and the fault injector's
  // arming watermark to `epoch_end`. Only valid while quiescent (before the
  // run or between segments); epoch ends must be strictly increasing.
  // ArmThrough(kMaxSimTime) arms the whole run (the legacy single-epoch shape).
  [[nodiscard]] Status ArmThrough(SimTime epoch_end);

  // Runs the sharded executor until every queue drains, closing hub windows
  // only up to `flush_watermark` (pass the epoch end; kMaxSimTime on the
  // final segment). Returns the number of events the segment executed; the
  // segment's round count is system().last_rounds().
  uint64_t RunSegment(SimTime flush_watermark);

  // Rewinds every shard clock to the common epoch boundary after a segment
  // drains (cascades run past the boundary, scattering the clocks). Must be
  // called at every non-final barrier — before WriteCheckpoint, and on runs
  // without a checkpoint directory too — so the next segment's cross-shard
  // sends never target a shard's past and cadenced digests are identical
  // whether or not snapshots are being written. Requires quiescence.
  [[nodiscard]] Status ResyncAt(SimTime barrier);

  // Assembles the result from current state. Call after the final segment.
  // Its executor stats (rounds, cross-domain events) cover every segment of
  // the run, including those before a restored checkpoint.
  MiniFleetResult Collect();

  // Identity of this run configuration for checkpoint validation: folds every
  // digest-relevant option — seed, horizon, load, topology sharding,
  // observability layout, the deployed service model (presets, replicas,
  // edges, frontend targets), the full fault-plan content — plus the checkpoint
  // cadence (digest equality only holds between runs with the same epoch
  // boundaries, so resuming under a different cadence must be rejected).
  uint64_t ConfigHash(SimDuration checkpoint_every) const;

  // Snapshots complete fleet state into `<root>/ckpt-<epoch>` (atomic
  // directory-rename commit), then prunes to the newest `keep` checkpoints.
  // Only valid at a quiescent barrier; fails (without writing a committed
  // checkpoint) if any component still has in-flight work.
  [[nodiscard]] Status WriteCheckpoint(const std::string& root, uint64_t epoch,
                                       uint64_t config_hash, int64_t sim_horizon, int keep);

  // Restores complete fleet state from a committed checkpoint directory,
  // validating the manifest (config hash, per-file CRCs) first and every
  // section CRC during the read. Any failure is a clean error Status; the
  // fleet must then be discarded (a failed restore may be partial). Returns
  // the epoch count the snapshot was taken at. Member files are independent
  // (one per shard), so a future restore could parallelize; this one is
  // sequential.
  [[nodiscard]] Result<uint64_t> RestoreCheckpoint(const std::string& ckpt_dir,
                                                   uint64_t config_hash);

  RpcSystem& system() { return system_; }

 private:
  void BuildGraph(const ServiceCatalog& catalog);

  MiniFleetOptions options_;
  RpcSystem system_;
  // Fixed deployment/frontend order — checkpoint sections are written and
  // read in exactly this order within each shard's file.
  std::vector<std::unique_ptr<MiniFleetDeployment>> deployments_;
  std::vector<std::unique_ptr<MiniFleetFrontend>> frontends_;
  std::unique_ptr<FaultInjector> injector_;
};

// Deploys the graph, runs it uninterrupted, and collects traces. `catalog`
// supplies service ids and names (BuildDefault()). The one-epoch case of
// RunMiniFleetCheckpointed; CHECK-fails where that returns an error (a fault
// plan that does not validate).
MiniFleetResult RunMiniFleet(const ServiceCatalog& catalog, const MiniFleetOptions& options);

// Checkpointed-run driver configuration.
struct CheckpointRunOptions {
  // Checkpoint store root. Empty: never write checkpoints (and `resume` finds
  // nothing), i.e. a plain cadenced run.
  std::string dir;
  // Epoch length in virtual time. <= 0 runs one uninterrupted epoch.
  SimDuration every = 0;
  // Retention: keep the newest N committed checkpoints (<= 0 keeps all).
  int keep = 0;
  // Resume from the newest *valid* checkpoint under `dir`; corrupt or stale
  // snapshots are skipped, and with none valid the run starts fresh (logged).
  bool resume = false;
  // Test hook: stop after this many epoch segments have run in this process
  // (after the barrier checkpoint is written), reporting interrupted = true.
  // 0 runs to completion. Simulates a mid-run kill for resume tests.
  int stop_after_epochs = 0;
};

// Runs the fleet in checkpoint_every-sized epochs, snapshotting at each
// barrier. Digest contract: for a fixed (options, every), any interrupt +
// resume sequence produces the same final event digest and streamed
// AggregateDigest as the uninterrupted cadenced run, for any worker_threads.
[[nodiscard]] Result<MiniFleetResult> RunMiniFleetCheckpointed(const ServiceCatalog& catalog,
                                                               const MiniFleetOptions& options,
                                                               const CheckpointRunOptions& ckpt);

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_FLEET_MINI_FLEET_H_
