// RpcSystem: the shared substrate an RPC deployment runs on.
//
// Owns the topology, the shard domains, and the machine -> Server routing
// table. The fleet is partitioned by cluster into `num_shards` SimDomains
// (docs/PARALLEL.md); each shard owns its own simulator/event queue, fabric,
// RNG stream, trace collector, and metric registry, so a domain's round
// execution touches no other domain's state. Cross-shard RPC frames travel
// exclusively through the fabric, which posts them into the destination
// domain's mailbox under the executor's conservative lookahead.
//
// num_shards == 1 (the default) is bit-for-bit the legacy single-threaded
// configuration: one domain, seeds derived exactly as before, sim().Run()
// drives it. Servers and Clients are constructed against a system, pinned to
// the shard owning their machine, and must not outlive it.
#ifndef RPCSCOPE_SRC_RPC_RPC_SYSTEM_H_
#define RPCSCOPE_SRC_RPC_RPC_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/monitor/metrics.h"
#include "src/monitor/stream.h"
#include "src/net/fabric.h"
#include "src/net/topology.h"
#include "src/policy/policy.h"
#include "src/rpc/cost_model.h"
#include "src/sim/domain.h"
#include "src/sim/lookahead.h"
#include "src/sim/simulator.h"
#include "src/trace/collector.h"

namespace rpcscope {

class Server;
struct Span;
class CheckpointWriter;
class CheckpointReader;

struct RpcSystemOptions {
  TopologyOptions topology;
  FabricOptions fabric;
  TraceCollector::Options tracing;
  CycleCostModel costs;
  uint64_t seed = 42;
  uint64_t encryption_key = 0x9a7bull;
  // Fraction of spans carrying CPU-cycle annotations (§4.2: not all samples
  // are annotated with cost information).
  double cpu_annotation_probability = 0.5;
  // Machine speed heterogeneity: speeds are uniform in [1-spread, 1+spread].
  double machine_speed_spread = 0.15;

  // Number of shard domains the fleet is partitioned into, by cluster:
  // ShardOf(machine) = floor(ClusterOf(machine) * num_shards / num_clusters),
  // i.e. contiguous cluster blocks aligned with the topology hierarchy (see
  // ShardOfCluster). Clamped to [1, num_clusters]. 1 keeps the legacy
  // single-domain configuration.
  int num_shards = 1;

  // Managed policy plane (src/policy/policy.h, docs/POLICY.md). The timeline's
  // initial snapshot is in force from time 0; staged snapshots are applied by
  // every shard's PolicyEngine at conservative-round barriers, so a hot-swap
  // is deterministic and bit-for-bit identical for any worker count. Its
  // only reader is Client::Call, which resolves the retry knobs of the
  // call's service on every call. The default (empty) timeline reproduces
  // pre-policy behavior exactly: every call keeps its own CallOptions.
  PolicyTimeline policy;

  // Streaming observability pipeline (src/monitor/stream.h). Every shard
  // gets a ShardStreamSink tapping its kept-span stream, and the system owns
  // an ObservabilityHub fed at conservative-round barriers (and once more
  // after the run). Aggregates at the hub are bit-for-bit worker-count
  // invariant and identical to replaying MergedSpans() post-run.
  ObservabilityOptions observability;
};

// RPCSCOPE_CHECKPOINTED(RpcSystem::SerializeGlobal, RpcSystem::RestoreGlobal)
class RpcSystem {
 public:
  // Everything a shard domain owns. Components pinned to a shard (clients,
  // servers, fault events) go through their ShardContext, never through
  // another shard's — that isolation is what makes parallel rounds race-free
  // and deterministic.
  struct ShardContext {
    ShardContext(int id, int num_domains, const Topology* topology,
                 const FabricOptions& fabric_options, const TraceCollector::Options& trace_options,
                 const ObservabilityOptions& observability, uint64_t rng_seed)
        : domain(id, num_domains),
          fabric(&domain.sim(), topology, fabric_options),
          tracer(trace_options),
          rng(rng_seed),
          stream_sink(std::make_unique<ShardStreamSink>(observability)) {}

    Simulator& sim() { return domain.sim(); }
    int id() const { return domain.id(); }

    SimDomain domain;
    Fabric fabric;
    TraceCollector tracer;
    MetricRegistry metrics;
    Rng rng;
    // Shard-local view of the system's policy timeline. Advanced only at
    // barriers on the coordinator (RpcSystem::AdvancePolicies), read by this
    // shard's clients during round execution — the same phase split that
    // keeps sink flushes race-free.
    PolicyEngine policy;
    // Shard-local streaming sink, never null. Written only from this shard's
    // round execution; drained only at barriers on the coordinator
    // (RpcSystem::FlushObservability).
    std::unique_ptr<ShardStreamSink> stream_sink;
  };

  explicit RpcSystem(const RpcSystemOptions& options);

  // Legacy single-domain accessors: shard 0. Correct whenever num_shards == 1
  // (the default); sharded code paths must use ShardFor/shard instead.
  Simulator& sim() { return shards_[0]->sim(); }
  Fabric& fabric() { return shards_[0]->fabric; }
  TraceCollector& tracer() { return shards_[0]->tracer; }
  // Monarch-style live counters: every resilience decision (retry, budget
  // exhaustion, ejection, shed, injected fault) is counted so error mixes can
  // be measured under chaos. Components cache Counter pointers at
  // construction — GetCounter returns stable references — so the per-call
  // cost is a single add. Sharded runs count into their own shard's registry;
  // aggregate with MergedCounter.
  MetricRegistry& metrics() { return shards_[0]->metrics; }
  Rng& rng() { return shards_[0]->rng; }

  const Topology& topology() const { return topology_; }
  const CycleCostModel& costs() const { return options_.costs; }
  const RpcSystemOptions& options() const { return options_; }

  // Shard-domain structure. Clusters are partitioned into contiguous blocks:
  // shard s owns clusters [ceil(s*C/N), ceil((s+1)*C/N)). Because cluster ids
  // are assigned hierarchically (continent-major), block boundaries coincide
  // with topology boundaries, so clusters that are physically close share a
  // shard and the cross-shard lookahead bounds stay wide — the key input to
  // the per-pair lookahead matrix (docs/PARALLEL.md).
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int ShardOfCluster(ClusterId cluster) const {
    return static_cast<int>(static_cast<int64_t>(cluster) * num_shards() /
                            topology_.num_clusters());
  }
  int ShardOf(MachineId machine) const { return ShardOfCluster(topology_.ClusterOf(machine)); }
  ShardContext& shard(int s) { return *shards_[static_cast<size_t>(s)]; }
  ShardContext& ShardFor(MachineId machine) { return shard(ShardOf(machine)); }
  // Global conservative lookahead: minimum cross-shard one-way propagation
  // latency over all cluster pairs in different shards (the matrix's smallest
  // off-diagonal entry). 0 when num_shards == 1. The executor itself uses the
  // full per-pair matrix, which is strictly wider for most pairs.
  SimDuration lookahead() const { return lookahead_; }
  // Per-shard-pair conservative bounds: entry (s, d) is the minimum one-way
  // propagation latency between any cluster of shard s and any cluster of
  // shard d. Empty when num_shards == 1.
  const LookaheadMatrix& lookahead_matrix() const { return lookahead_matrix_; }

  // Runs every shard domain until its queue drains, on `worker_threads` host
  // threads (conservative PDES, src/sim/parallel/). Returns total events
  // executed. For a fixed seed the result — digests, merged histograms, trace
  // trees — is bit-for-bit identical for any worker count. With
  // num_shards == 1 the events run exactly as sim().Run() would run them.
  //
  // Barrier flushes and policy swaps advance at most to `flush_watermark`,
  // and the final flush advances exactly to it. A whole run passes
  // kMaxSimTime, which closes every hub window. An epoch segment of a
  // checkpointed run (docs/ROBUSTNESS.md#checkpointrestore) passes the epoch
  // end, so windows spanning the boundary stay open for the next segment.
  uint64_t RunSharded(int worker_threads, SimTime flush_watermark);

  // Executor stats from the last RunSharded call (0 before any call;
  // single-domain runs report 1 round — the whole run is one uninterrupted
  // round on the executor's fast path).
  uint64_t last_rounds() const { return last_rounds_; }
  uint64_t last_cross_domain_events() const { return last_cross_domain_events_; }
  // The same stats summed over every RunSharded call of the run. A
  // checkpoint carries them, so a resumed run reports the whole-run totals.
  uint64_t total_rounds() const { return total_rounds_; }
  uint64_t total_cross_domain_events() const { return total_cross_domain_events_; }

  // Re-synchronizes every shard clock to `barrier` after a segment drains
  // (docs/ROBUSTNESS.md#checkpointrestore). Cascades past the epoch end leave
  // shard clocks scattered beyond the boundary; the next segment's arrivals
  // and cross-shard deliveries start at the boundary, so without a resync a
  // behind-shard could address an ahead-shard's past. Requires quiescence
  // (fails with FailedPrecondition if any shard still has pending events).
  [[nodiscard]] Status ResyncShards(SimTime barrier);

  // Checkpoint support. SerializeShard writes one shard's substrate state —
  // simulator clock/digest, fabric, tracer, metric registry, shard RNG,
  // stream sink — as a sequence of sections; component state (servers,
  // clients, channels) is appended by the owning fleet layer into the same
  // writer. Valid only at a quiescent barrier (queues drained, outboxes
  // empty); fails with FailedPrecondition otherwise. SerializeGlobal writes
  // the cross-shard state: the observability hub and executor accumulators.
  [[nodiscard]] Status SerializeShard(int s, CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreShard(int s, CheckpointReader& r);
  [[nodiscard]] Status SerializeGlobal(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreGlobal(CheckpointReader& r);

  // The streaming aggregation plane, never null. RunSharded feeds it at every
  // round barrier and flushes it once more before returning, so after a run
  // to kMaxSimTime its aggregate state equals ReplayIntoHub(MergedSpans(),
  // ...) bit-for-bit, as long as it evicted no window: past max_windows a
  // straggler can re-create an evicted window (ROADMAP, Known red).
  // MiniFleet::Collect computes that replay's digest by an in-place fold.
  ObservabilityHub* hub() { return hub_.get(); }
  const ObservabilityHub* hub() const { return hub_.get(); }
  // Drains every shard sink into the hub in canonical shard order, then
  // advances the hub watermark (closing windows that ended at or before it).
  // Called from the executor's barrier hook; callers driving a shard's
  // simulator directly (legacy sim().Run()) may call it manually after the
  // run with watermark kMaxSimTime.
  void FlushObservability(SimTime watermark);

  // Applies every policy-timeline stage with at <= watermark on every shard's
  // engine (canonical shard order; coordinator-only, like FlushObservability).
  // Called from the executor's barrier hook and at segment/final flushes so
  // all shards swap at the same virtual-time barrier for any worker count.
  // No-op when the timeline has no stages.
  void AdvancePolicies(SimTime watermark);

  // Canonical cross-shard merges. Deterministic for a fixed seed regardless
  // of worker count; with num_shards == 1 they reduce to the legacy values.
  uint64_t TotalEventsExecuted() const;
  // FNV-1a fold of every shard's (event_digest, events_executed) in shard
  // order — the sharded analogue of Simulator::event_digest().
  uint64_t ShardedEventDigest() const;
  // All shards' spans, sorted by (start_time, trace_id, span_id); equal keys
  // keep shard-then-record order. Record order within one shard is
  // deterministic but interleaving across shards is not meaningful, hence the
  // canonical sort.
  std::vector<Span> MergedSpans() const;
  // Sum of a counter across shard registries (0 where absent).
  double MergedCounter(const std::string& name) const;

  // Per-machine relative CPU speed (deterministic; models CPU generations).
  double MachineSpeed(MachineId machine) const;

  // Server routing. RegisterServer replaces any previous registration. The
  // table is written only at Server construction/destruction (setup and
  // teardown, outside any run) — crash/restart fault events flip the Server's
  // own up-state, not this map — so sharded runs read it concurrently without
  // synchronization.
  void RegisterServer(MachineId machine, Server* server);
  void UnregisterServer(MachineId machine);
  Server* ServerAt(MachineId machine) const;

 private:
  RpcSystemOptions options_;
  Topology topology_;              // NOLINT(detan-checkpoint-field) structural
  SimDuration lookahead_ = 0;      // NOLINT(detan-checkpoint-field) derived from topology
  LookaheadMatrix lookahead_matrix_;  // NOLINT(detan-checkpoint-field) derived from topology
  std::vector<std::unique_ptr<ShardContext>> shards_;
  std::unique_ptr<ObservabilityHub> hub_;
  uint64_t last_rounds_ = 0;               // NOLINT(detan-checkpoint-field) per call
  uint64_t last_cross_domain_events_ = 0;  // NOLINT(detan-checkpoint-field) per call
  uint64_t total_rounds_ = 0;
  uint64_t total_cross_domain_events_ = 0;
  std::unordered_map<MachineId, Server*> servers_;  // NOLINT(detan-checkpoint-field) structural
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_RPC_RPC_SYSTEM_H_
