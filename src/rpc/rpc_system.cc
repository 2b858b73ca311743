#include "src/rpc/rpc_system.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/check.h"
#include "src/common/digest.h"
#include "src/sim/parallel/shard_executor.h"
#include "src/trace/span.h"

namespace rpcscope {

RpcSystem::RpcSystem(const RpcSystemOptions& options)
    : options_(options), topology_(options.topology) {
  const int num_shards = std::clamp(options.num_shards, 1, topology_.num_clusters());
  options_.num_shards = num_shards;
  RPCSCOPE_CHECK(options_.policy.Validate().ok());

  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    // Shard 0 inherits the configured seeds unchanged so that a 1-shard
    // system reproduces the legacy event stream bit-for-bit; shards > 0 get
    // decorrelated streams via Mix64.
    FabricOptions fabric_options = options.fabric;
    if (s > 0) {
      fabric_options.seed = Mix64(options.fabric.seed + static_cast<uint64_t>(s));
    }
    TraceCollector::Options trace_options = options.tracing;
    // Disjoint id ranges per shard: ids stay fleet-unique with no cross-shard
    // coordination (Mix64 is a bijection; < 2^40 ids per shard).
    trace_options.id_offset = static_cast<uint64_t>(s) << 40;
    const uint64_t rng_seed =
        s == 0 ? options.seed : Mix64(options.seed + static_cast<uint64_t>(s));
    shards_.push_back(std::make_unique<ShardContext>(s, num_shards, &topology_, fabric_options,
                                                     trace_options, options_.observability,
                                                     rng_seed));
    // Every shard engine walks the same system-owned timeline; the barriers
    // that advance the cursors use identical watermark sequences, so the
    // shards never disagree on the snapshot in force.
    shards_.back()->policy = PolicyEngine(&options_.policy);
  }

  if (num_shards > 1) {
    // Per-shard-pair conservative bounds: entry (s, d) is the minimum one-way
    // propagation latency (ClusterBaseRtt/2) over all cluster pairs with one
    // cluster in shard s and one in shard d — a strict lower bound on any
    // cross-shard frame latency, since serialization and congestion only ever
    // add to propagation. The contiguous block partition (ShardOfCluster)
    // keeps physically close clusters in the same shard, so most entries are
    // metro-or-wider distances instead of the global same-datacenter minimum.
    lookahead_matrix_ = LookaheadMatrix(num_shards, kMaxSimTime);
    for (ClusterId a = 0; a < topology_.num_clusters(); ++a) {
      const int sa = ShardOfCluster(a);
      for (ClusterId b = a + 1; b < topology_.num_clusters(); ++b) {
        const int sb = ShardOfCluster(b);
        if (sa == sb) {
          continue;
        }
        const SimDuration bound = topology_.ClusterBaseRtt(a, b) / 2;
        lookahead_matrix_.LowerTo(sa, sb, bound);
        lookahead_matrix_.LowerTo(sb, sa, bound);
      }
    }
    // Topology RTTs are not a metric (continent-pair distances are
    // independent), but the executor's cross-round safety needs the triangle
    // inequality: a shard can relay causality through a near neighbor faster
    // than its direct bound. The min-plus closure folds every relay path in.
    lookahead_matrix_.MinPlusClose();
    lookahead_ = lookahead_matrix_.MinOffDiagonal();
    RPCSCOPE_CHECK_LT(lookahead_, kMaxSimTime);
    RPCSCOPE_CHECK_GT(lookahead_, 0);

    for (auto& shard : shards_) {
      shard->fabric.BindDomain(
          &shard->domain,
          [this](MachineId machine) { return &shards_[static_cast<size_t>(ShardOf(machine))]->domain; },
          &lookahead_matrix_);
    }
  }

  hub_ = std::make_unique<ObservabilityHub>(options_.observability);
}

void RpcSystem::FlushObservability(SimTime watermark) {
  // Canonical shard order fixes the hub's ingest sequence independently of
  // which worker thread ran which shard; see stream.h determinism rules.
  for (auto& shard : shards_) {
    shard->stream_sink->FlushInto(*hub_, watermark);
  }
  hub_->AdvanceWatermark(watermark);
}

void RpcSystem::AdvancePolicies(SimTime watermark) {
  if (!options_.policy.has_stages()) {
    return;
  }
  for (auto& shard : shards_) {
    shard->policy.ApplyThrough(watermark);
  }
}

uint64_t RpcSystem::RunSharded(int worker_threads, SimTime flush_watermark) {
  std::vector<SimDomain*> domains;
  domains.reserve(shards_.size());
  for (auto& shard : shards_) {
    domains.push_back(&shard->domain);
  }
  ShardExecutorOptions exec_options;
  exec_options.worker_threads = worker_threads;
  exec_options.lookahead = lookahead_;
  if (num_shards() > 1) {
    exec_options.lookahead_matrix = &lookahead_matrix_;
  }
  // Production runs never benefit from more workers than cores — extra
  // threads only add per-round wake/park latency. Determinism is unaffected.
  exec_options.clamp_workers_to_hardware = true;
  // Policy swaps land before the flush so the barrier's watermark means the
  // same thing for both: everything at or before it ran under the old
  // snapshot, everything after runs under the new one.
  //
  // Round watermarks clamp to flush_watermark. In an epoch segment the drain
  // executes cascades past the boundary, but the next epoch's arrivals (armed
  // only up to that boundary) may still add spans to any window at or past
  // it. Only windows before the boundary are final at the barrier, so that is
  // the segment's data-completeness watermark — and the clamp keeps the hub's
  // watermark monotonic across segments whether or not the process restarts
  // between them. The policy cursor clamps identically: a stage inside the
  // drain region past the epoch end must NOT apply this segment, or a run
  // resumed at the barrier (which replays that region in its next segment,
  // under the same clamp) would diverge from the uninterrupted run.
  exec_options.barrier_hook = [this, flush_watermark](SimTime round_end) {
    AdvancePolicies(std::min(round_end, flush_watermark));
    FlushObservability(std::min(round_end, flush_watermark));
  };
  ShardExecutor executor(std::move(domains), exec_options);
  const uint64_t executed = executor.RunToCompletion();
  last_rounds_ = executor.rounds();
  last_cross_domain_events_ = executor.cross_domain_events();
  total_rounds_ += last_rounds_;
  total_cross_domain_events_ += last_cross_domain_events_;
  // Final flush: drains whatever the last partial round left in the sinks
  // (and, on the single-domain fast path, everything). At kMaxSimTime it
  // closes every window; at an epoch end, windows past it stay open and the
  // next segment (or a resumed run) continues filling them.
  AdvancePolicies(flush_watermark);
  FlushObservability(flush_watermark);
  return executed;
}

Status RpcSystem::ResyncShards(SimTime barrier) {
  for (auto& shard : shards_) {
    if (Status s = shard->sim().ResyncAt(barrier); !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status RpcSystem::SerializeShard(int s, CheckpointWriter& w) const {
  const ShardContext& ctx = *shards_[static_cast<size_t>(s)];
  w.BeginSection("shard");
  w.WriteU32(static_cast<uint32_t>(s));
  w.WriteU32(static_cast<uint32_t>(num_shards()));
  WriteRngState(w, ctx.rng);
  w.EndSection();
  if (Status st = ctx.domain.CheckpointTo(w); !st.ok()) {
    return st;
  }
  if (Status st = ctx.fabric.CheckpointTo(w); !st.ok()) {
    return st;
  }
  if (Status st = ctx.tracer.CheckpointTo(w); !st.ok()) {
    return st;
  }
  if (Status st = ctx.metrics.CheckpointTo(w); !st.ok()) {
    return st;
  }
  if (Status st = ctx.stream_sink->CheckpointTo(w); !st.ok()) {
    return st;
  }
  return ctx.policy.CheckpointTo(w);
}

Status RpcSystem::RestoreShard(int s, CheckpointReader& r) {
  ShardContext& ctx = *shards_[static_cast<size_t>(s)];
  if (Status st = r.EnterSection("shard"); !st.ok()) {
    return st;
  }
  const uint32_t shard_id = r.ReadU32();
  const uint32_t shard_count = r.ReadU32();
  Rng rng(0);
  ReadRngState(r, rng);
  if (Status st = r.LeaveSection(); !st.ok()) {
    return st;
  }
  if (shard_id != static_cast<uint32_t>(s) ||
      shard_count != static_cast<uint32_t>(num_shards())) {
    return FailedPreconditionError("shard: checkpoint is for a different shard layout");
  }
  ctx.rng = rng;
  if (Status st = ctx.domain.RestoreFrom(r); !st.ok()) {
    return st;
  }
  if (Status st = ctx.fabric.RestoreFrom(r); !st.ok()) {
    return st;
  }
  if (Status st = ctx.tracer.RestoreFrom(r); !st.ok()) {
    return st;
  }
  if (Status st = ctx.metrics.RestoreFrom(r); !st.ok()) {
    return st;
  }
  if (Status st = ctx.stream_sink->RestoreFrom(r); !st.ok()) {
    return st;
  }
  return ctx.policy.RestoreFrom(r);
}

Status RpcSystem::SerializeGlobal(CheckpointWriter& w) const {
  w.BeginSection("rpc_system");
  w.WriteU64(options_.seed);
  w.WriteU32(static_cast<uint32_t>(shards_.size()));
  w.WriteU64(total_rounds_);
  w.WriteU64(total_cross_domain_events_);
  w.EndSection();
  return hub_->CheckpointTo(w);
}

Status RpcSystem::RestoreGlobal(CheckpointReader& r) {
  if (Status st = r.EnterSection("rpc_system"); !st.ok()) {
    return st;
  }
  const uint64_t seed = r.ReadU64();
  const uint32_t shard_count = r.ReadU32();
  const uint64_t total_rounds = r.ReadU64();
  const uint64_t total_cross_domain_events = r.ReadU64();
  if (Status st = r.LeaveSection(); !st.ok()) {
    return st;
  }
  if (seed != options_.seed || shard_count != shards_.size()) {
    return FailedPreconditionError("rpc_system: checkpoint is for a different configuration");
  }
  total_rounds_ = total_rounds;
  total_cross_domain_events_ = total_cross_domain_events;
  return hub_->RestoreFrom(r);
}

uint64_t RpcSystem::TotalEventsExecuted() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->domain.sim().events_executed();
  }
  return total;
}

uint64_t RpcSystem::ShardedEventDigest() const {
  uint64_t digest = kFnvOffsetBasis;
  for (const auto& shard : shards_) {
    digest = FnvMix(digest, shard->domain.sim().event_digest());
    digest = FnvMix(digest, shard->domain.sim().events_executed());
  }
  return digest;
}

std::vector<Span> RpcSystem::MergedSpans() const {
  // Canonical order: virtual start time, then trace/span id as tiebreakers.
  // Ids are fleet-unique (per-shard id_offset ranges), so the order is total
  // and independent of shard interleaving or worker count; equal keys keep
  // their shard-then-record position, as a stable sort would. Sorting 32-byte
  // keys and gathering once copies each span once.
  struct Key {
    SimTime start_time;
    TraceId trace_id;
    SpanId span_id;
    uint64_t position;  // shard << kShardShift | index within the shard.
  };
  constexpr int kShardShift = 40;
  std::vector<Key> keys;
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->tracer.spans().size();
  }
  keys.reserve(total);
  for (size_t s = 0; s < shards_.size(); ++s) {
    uint64_t position = static_cast<uint64_t>(s) << kShardShift;
    for (const Span& span : shards_[s]->tracer.spans()) {
      keys.push_back({span.start_time, span.trace_id, span.span_id, position++});
    }
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return std::tie(a.start_time, a.trace_id, a.span_id, a.position) <
           std::tie(b.start_time, b.trace_id, b.span_id, b.position);
  });
  std::vector<Span> merged;
  merged.reserve(total);
  constexpr uint64_t kIndexMask = (uint64_t{1} << kShardShift) - 1;
  for (const Key& key : keys) {
    merged.push_back(
        shards_[key.position >> kShardShift]->tracer.spans()[key.position & kIndexMask]);
  }
  return merged;
}

double RpcSystem::MergedCounter(const std::string& name) const {
  double total = 0;
  for (const auto& shard : shards_) {
    const Counter* counter = shard->metrics.FindCounter(name);
    if (counter != nullptr) {
      total += counter->value();
    }
  }
  return total;
}

double RpcSystem::MachineSpeed(MachineId machine) const {
  const uint64_t h = Mix64(options_.seed ^ Mix64(static_cast<uint64_t>(machine) + 0x5eedUL));
  const double frac = static_cast<double>(h >> 11) * 0x1.0p-53;
  const double spread = options_.machine_speed_spread;
  return 1.0 - spread + 2.0 * spread * frac;
}

void RpcSystem::RegisterServer(MachineId machine, Server* server) {
  servers_[machine] = server;
}

void RpcSystem::UnregisterServer(MachineId machine) { servers_.erase(machine); }

Server* RpcSystem::ServerAt(MachineId machine) const {
  auto it = servers_.find(machine);
  return it == servers_.end() ? nullptr : it->second;
}

}  // namespace rpcscope
