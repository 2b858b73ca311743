#include "src/fleet/mini_fleet.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/check.h"
#include "src/common/digest.h"
#include "src/common/logging.h"
#include "src/fault/injector.h"
#include "src/fleet/service_study.h"
#include "src/fleet/workload.h"

namespace rpcscope {

namespace {

constexpr MethodId kServe = 1;

// What the mini-fleet adds to a Table-1 service's study preset
// (MakeStudyConfig): its replica count and at most one dependency edge to
// `callee` (Table 1 names each service's client). A fan-out issues `fanout`
// parallel children before the compute, as partition/aggregate does; a miss
// issues one child after it with probability `miss`, since a lookup learns
// that it missed only once it ran.
struct DeploymentSpec {
  int32_t StudiedServices::*service;
  int replicas;
  int32_t StudiedServices::*callee = nullptr;
  double miss = 0;
  int fanout = 0;
};

// Bottom-up, so every callee is deployed before its callers. The order fixes
// the placement RNG forks and the per-shard checkpoint layout. Network Disk
// comes first, so that machines 1 and 2, which fleet_study's chaos plan
// crashes and slows, are its replicas.
constexpr DeploymentSpec kDeployments[] = {
    {&StudiedServices::network_disk, 3},
    {&StudiedServices::bigtable, 2, &StudiedServices::network_disk, 0.45},  // Memtable miss.
    {&StudiedServices::kv_store, 2, &StudiedServices::bigtable, 0.20},  // Backing-store miss.
    {&StudiedServices::ssd_cache, 3},
    {&StudiedServices::bigquery, 4, &StudiedServices::ssd_cache, 0, 4},  // Partition/aggregate.
    {&StudiedServices::video_metadata, 2},
    {&StudiedServices::spanner, 2, &StudiedServices::network_disk, 0.3},  // Storage read.
    {&StudiedServices::f1, 2, &StudiedServices::spanner, 0.5},  // Reads through Spanner.
    {&StudiedServices::ml_inference, 2},
};

// The frontend entry points, each driving its Table-1 server.
constexpr int32_t StudiedServices::*kFrontendTargets[] = {
    &StudiedServices::kv_store,        // Recommendation service.
    &StudiedServices::bigquery,        // Analyst queries.
    &StudiedServices::video_metadata,  // Video Search.
    &StudiedServices::f1,              // F1 ("process data packet").
    &StudiedServices::ml_inference,    // ML client.
    &StudiedServices::spanner,         // Network information service.
};

}  // namespace

// One deployed service: its study preset, its replicas, its Table-1
// dependency edge, and a co-located client for issuing child RPCs from
// handlers. All replicas live in one cluster, so a deployment belongs to
// exactly one shard domain and its client and RNG are only ever touched from
// that domain. CheckpointTo/RestoreFrom cover the mutable run state (handler
// RNG stream, server and client progress); the placement (service id,
// machine list) is configuration, written only for validation.
// RPCSCOPE_CHECKPOINTED(MiniFleetDeployment::CheckpointTo, MiniFleetDeployment::RestoreFrom)
struct MiniFleetDeployment {
  ServiceStudyConfig model;  // MakeStudyConfig's preset: compute, sizes, workers.
  std::vector<MachineId> machines;
  std::vector<std::unique_ptr<Server>> servers;
  std::shared_ptr<Client> client;  // Bound to machines[0].
  Rng rng{0};
  const DeploymentSpec* spec = nullptr;   // NOLINT(detan-checkpoint-field) configuration
  MiniFleetDeployment* callee = nullptr;  // NOLINT(detan-checkpoint-field) structural

  MachineId Pick(Rng& chooser) const { return machines[chooser.NextBounded(machines.size())]; }

  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);
};

Status MiniFleetDeployment::CheckpointTo(CheckpointWriter& w) const {
  w.BeginSection("deployment");
  w.WriteU32(static_cast<uint32_t>(model.service_id));
  w.WriteU32(static_cast<uint32_t>(machines.size()));
  for (const MachineId m : machines) {
    w.WriteI64(m);
  }
  WriteRngState(w, rng);
  w.EndSection();
  for (const auto& server : servers) {
    if (Status s = server->CheckpointTo(w); !s.ok()) {
      return s;
    }
  }
  return client->CheckpointTo(w);
}

Status MiniFleetDeployment::RestoreFrom(CheckpointReader& r) {
  if (Status s = r.EnterSection("deployment"); !s.ok()) {
    return s;
  }
  const uint32_t saved_service = r.ReadU32();
  const uint32_t saved_machine_count = r.ReadU32();
  std::vector<MachineId> saved_machines;
  // Bounded by the section payload: the sticky reader zero-fills past it.
  for (uint32_t i = 0; i < saved_machine_count && r.status().ok(); ++i) {
    saved_machines.push_back(r.ReadI64());
  }
  Rng saved_rng(0);
  ReadRngState(r, saved_rng);
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (saved_service != static_cast<uint32_t>(model.service_id) || saved_machines != machines) {
    return FailedPreconditionError("deployment: checkpoint is for a different placement");
  }
  rng = saved_rng;
  for (auto& server : servers) {
    if (Status s = server->RestoreFrom(r); !s.ok()) {
      return s;
    }
  }
  return client->RestoreFrom(r);
}

// One frontend entry point: its client, replica-chooser stream, root-call
// tally, and epoch-gated arrival process. The target and its request size
// are configuration, written only for validation.
// RPCSCOPE_CHECKPOINTED(MiniFleetFrontend::CheckpointTo, MiniFleetFrontend::RestoreFrom)
struct MiniFleetFrontend {
  uint32_t index = 0;
  MiniFleetDeployment* target = nullptr;
  MachineId machine = -1;
  std::unique_ptr<Client> client;
  Rng chooser{0};
  uint64_t root_count = 0;
  std::unique_ptr<EpochArrivals> arrivals;

  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);
};

Status MiniFleetFrontend::CheckpointTo(CheckpointWriter& w) const {
  w.BeginSection("frontend");
  w.WriteU32(index);
  w.WriteI64(target->model.request_bytes);
  w.WriteI64(machine);
  WriteRngState(w, chooser);
  w.WriteU64(root_count);
  w.EndSection();
  if (Status s = client->CheckpointTo(w); !s.ok()) {
    return s;
  }
  arrivals->WriteTo(w);
  return Status::Ok();
}

Status MiniFleetFrontend::RestoreFrom(CheckpointReader& r) {
  if (Status s = r.EnterSection("frontend"); !s.ok()) {
    return s;
  }
  const uint32_t saved_index = r.ReadU32();
  const int64_t saved_bytes = r.ReadI64();
  const MachineId saved_machine = r.ReadI64();
  Rng saved_chooser(0);
  ReadRngState(r, saved_chooser);
  const uint64_t saved_root_count = r.ReadU64();
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (saved_index != index || saved_bytes != target->model.request_bytes ||
      saved_machine != machine) {
    return FailedPreconditionError("frontend: checkpoint is for a different entry point");
  }
  chooser = saved_chooser;
  root_count = saved_root_count;
  if (Status s = client->RestoreFrom(r); !s.ok()) {
    return s;
  }
  return arrivals->RestoreFrom(r);
}

namespace {

// Issues a child call to the caller's callee, linked to the parent span,
// inheriting the parent's remaining deadline and sized by the callee's study
// request. Owned by the *calling* deployment — its client issues it and its
// RNG picks the replica — because the handler executes in the caller's shard
// domain and must not touch callee-shard state; the fabric is the only
// cross-shard edge.
void ChildCall(MiniFleetDeployment& caller, const std::shared_ptr<ServerCall>& parent,
               CallCallback done) {
  const MiniFleetDeployment& callee = *caller.callee;
  CallOptions opts = parent->ChildOptions();
  opts.service_id = callee.model.service_id;
  caller.client->Call(callee.Pick(caller.rng), kServe,
                      Payload::Modeled(callee.model.request_bytes), opts, std::move(done));
}

// Serves one call: the study's handler, with the deployment's edge around
// it. Handlers capture only stable deployment pointers (owned by the fleet).
void Serve(MiniFleetDeployment* d, const std::shared_ptr<ServerCall>& call) {
  const int fanout = d->spec->fanout;
  if (fanout > 0) {
    auto pending = MakePooledShared<int>(fanout);
    for (int i = 0; i < fanout; ++i) {
      ChildCall(*d, call, [d, call, pending](const CallResult&, Payload) {
        if (--*pending == 0) {
          ServeStudyCall(d->model, d->rng, call);
        }
      });
    }
    return;
  }
  if (d->callee == nullptr) {
    ServeStudyCall(d->model, d->rng, call);
    return;
  }
  ServeStudyCall(d->model, d->rng, call, [d, call]() {
    const int64_t bytes = d->model.response_bytes;
    if (d->rng.NextBool(d->spec->miss)) {
      ChildCall(*d, call, [call, bytes](const CallResult&, Payload) {
        call->Finish(Status::Ok(), Payload::Modeled(bytes));
      });
    } else {
      call->Finish(Status::Ok(), Payload::Modeled(bytes));
    }
  });
}

RpcSystemOptions MakeSystemOptions(const MiniFleetOptions& options) {
  RpcSystemOptions sys_opts;
  sys_opts.seed = options.seed;
  sys_opts.num_shards = options.num_shards;
  sys_opts.fabric.congestion_probability = 0.01;
  sys_opts.observability = options.observability;
  sys_opts.policy = options.policy;
  return sys_opts;
}

}  // namespace

MiniFleet::MiniFleet(const ServiceCatalog& catalog, const MiniFleetOptions& options)
    : options_(options), system_(MakeSystemOptions(options)) {
  if (options_.window_tap) {
    system_.hub()->SetWindowCloseTap(options_.window_tap);
  }
  BuildGraph(catalog);
  if (options_.fault_plan != nullptr) {
    injector_ = std::make_unique<FaultInjector>(&system_, *options_.fault_plan);
  }
  // The caller's plan need not outlive this constructor; injector_ holds the
  // copy every later reader uses.
  options_.fault_plan = nullptr;
}

MiniFleet::~MiniFleet() = default;

void MiniFleet::BuildGraph(const ServiceCatalog& catalog) {
  const Topology& topo = system_.topology();
  const StudiedServices& ids = catalog.studied();

  // Placement. Single-domain runs pack every service into cluster 0 and the
  // frontends into cluster 1. Sharded runs give each service its own
  // cluster, dealt round-robin across the contiguous shard blocks
  // (RpcSystem::ShardOfCluster) so every shard hosts part of the graph and
  // the Table-1 dependency edges exercise the cross-shard fabric path.
  const bool spread = system_.num_shards() > 1;
  Rng placement(options_.seed ^ 0x111);
  int next_machine = 0;
  int next_group = 0;
  auto first_cluster_of_shard = [&](int s) {
    // Smallest c with ShardOfCluster(c) == s under the block partition
    // floor(c * N / C): c = ceil(s * C / N).
    return static_cast<ClusterId>(
        (static_cast<int64_t>(s) * topo.num_clusters() + system_.num_shards() - 1) /
        system_.num_shards());
  };
  auto spread_cluster = [&]() {
    const int g = next_group++;
    const int s = g % system_.num_shards();
    const ClusterId first = first_cluster_of_shard(s);
    const ClusterId limit = first_cluster_of_shard(s + 1);
    const int block = static_cast<int>(limit - first);
    return first + static_cast<ClusterId>((g / system_.num_shards()) % block);
  };
  auto deployed = [this, &ids](int32_t StudiedServices::*service) {
    const auto it = std::find_if(deployments_.begin(), deployments_.end(), [&](const auto& d) {
      return d->model.service_id == ids.*service;
    });
    RPCSCOPE_CHECK(it != deployments_.end()) << "service used before it is deployed";
    return it->get();
  };

  // --- Deploy the Table-1 services from their study presets.
  for (const DeploymentSpec& spec : kDeployments) {
    auto owned = std::make_unique<MiniFleetDeployment>();
    MiniFleetDeployment* d = owned.get();
    d->model = MakeStudyConfig(catalog, ids.*spec.service);
    d->rng = placement.Fork(static_cast<uint64_t>(d->model.service_id));
    d->spec = &spec;
    d->callee = spec.callee != nullptr ? deployed(spec.callee) : nullptr;
    ServerOptions server_opts;
    server_opts.app_workers = d->model.app_workers;
    server_opts.io_workers = d->model.io_workers;
    const ClusterId cluster = spread ? spread_cluster() : 0;
    for (int r = 0; r < spec.replicas; ++r) {
      const MachineId m = spread ? topo.MachineAt(cluster, r) : topo.MachineAt(0, next_machine++);
      d->machines.push_back(m);
      auto server = std::make_unique<Server>(&system_, m, server_opts);
      server->RegisterMethod(kServe, d->model.service_name,
                             [d](std::shared_ptr<ServerCall> call) { Serve(d, call); });
      d->servers.push_back(std::move(server));
    }
    d->client = std::make_shared<Client>(&system_, d->machines[0]);
    deployments_.push_back(std::move(owned));
  }

  // --- Frontends: each entry point drives its Table-1 server with that
  // service's study request size. Arrival chains stay unscheduled until the
  // first ArmEpoch.
  Rng workload(options_.seed ^ 0x222);
  frontends_.reserve(std::size(kFrontendTargets));
  for (size_t i = 0; i < std::size(kFrontendTargets); ++i) {
    // Sharded runs also spread the frontends, one cluster each, continuing
    // the round-robin over shard blocks; the arrival process is scheduled on
    // the frontend's own shard simulator. Each arrival callback runs in its
    // own frontend's shard domain, so the per-frontend root_count tally is
    // never a cross-domain write; Collect sums them.
    auto fe = std::make_unique<MiniFleetFrontend>();
    fe->index = static_cast<uint32_t>(i);
    fe->target = deployed(kFrontendTargets[i]);
    // Colocated demo wiring puts the frontend on its target's first replica
    // so root calls that pick that machine qualify for the bypass.
    fe->machine = options_.colocate_frontends ? fe->target->machines[0]
                  : spread                    ? topo.MachineAt(spread_cluster(), 0)
                                              : topo.MachineAt(1, static_cast<int>(i));
    ClientOptions fe_client_opts;
    fe_client_opts.colocated_bypass = options_.colocate_frontends;
    fe->client = std::make_unique<Client>(&system_, fe->machine, fe_client_opts);
    fe->chooser = workload.Fork(i);
    MiniFleetFrontend* slot = fe.get();
    fe->arrivals = std::make_unique<EpochArrivals>(
        &system_.ShardFor(fe->machine).sim(), options_.frontend_rps, options_.duration,
        workload.NextUint64(), [slot]() {
          ++slot->root_count;
          const MiniFleetDeployment& target = *slot->target;
          CallOptions opts;
          opts.service_id = target.model.service_id;
          slot->client->Call(target.Pick(slot->chooser), kServe,
                             Payload::Modeled(target.model.request_bytes), opts,
                             [](const CallResult&, Payload) {});
        });
    frontends_.push_back(std::move(fe));
  }
}

Status MiniFleet::ArmThrough(SimTime epoch_end) {
  // Frontends first, injector second — a fixed order, so the per-shard event
  // seq numbering is identical whether this epoch is reached by running
  // through or by restoring a checkpoint.
  for (auto& fe : frontends_) {
    fe->arrivals->ArmEpoch(epoch_end);
  }
  if (injector_ != nullptr) {
    return injector_->ArmThrough(epoch_end);
  }
  return Status::Ok();
}

uint64_t MiniFleet::RunSegment(SimTime flush_watermark) {
  return system_.RunSharded(options_.worker_threads, flush_watermark);
}

Status MiniFleet::ResyncAt(SimTime barrier) { return system_.ResyncShards(barrier); }

MiniFleetResult MiniFleet::Collect() {
  MiniFleetResult result;
  for (const auto& fe : frontends_) {
    result.root_calls += fe->root_count;
  }
  const bool sharded = system_.num_shards() > 1;
  if (sharded) {
    result.events_executed = system_.TotalEventsExecuted();
    result.event_digest = system_.ShardedEventDigest();
  } else {
    result.events_executed = system_.sim().events_executed();
    result.event_digest = system_.sim().event_digest();
  }
  // Summed over every segment of the run, restored ones included. The
  // executor's single-domain fast path reports one round per segment, so
  // per-round derived stats stay meaningful across shard counts.
  result.rounds = system_.total_rounds();
  result.cross_domain_events = system_.total_cross_domain_events();

  result.policy_version = system_.shard(0).policy.version();
  result.policy_stages_applied = system_.shard(0).policy.stages_applied();
  for (int s = 0; s < system_.num_shards(); ++s) {
    MetricRegistry& metrics = system_.shard(s).metrics;
    result.colocated_calls +=
        static_cast<uint64_t>(metrics.GetCounter("client.colocated_calls").value());
    result.paid_tax_cycles += metrics.GetCounter("client.tax_cycles").value();
    result.avoided_tax_cycles += metrics.GetCounter("client.avoided_tax_cycles").value();
  }

  const ObservabilityHub& hub = *system_.hub();
  result.streamed_aggregate_digest = hub.AggregateDigest();
  result.exemplar_digest = hub.ExemplarDigest();
  result.spans_streamed = hub.spans_ingested();
  result.span_buffer_drops = hub.span_buffer_drops();
  result.reservoir_drops = hub.reservoir_drops();
  result.windows_closed = hub.windows_closed();
  result.late_window_updates = hub.late_window_updates();
  for (int s = 0; s < system_.num_shards(); ++s) {
    result.peak_buffered_spans = std::max(result.peak_buffered_spans,
                                          system_.shard(s).stream_sink->peak_buffered_spans());
  }
  // The reference aggregation: every kept span, folded in record order into
  // one sink that buffers no exemplars, flushed once into a fresh hub. One
  // flush hands the hub its windows in ascending order whatever order the
  // spans came in, so the digest equals ReplayIntoHub(MergedSpans(), ...)'s,
  // evictions included, without sorting or copying a span. Equal aggregate
  // digests prove the barrier-streamed pipeline lost nothing and
  // double-counted nothing.
  ObservabilityOptions fold_options = options_.observability;
  fold_options.max_buffered_spans = 0;
  ShardStreamSink fold(fold_options);
  for (int s = 0; s < system_.num_shards(); ++s) {
    for (const Span& span : system_.shard(s).tracer.spans()) {
      fold.OnSpan(span);
    }
  }
  ObservabilityHub replayed(fold_options);
  fold.FlushInto(replayed, kMaxSimTime);
  result.replayed_aggregate_digest = replayed.AggregateDigest();
  if (sharded) {
    // Sorted by start time, so the pre-warmup spans are a prefix.
    std::vector<Span> merged = system_.MergedSpans();
    merged.erase(merged.begin(),
                 std::partition_point(merged.begin(), merged.end(), [this](const Span& span) {
                   return span.start_time < options_.warmup;
                 }));
    result.spans = std::move(merged);
  } else {
    // Single-domain runs keep record order.
    result.spans.reserve(system_.tracer().spans().size());
    for (const Span& span : system_.tracer().spans()) {
      if (span.start_time >= options_.warmup) {
        result.spans.push_back(span);
      }
    }
  }
  for (const Span& span : result.spans) {
    ++result.spans_per_service[span.service_id];
  }
  return result;
}

uint64_t MiniFleet::ConfigHash(SimDuration checkpoint_every) const {
  uint64_t h = kFnvOffsetBasis;
  auto fold = [&h](uint64_t v) {
    h ^= v;
    h *= kFnvPrime;
    h = Mix64(h);
  };
  fold(options_.seed);
  fold(static_cast<uint64_t>(options_.duration));
  fold(static_cast<uint64_t>(options_.warmup));
  fold(DoubleBits(options_.frontend_rps));
  fold(static_cast<uint64_t>(options_.num_shards));
  const ObservabilityOptions& obs = options_.observability;
  fold(static_cast<uint64_t>(obs.window));
  fold(static_cast<uint64_t>(obs.max_windows));
  fold(static_cast<uint64_t>(obs.max_buffered_spans));
  fold(static_cast<uint64_t>(obs.reservoir_per_method));
  fold(obs.reservoir_seed);
  fold(DoubleBits(obs.latency_histogram.min_value));
  fold(DoubleBits(obs.latency_histogram.max_value));
  fold(static_cast<uint64_t>(obs.latency_histogram.buckets_per_decade));
  fold(static_cast<uint64_t>(checkpoint_every));
  // The policy plan and colocation wiring both change event streams: resuming
  // under a different rollout (or placement) must be rejected.
  fold(options_.policy.ContentHash());
  fold(options_.colocate_frontends ? 1 : 0);
  // The deployed service model, folded like the fault plan: a checkpoint
  // taken under other presets, replica counts or edges must not resume here.
  fold(deployments_.size());
  for (const auto& d : deployments_) {
    const ServiceStudyConfig& m = d->model;
    for (const double v : {m.app_median_us, m.app_sigma, m.fast_weight, m.fast_median_us,
                           m.error_prob, d->spec->miss}) {
      fold(DoubleBits(v));
    }
    for (const int64_t v : {int64_t{m.service_id}, m.request_bytes, m.response_bytes,
                            int64_t{m.app_workers}, int64_t{m.io_workers},
                            int64_t{d->spec->replicas}, int64_t{d->spec->fanout}}) {
      fold(static_cast<uint64_t>(v));
    }
    fold(d->callee == nullptr ? 0 : static_cast<uint64_t>(d->callee->model.service_id) + 1);
  }
  fold(frontends_.size());
  for (const auto& fe : frontends_) {
    fold(static_cast<uint64_t>(fe->target->model.service_id));
  }
  // Full fault-plan content: a resumed run must execute the same chaos.
  if (injector_ == nullptr) {
    fold(0);
  } else {
    const FaultPlan& plan = injector_->plan();
    fold(1);
    fold(plan.crashes.size());
    for (const CrashFault& f : plan.crashes) {
      fold(static_cast<uint64_t>(f.machine));
      fold(static_cast<uint64_t>(f.at));
      fold(static_cast<uint64_t>(f.restart_at));
    }
    fold(plan.gray_slowdowns.size());
    for (const GraySlowFault& f : plan.gray_slowdowns) {
      fold(static_cast<uint64_t>(f.machine));
      fold(static_cast<uint64_t>(f.start));
      fold(static_cast<uint64_t>(f.end));
      fold(DoubleBits(f.factor));
    }
    fold(plan.partitions.size());
    for (const PartitionFault& f : plan.partitions) {
      fold(f.group_a.size());
      for (const MachineId m : f.group_a) {
        fold(static_cast<uint64_t>(m));
      }
      fold(f.group_b.size());
      for (const MachineId m : f.group_b) {
        fold(static_cast<uint64_t>(m));
      }
      fold(static_cast<uint64_t>(f.start));
      fold(static_cast<uint64_t>(f.end));
    }
    fold(plan.losses.size());
    for (const PacketLossFault& f : plan.losses) {
      fold(static_cast<uint64_t>(f.src));
      fold(static_cast<uint64_t>(f.dst));
      fold(f.bidirectional ? 1 : 0);
      fold(static_cast<uint64_t>(f.start));
      fold(static_cast<uint64_t>(f.end));
      fold(DoubleBits(f.loss_probability));
    }
  }
  return h;
}

namespace {

std::string ShardFileName(int s) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04d.ckpt", s);
  return name;
}

constexpr char kGlobalFileName[] = "global.ckpt";

}  // namespace

Status MiniFleet::WriteCheckpoint(const std::string& root, uint64_t epoch, uint64_t config_hash,
                                  int64_t sim_horizon, int keep) {
  CheckpointSet set(root, epoch);
  for (int s = 0; s < system_.num_shards(); ++s) {
    CheckpointWriter w;
    if (Status st = system_.SerializeShard(s, w); !st.ok()) {
      return st;
    }
    // Fleet-layer components pinned to this shard, in fixed build order.
    for (const auto& d : deployments_) {
      if (system_.ShardOf(d->machines[0]) == s) {
        if (Status st = d->CheckpointTo(w); !st.ok()) {
          return st;
        }
      }
    }
    for (const auto& fe : frontends_) {
      if (system_.ShardOf(fe->machine) == s) {
        if (Status st = fe->CheckpointTo(w); !st.ok()) {
          return st;
        }
      }
    }
    if (Status st = set.AddFile(ShardFileName(s), w); !st.ok()) {
      return st;
    }
  }
  CheckpointWriter g;
  if (Status st = system_.SerializeGlobal(g); !st.ok()) {
    return st;
  }
  g.BeginSection("fleet");
  g.WriteU32(static_cast<uint32_t>(deployments_.size()));
  g.WriteU32(static_cast<uint32_t>(frontends_.size()));
  g.WriteBool(injector_ != nullptr);
  g.EndSection();
  if (injector_ != nullptr) {
    if (Status st = injector_->CheckpointTo(g); !st.ok()) {
      return st;
    }
  }
  if (Status st = set.AddFile(kGlobalFileName, g); !st.ok()) {
    return st;
  }
  if (Status st = set.Commit(config_hash, sim_horizon,
                             static_cast<uint32_t>(system_.num_shards()));
      !st.ok()) {
    return st;
  }
  return ApplyRetention(root, keep);
}

Result<uint64_t> MiniFleet::RestoreCheckpoint(const std::string& ckpt_dir, uint64_t config_hash) {
  Result<CheckpointManifest> manifest = ValidateCheckpoint(ckpt_dir, config_hash);
  if (!manifest.ok()) {
    return manifest.status();
  }
  if (manifest->num_shards != static_cast<uint32_t>(system_.num_shards())) {
    return FailedPreconditionError("checkpoint shard count does not match this fleet");
  }
  for (int s = 0; s < system_.num_shards(); ++s) {
    Result<CheckpointReader> reader = CheckpointReader::FromFile(ckpt_dir + "/" + ShardFileName(s));
    if (!reader.ok()) {
      return reader.status();
    }
    if (Status st = system_.RestoreShard(s, *reader); !st.ok()) {
      return st;
    }
    for (auto& d : deployments_) {
      if (system_.ShardOf(d->machines[0]) == s) {
        if (Status st = d->RestoreFrom(*reader); !st.ok()) {
          return st;
        }
      }
    }
    for (auto& fe : frontends_) {
      if (system_.ShardOf(fe->machine) == s) {
        if (Status st = fe->RestoreFrom(*reader); !st.ok()) {
          return st;
        }
      }
    }
    if (Status st = reader->Complete(); !st.ok()) {
      return st;
    }
  }
  Result<CheckpointReader> global = CheckpointReader::FromFile(ckpt_dir + "/" + kGlobalFileName);
  if (!global.ok()) {
    return global.status();
  }
  if (Status st = system_.RestoreGlobal(*global); !st.ok()) {
    return st;
  }
  if (Status st = global->EnterSection("fleet"); !st.ok()) {
    return st;
  }
  const uint32_t saved_deployments = global->ReadU32();
  const uint32_t saved_frontends = global->ReadU32();
  const bool saved_injector = global->ReadBool();
  if (Status st = global->LeaveSection(); !st.ok()) {
    return st;
  }
  if (saved_deployments != deployments_.size() || saved_frontends != frontends_.size() ||
      saved_injector != (injector_ != nullptr)) {
    return FailedPreconditionError("checkpoint fleet shape does not match this fleet");
  }
  if (injector_ != nullptr) {
    if (Status st = injector_->RestoreFrom(*global); !st.ok()) {
      return st;
    }
  }
  if (Status st = global->Complete(); !st.ok()) {
    return st;
  }
  return manifest->epoch;
}

MiniFleetResult RunMiniFleet(const ServiceCatalog& catalog, const MiniFleetOptions& options) {
  Result<MiniFleetResult> result = RunMiniFleetCheckpointed(catalog, options, {});
  RPCSCOPE_CHECK(result.ok()) << "fault plan failed to arm: " << result.status().message();
  return std::move(*result);
}

Result<MiniFleetResult> RunMiniFleetCheckpointed(const ServiceCatalog& catalog,
                                                 const MiniFleetOptions& options,
                                                 const CheckpointRunOptions& ckpt) {
  MiniFleet fleet(catalog, options);
  uint64_t num_epochs = 1;
  if (ckpt.every > 0) {
    num_epochs = static_cast<uint64_t>((options.duration + ckpt.every - 1) / ckpt.every);
    num_epochs = std::max<uint64_t>(num_epochs, 1);
  }
  const uint64_t config_hash = fleet.ConfigHash(ckpt.every);

  uint64_t start_epoch = 0;
  bool resumed = false;
  if (ckpt.resume && !ckpt.dir.empty()) {
    Result<std::string> newest = NewestValidCheckpoint(ckpt.dir, config_hash);
    if (newest.ok()) {
      Result<uint64_t> epoch = fleet.RestoreCheckpoint(*newest, config_hash);
      if (!epoch.ok()) {
        return epoch.status();
      }
      start_epoch = *epoch;
      resumed = true;
      RPCSCOPE_LOG(kInfo) << "resumed from " << *newest << " (epoch " << start_epoch << ")";
    } else if (newest.status().code() == StatusCode::kNotFound) {
      RPCSCOPE_LOG(kWarning) << "resume requested but no valid checkpoint under '" << ckpt.dir
                             << "'; starting fresh";
    } else {
      return newest.status();
    }
  }

  uint64_t checkpoints_written = 0;
  int epochs_run = 0;
  bool interrupted = false;
  for (uint64_t k = start_epoch; k < num_epochs; ++k) {
    const bool final_epoch = k + 1 == num_epochs;
    const SimTime end = final_epoch ? kMaxSimTime : static_cast<SimTime>(k + 1) * ckpt.every;
    if (Status s = fleet.ArmThrough(end); !s.ok()) {
      return s;
    }
    fleet.RunSegment(end);
    ++epochs_run;
    // Pull every shard clock back to the boundary before snapshotting (and
    // even when not snapshotting): the serialized clocks must match what a
    // resumed run reconstructs, and the next segment's arrivals start at the
    // boundary regardless of how far this segment's cascades ran past it.
    if (!final_epoch) {
      if (Status s = fleet.ResyncAt(end); !s.ok()) {
        return s;
      }
    }
    if (!final_epoch && !ckpt.dir.empty()) {
      if (Status s =
              fleet.WriteCheckpoint(ckpt.dir, k + 1, config_hash, options.duration, ckpt.keep);
          !s.ok()) {
        return s;
      }
      ++checkpoints_written;
    }
    if (!final_epoch && ckpt.stop_after_epochs > 0 && epochs_run >= ckpt.stop_after_epochs) {
      interrupted = true;
      break;
    }
  }

  MiniFleetResult result = fleet.Collect();
  result.interrupted = interrupted;
  result.resumed = resumed;
  result.resumed_epoch = start_epoch;
  result.checkpoints_written = checkpoints_written;
  return result;
}

}  // namespace rpcscope
