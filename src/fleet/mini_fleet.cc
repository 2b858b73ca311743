#include "src/fleet/mini_fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/check.h"
#include "src/common/digest.h"
#include "src/common/logging.h"
#include "src/fault/injector.h"
#include "src/fleet/workload.h"

namespace rpcscope {

namespace {

constexpr MethodId kServe = 1;

}  // namespace

// One deployed service: a couple of replicas plus a co-located client for
// issuing child RPCs from handlers. All replicas live in one cluster, so a
// deployment belongs to exactly one shard domain and its client and RNG are
// only ever touched from that domain. CheckpointTo/RestoreFrom cover the mutable
// run state (handler RNG stream, server and client progress); the placement
// (service id, machine list) is configuration, written only for validation.
// RPCSCOPE_CHECKPOINTED(MiniFleetDeployment::CheckpointTo, MiniFleetDeployment::RestoreFrom)
struct MiniFleetDeployment {
  int32_t service_id = -1;
  std::vector<MachineId> machines;
  std::vector<std::unique_ptr<Server>> servers;
  std::shared_ptr<Client> client;  // Bound to machines[0].
  Rng rng{0};

  MachineId Pick(Rng& chooser) const { return machines[chooser.NextBounded(machines.size())]; }

  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);
};

Status MiniFleetDeployment::CheckpointTo(CheckpointWriter& w) const {
  w.BeginSection("deployment");
  w.WriteU32(static_cast<uint32_t>(service_id));
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
  if (saved_service != static_cast<uint32_t>(service_id) || saved_machines != machines) {
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
// tally, and epoch-gated arrival process. The target/byte-size wiring is
// configuration, written only for validation.
// RPCSCOPE_CHECKPOINTED(MiniFleetFrontend::CheckpointTo, MiniFleetFrontend::RestoreFrom)
struct MiniFleetFrontend {
  uint32_t index = 0;
  MiniFleetDeployment* target = nullptr;  // NOLINT(detan-checkpoint-field) structural
  int64_t request_bytes = 0;
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
  w.WriteI64(request_bytes);
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
  if (saved_index != index || saved_bytes != request_bytes || saved_machine != machine) {
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

void MiniFleet::ChildCall(MiniFleetDeployment& caller, MiniFleetDeployment& target,
                          const std::shared_ptr<ServerCall>& parent, int64_t request_bytes,
                          CallCallback done) {
  CallOptions opts = parent->ChildOptions();
  opts.service_id = target.service_id;
  const MachineId machine = target.Pick(caller.rng);
  caller.client->Call(machine, kServe, Payload::Modeled(request_bytes), opts, std::move(done));
}

void MiniFleet::BuildGraph(const ServiceCatalog& catalog) {
  const Topology& topo = system_.topology();
  const StudiedServices& ids = catalog.studied();

  // Placement. Single-domain runs keep the legacy layout (everything packed
  // into cluster 0, frontends in cluster 1) so existing fingerprints hold
  // bit-for-bit. Sharded runs give each service its own cluster, dealt
  // round-robin across the contiguous shard blocks (RpcSystem::ShardOfCluster)
  // so every shard hosts part of the graph and the Table-1 dependency edges
  // exercise the cross-shard fabric path.
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
  auto deploy = [&](int32_t service_id, int replicas, int app_workers) {
    auto d = std::make_unique<MiniFleetDeployment>();
    d->service_id = service_id;
    d->rng = placement.Fork(static_cast<uint64_t>(service_id));
    ServerOptions server_opts;
    server_opts.app_workers = app_workers;
    const ClusterId cluster = spread ? spread_cluster() : 0;
    for (int r = 0; r < replicas; ++r) {
      const MachineId m = spread ? topo.MachineAt(cluster, r) : topo.MachineAt(0, next_machine++);
      d->machines.push_back(m);
      d->servers.push_back(std::make_unique<Server>(&system_, m, server_opts));
    }
    d->client = std::make_shared<Client>(&system_, d->machines[0]);
    deployments_.push_back(std::move(d));
    return deployments_.back().get();
  };

  // --- Deploy the Table-1 services bottom-up. The order fixes both the RNG
  // placement draws (legacy parity) and the per-shard checkpoint layout.
  MiniFleetDeployment* network_disk = deploy(ids.network_disk, 3, 8);
  MiniFleetDeployment* bigtable = deploy(ids.bigtable, 2, 8);
  MiniFleetDeployment* kv_store = deploy(ids.kv_store, 2, 8);
  MiniFleetDeployment* ssd_cache = deploy(ids.ssd_cache, 2, 4);
  MiniFleetDeployment* bigquery = deploy(ids.bigquery, 2, 8);
  MiniFleetDeployment* video_metadata = deploy(ids.video_metadata, 2, 4);
  MiniFleetDeployment* spanner = deploy(ids.spanner, 2, 8);
  MiniFleetDeployment* f1 = deploy(ids.f1, 2, 8);
  MiniFleetDeployment* ml = deploy(ids.ml_inference, 2, 8);

  // --- Handlers wire the Table-1 dependency edges. They capture only stable
  // MiniFleetDeployment pointers (owned by deployments_) and call the static
  // ChildCall — no reference to any stack-local survives construction.
  // Network Disk: leaf SSD read, 32 KB responses.
  for (auto& server : network_disk->servers) {
    server->RegisterMethod(kServe, "NetworkDisk/Read",
                           [d = network_disk](std::shared_ptr<ServerCall> call) {
                             const double us = d->rng.NextLognormal(std::log(900.0), 0.6);
                             call->Compute(DurationFromMicros(us), [call]() {
                               call->Finish(Status::Ok(), Payload::Modeled(32 * 1024, 1.0));
                             });
                           });
  }
  // Bigtable: tablet lookup; ~45% of lookups miss the memtable and read disk.
  for (auto& server : bigtable->servers) {
    server->RegisterMethod(
        kServe, "Bigtable/Search",
        [d = bigtable, nd = network_disk](std::shared_ptr<ServerCall> call) {
          const double us = d->rng.NextLognormal(std::log(350.0), 0.6);
          call->Compute(DurationFromMicros(us), [d, nd, call]() {
            if (d->rng.NextBool(0.45)) {
              ChildCall(*d, *nd, call, 512, [call](const CallResult&, Payload) {
                call->Finish(Status::Ok(), Payload::Modeled(2048));
              });
            } else {
              call->Finish(Status::Ok(), Payload::Modeled(2048));
            }
          });
        });
  }
  // KV-Store: in-memory with a ~20% backing-store miss to Bigtable.
  for (auto& server : kv_store->servers) {
    server->RegisterMethod(
        kServe, "KVStore/Search",
        [d = kv_store, bt = bigtable](std::shared_ptr<ServerCall> call) {
          const double us = d->rng.NextLognormal(std::log(25.0), 0.4);
          call->Compute(DurationFromMicros(us), [d, bt, call]() {
            if (d->rng.NextBool(0.20)) {
              ChildCall(*d, *bt, call, 1024, [call](const CallResult&, Payload) {
                call->Finish(Status::Ok(), Payload::Modeled(512));
              });
            } else {
              call->Finish(Status::Ok(), Payload::Modeled(512));
            }
          });
        });
  }
  // SSD cache: leaf streaming-data lookup.
  for (auto& server : ssd_cache->servers) {
    server->RegisterMethod(kServe, "SSDCache/Lookup",
                           [d = ssd_cache](std::shared_ptr<ServerCall> call) {
                             const double us = d->rng.NextLognormal(std::log(260.0), 0.55);
                             call->Compute(DurationFromMicros(us), [call]() {
                               call->Finish(Status::Ok(), Payload::Modeled(1024));
                             });
                           });
  }
  // BigQuery: partition/aggregate — 4 parallel SSD-cache lookups + compute.
  for (auto& server : bigquery->servers) {
    server->RegisterMethod(
        kServe, "BigQuery/Query",
        [d = bigquery, sc = ssd_cache](std::shared_ptr<ServerCall> call) {
          auto pending = std::make_shared<int>(4);
          for (int i = 0; i < 4; ++i) {
            ChildCall(*d, *sc, call, 400, [d, call, pending](const CallResult&, Payload) {
              if (--*pending == 0) {
                const double us = d->rng.NextLognormal(std::log(2000.0), 1.0);
                call->Compute(DurationFromMicros(us), [call]() {
                  call->Finish(Status::Ok(), Payload::Modeled(64 * 1024));
                });
              }
            });
          }
        });
  }
  // Video Metadata: leaf.
  for (auto& server : video_metadata->servers) {
    server->RegisterMethod(kServe, "VideoMetadata/Get",
                           [d = video_metadata](std::shared_ptr<ServerCall> call) {
                             const double us = d->rng.NextLognormal(std::log(120.0), 0.6);
                             call->Compute(DurationFromMicros(us), [call]() {
                               call->Finish(Status::Ok(), Payload::Modeled(4096));
                             });
                           });
  }
  // Spanner: row read, occasionally consulting Bigtable-backed storage.
  for (auto& server : spanner->servers) {
    server->RegisterMethod(
        kServe, "Spanner/Read",
        [d = spanner, nd = network_disk](std::shared_ptr<ServerCall> call) {
          const double us = d->rng.NextLognormal(std::log(380.0), 0.8);
          call->Compute(DurationFromMicros(us), [d, nd, call]() {
            if (d->rng.NextBool(0.3)) {
              ChildCall(*d, *nd, call, 800, [call](const CallResult&, Payload) {
                call->Finish(Status::Ok(), Payload::Modeled(4096));
              });
            } else {
              call->Finish(Status::Ok(), Payload::Modeled(4096));
            }
          });
        });
  }
  // F1: "Process data packet" — F1 calls F1 (Table 1's client for F1 is F1).
  for (auto& server : f1->servers) {
    server->RegisterMethod(
        kServe, "F1/Process",
        [d = f1, sp = spanner](std::shared_ptr<ServerCall> call) {
          const double us = d->rng.NextLognormal(std::log(700.0), 1.2);
          call->Compute(DurationFromMicros(us), [d, sp, call]() {
            if (d->rng.NextBool(0.5)) {
              ChildCall(*d, *sp, call, 800, [call](const CallResult&, Payload) {
                call->Finish(Status::Ok(), Payload::Modeled(8192));
              });
            } else {
              call->Finish(Status::Ok(), Payload::Modeled(8192));
            }
          });
        });
  }
  // ML Inference: compute-bound leaf.
  for (auto& server : ml->servers) {
    server->RegisterMethod(kServe, "ML/Infer",
                           [d = ml](std::shared_ptr<ServerCall> call) {
                             const double us = d->rng.NextLognormal(std::log(1800.0), 0.8);
                             call->Compute(DurationFromMicros(us), [call]() {
                               call->Finish(Status::Ok(), Payload::Modeled(2048));
                             });
                           });
  }

  // --- Frontends: each entry point drives its Table-1 server. Arrival chains
  // stay unscheduled until the first ArmEpoch.
  struct FrontendSpec {
    MiniFleetDeployment* target;
    int64_t request_bytes;
  };
  const std::vector<FrontendSpec> specs = {
      {kv_store, 128},              // Recommendation service -> KV-Store.
      {bigquery, 2048},             // Analyst queries -> BigQuery.
      {video_metadata, 32 * 1024},  // Video Search -> Video Metadata.
      {f1, 75},                     // F1 -> F1.
      {ml, 512},                    // ML Client -> ML Inference.
      {spanner, 800},               // Network information service -> Spanner.
  };
  Rng workload(options_.seed ^ 0x222);
  frontends_.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    // Sharded runs also spread the frontends, one cluster each, continuing
    // the round-robin over shard blocks; the arrival process is scheduled on
    // the frontend's own shard simulator. Each arrival callback runs in its
    // own frontend's shard domain, so the per-frontend root_count tally is
    // never a cross-domain write; Collect sums them.
    auto fe = std::make_unique<MiniFleetFrontend>();
    fe->index = static_cast<uint32_t>(i);
    fe->target = specs[i].target;
    fe->request_bytes = specs[i].request_bytes;
    // Colocated demo wiring puts the frontend on its target's first replica
    // so root calls that pick that machine qualify for the bypass.
    fe->machine = options_.colocate_frontends ? specs[i].target->machines[0]
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
          CallOptions opts;
          opts.service_id = slot->target->service_id;
          slot->client->Call(slot->target->Pick(slot->chooser), kServe,
                             Payload::Modeled(slot->request_bytes), opts,
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
  // The executor's single-domain fast path reports one round, so per-round
  // derived stats stay meaningful across shard counts.
  result.rounds = system_.last_rounds();
  result.cross_domain_events = system_.last_cross_domain_events();

  result.policy_version = system_.shard(0).policy.version();
  result.policy_stages_applied = system_.shard(0).policy.stages_applied();
  for (int s = 0; s < system_.num_shards(); ++s) {
    MetricRegistry& metrics = system_.shard(s).metrics;
    result.colocated_calls +=
        static_cast<uint64_t>(metrics.GetCounter("client.colocated_calls").value());
    result.paid_tax_cycles += metrics.GetCounter("client.tax_cycles").value();
    result.avoided_tax_cycles += metrics.GetCounter("client.avoided_tax_cycles").value();
  }

  // The canonical merge, made once: the replay below aggregates all of it,
  // and sharded runs then keep its post-warmup part as result.spans.
  const ObservabilityHub& hub = *system_.hub();
  std::vector<Span> merged = system_.MergedSpans();
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
  // The reference aggregation: replay the canonical post-run merge through a
  // fresh hub. Equal aggregate digests prove the barrier-streamed pipeline
  // lost nothing and double-counted nothing.
  result.replayed_aggregate_digest =
      ReplayIntoHub(merged, options_.observability).AggregateDigest();
  if (sharded) {
    // Sorted by start time, so the pre-warmup spans are a prefix.
    merged.erase(merged.begin(),
                 std::partition_point(merged.begin(), merged.end(), [this](const Span& span) {
                   return span.start_time < options_.warmup;
                 }));
    result.spans = std::move(merged);
  } else {
    // Single-domain runs keep record order. Free the merge before copying.
    std::vector<Span>().swap(merged);
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
  // Constant words for the simulator queue kind (0, the ladder) and the
  // streaming flag (1, always on) keep every hash, and so every checkpoint
  // manifest, stable across revisions.
  fold(0);
  fold(static_cast<uint64_t>(options_.num_shards));
  const ObservabilityOptions& obs = options_.observability;
  fold(1);
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
