// Sharded mini-fleet tests: the shard-domain execution of the Table-1 graph
// (docs/PARALLEL.md) must be deterministic per (options, num_shards) and
// bit-for-bit invariant under the host worker-thread count, cross-shard RPCs
// must complete with a full latency breakdown, and the merged span stream
// must assemble into the same trace trees every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/fleet/mini_fleet.h"
#include "src/fleet/service_catalog.h"
#include "src/rpc/client.h"
#include "src/rpc/server.h"

namespace rpcscope {
namespace {

// FNV-1a over every determinism-relevant span field, in stream order. The
// span stream is the input to every analysis in this repo, so equal hashes
// mean byte-identical downstream reports.
uint64_t HashSpans(const std::vector<Span>& spans) {
  uint64_t digest = 14695981039346656037ull;
  auto mix = [&digest](uint64_t word) {
    constexpr uint64_t kPrime = 1099511628211ull;
    for (int i = 0; i < 8; ++i) {
      digest ^= (word >> (8 * i)) & 0xff;
      digest *= kPrime;
    }
  };
  for (const Span& s : spans) {
    mix(s.trace_id);
    mix(s.span_id);
    mix(s.parent_span_id);
    mix(static_cast<uint64_t>(s.method_id));
    mix(static_cast<uint64_t>(s.service_id));
    mix(static_cast<uint64_t>(s.start_time));
    mix(static_cast<uint64_t>(s.status));
    mix(static_cast<uint64_t>(s.request_wire_bytes));
    mix(static_cast<uint64_t>(s.response_wire_bytes));
    for (SimDuration component : s.latency.components) {
      mix(static_cast<uint64_t>(component));
    }
  }
  return digest;
}

MiniFleetOptions ShardedOptions(uint64_t seed, int num_shards, int worker_threads) {
  MiniFleetOptions options;
  options.duration = Seconds(1);
  options.warmup = Millis(200);
  options.frontend_rps = 300;
  options.seed = seed;
  options.num_shards = num_shards;
  options.worker_threads = worker_threads;
  return options;
}

TEST(ShardedFleetTest, WorkerCountDoesNotChangeDigestOrReport) {
  // The acceptance bar for the shard-domain refactor: for a fixed seed and
  // shard count, 1, 2, and 8 worker threads must produce the identical event
  // digest and the identical analysis input (span stream + per-service
  // report), across several seeds.
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  for (const uint64_t seed : {0xf1ee7ull, 0xbeefull, 0x5eedull}) {
    const MiniFleetResult one = RunMiniFleet(catalog, ShardedOptions(seed, 8, 1));
    const MiniFleetResult two = RunMiniFleet(catalog, ShardedOptions(seed, 8, 2));
    const MiniFleetResult eight = RunMiniFleet(catalog, ShardedOptions(seed, 8, 8));

    EXPECT_GT(one.events_executed, 0u) << "seed " << seed;
    EXPECT_GT(one.spans.size(), 0u) << "seed " << seed;
    EXPECT_GT(one.cross_domain_events, 0u) << "seed " << seed;

    EXPECT_EQ(one.event_digest, two.event_digest) << "seed " << seed;
    EXPECT_EQ(one.event_digest, eight.event_digest) << "seed " << seed;
    EXPECT_EQ(one.events_executed, two.events_executed) << "seed " << seed;
    EXPECT_EQ(one.events_executed, eight.events_executed) << "seed " << seed;
    EXPECT_EQ(one.root_calls, two.root_calls) << "seed " << seed;
    EXPECT_EQ(one.root_calls, eight.root_calls) << "seed " << seed;
    EXPECT_EQ(one.rounds, two.rounds) << "seed " << seed;
    EXPECT_EQ(one.rounds, eight.rounds) << "seed " << seed;
    EXPECT_EQ(one.cross_domain_events, two.cross_domain_events) << "seed " << seed;
    EXPECT_EQ(one.cross_domain_events, eight.cross_domain_events) << "seed " << seed;
    EXPECT_EQ(HashSpans(one.spans), HashSpans(two.spans)) << "seed " << seed;
    EXPECT_EQ(HashSpans(one.spans), HashSpans(eight.spans)) << "seed " << seed;
    EXPECT_EQ(one.spans_per_service, two.spans_per_service) << "seed " << seed;
    EXPECT_EQ(one.spans_per_service, eight.spans_per_service) << "seed " << seed;

    // The streaming pipeline's two correctness claims (stream.h):
    //  1. Barrier-streamed aggregation == post-run replay of the canonical
    //     merged span stream, bit for bit, at every worker count.
    //  2. Hub state is worker-count invariant — aggregates AND exemplar
    //     reservoirs (canonical barrier order).
    EXPECT_GT(one.spans_streamed, 0) << "seed " << seed;
    EXPECT_EQ(one.streamed_aggregate_digest, one.replayed_aggregate_digest) << "seed " << seed;
    EXPECT_EQ(two.streamed_aggregate_digest, two.replayed_aggregate_digest) << "seed " << seed;
    EXPECT_EQ(eight.streamed_aggregate_digest, eight.replayed_aggregate_digest)
        << "seed " << seed;
    EXPECT_EQ(one.streamed_aggregate_digest, two.streamed_aggregate_digest) << "seed " << seed;
    EXPECT_EQ(one.streamed_aggregate_digest, eight.streamed_aggregate_digest) << "seed " << seed;
    EXPECT_EQ(one.exemplar_digest, two.exemplar_digest) << "seed " << seed;
    EXPECT_EQ(one.exemplar_digest, eight.exemplar_digest) << "seed " << seed;
    EXPECT_EQ(one.spans_streamed, two.spans_streamed) << "seed " << seed;
    EXPECT_EQ(one.spans_streamed, eight.spans_streamed) << "seed " << seed;
    // Default cap (64Ki spans) is far above this workload: nothing dropped.
    EXPECT_EQ(one.span_buffer_drops, 0u) << "seed " << seed;
  }
}

TEST(ShardedFleetTest, StreamedAggregatesSurviveExemplarBufferOverflow) {
  // Shrink the per-shard raw-span buffer far below the span volume: the run
  // must surface drops in the counter, keep the per-shard peak at the cap,
  // and STILL stream aggregates identical to the post-run replay — the cap
  // costs exemplars only, never counts (stream.h: deltas fold before the
  // buffer applies).
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  // Single-domain run: no barriers until the final flush, so every kept span
  // is a buffer candidate at once and a small cap is guaranteed to bind.
  MiniFleetOptions options = ShardedOptions(0xf1ee7, 1, 1);
  options.observability.max_buffered_spans = 16;
  const MiniFleetResult capped = RunMiniFleet(catalog, options);

  EXPECT_GT(capped.span_buffer_drops, 0u);
  EXPECT_EQ(capped.peak_buffered_spans, 16u);
  EXPECT_EQ(capped.streamed_aggregate_digest, capped.replayed_aggregate_digest);

  // Sharded runs flush at every round barrier, so the same cap bounds the
  // per-shard resident buffer without necessarily dropping anything — and
  // the aggregate equivalence must hold either way.
  MiniFleetOptions sharded = ShardedOptions(0xf1ee7, 8, 2);
  sharded.observability.max_buffered_spans = 16;
  const MiniFleetResult sharded_capped = RunMiniFleet(catalog, sharded);
  EXPECT_LE(sharded_capped.peak_buffered_spans, 16u);
  EXPECT_EQ(sharded_capped.streamed_aggregate_digest, sharded_capped.replayed_aggregate_digest);

  // Aggregates are cap-independent: the uncapped run of the same sharded
  // fleet streams the identical aggregate digest (its exemplars differ —
  // more candidates reached the reservoirs).
  const MiniFleetResult uncapped = RunMiniFleet(catalog, ShardedOptions(0xf1ee7, 8, 2));
  EXPECT_EQ(uncapped.span_buffer_drops, 0u);
  EXPECT_EQ(sharded_capped.streamed_aggregate_digest, uncapped.streamed_aggregate_digest);
}

TEST(ShardedFleetTest, LiveWindowTapFiresDuringTheRun) {
  // A short Monarch window turns the hub into a live per-window series: the
  // tap must fire as barriers pass window ends (not just at final flush), in
  // ascending window order, with plausible RPS, and the closed-window series
  // must be identical across worker counts.
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  auto run = [&catalog](int worker_threads) {
    MiniFleetOptions options = ShardedOptions(0xf1ee7, 8, worker_threads);
    options.observability.window = Millis(100);
    std::vector<std::pair<SimTime, int64_t>> closed;
    options.window_tap = [&closed](const WindowStats& w) {
      closed.emplace_back(w.window_start, w.spans);
    };
    const MiniFleetResult result = RunMiniFleet(catalog, options);
    EXPECT_EQ(static_cast<int64_t>(closed.size()), result.windows_closed);
    return closed;
  };

  const auto closed_two = run(2);
  // A 1s run with 100ms windows must close several windows, and all but the
  // tail must close mid-run (windows_closed counts tap firings; the final
  // flush closes only windows still open when the fleet drained).
  ASSERT_GE(closed_two.size(), 5u);
  for (size_t i = 1; i < closed_two.size(); ++i) {
    EXPECT_LT(closed_two[i - 1].first, closed_two[i].first) << "tap order";
  }
  int64_t total_spans = 0;
  for (const auto& [start, spans] : closed_two) {
    total_spans += spans;
  }
  EXPECT_GT(total_spans, 0);

  const auto closed_eight = run(8);
  EXPECT_EQ(closed_two, closed_eight);
}

TEST(ShardedFleetTest, ShardedRunReproducesAcrossRepeats) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  const MiniFleetResult a = RunMiniFleet(catalog, ShardedOptions(0xf1ee7, 4, 2));
  const MiniFleetResult b = RunMiniFleet(catalog, ShardedOptions(0xf1ee7, 4, 2));
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(HashSpans(a.spans), HashSpans(b.spans));

  // And a different seed must actually move the digest.
  const MiniFleetResult c = RunMiniFleet(catalog, ShardedOptions(0xbeef, 4, 2));
  EXPECT_NE(a.event_digest, c.event_digest);
}

TEST(ShardedFleetTest, CrossShardRpcEndToEnd) {
  // A minimal two-shard system: client in cluster 0 (shard 0), server in the
  // first cluster of shard 1's block (the partition is contiguous:
  // ShardOfCluster(c) = floor(c * num_shards / num_clusters)). Every call
  // crosses the domain boundary through the fabric; replies must come back
  // complete, with the request-wire component echoed into the client-side
  // breakdown.
  RpcSystemOptions sys_opts;
  sys_opts.num_shards = 2;
  RpcSystem system(sys_opts);
  const Topology& topo = system.topology();
  const MachineId client_machine = topo.MachineAt(0, 0);
  const MachineId server_machine = topo.MachineAt(topo.num_clusters() / 2, 0);
  ASSERT_EQ(system.ShardOf(client_machine), 0);
  ASSERT_EQ(system.ShardOf(server_machine), 1);

  Server server(&system, server_machine, ServerOptions{});
  constexpr MethodId kEcho = 7;
  server.RegisterMethod(kEcho, "Echo", [](std::shared_ptr<ServerCall> call) {
    call->Compute(Micros(50), [call]() { call->Finish(Status::Ok(), Payload::Modeled(256)); });
  });

  Client client(&system, client_machine);
  auto results = std::make_shared<std::vector<CallResult>>();
  constexpr int kCalls = 20;
  Simulator& client_sim = system.ShardFor(client_machine).sim();
  for (int i = 0; i < kCalls; ++i) {
    client_sim.ScheduleAt(i * Millis(1), [&client, server_machine, results]() {
      client.Call(server_machine, kEcho, Payload::Modeled(128), CallOptions{},
                  [results](const CallResult& result, Payload) {
                    results->push_back(result);
                  });
    });
  }

  system.RunSharded(2, kMaxSimTime);

  ASSERT_EQ(results->size(), static_cast<size_t>(kCalls));
  EXPECT_GT(system.last_cross_domain_events(), 0u);
  EXPECT_GT(system.last_rounds(), 0u);
  for (const CallResult& result : *results) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    // The request-wire time is observed in the server's domain and echoed
    // back in the reply; it must be present and at least the lookahead-
    // defining minimum cross-cluster latency.
    EXPECT_GE(result.latency[RpcComponent::kRequestWire], system.lookahead());
    EXPECT_GE(result.latency[RpcComponent::kResponseWire], system.lookahead());
    EXPECT_GT(result.latency[RpcComponent::kServerApp], 0);
  }

  // Both sides recorded spans; the merged stream carries the client span
  // with the full breakdown.
  const std::vector<Span> spans = system.MergedSpans();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kCalls));
  for (const Span& span : spans) {
    EXPECT_EQ(span.client_cluster, topo.ClusterOf(client_machine));
    EXPECT_EQ(span.server_cluster, topo.ClusterOf(server_machine));
    EXPECT_GT(span.latency.Total(), 0);
  }
}

// The reference merge: every shard's spans in shard then record order,
// stable-sorted by (start_time, trace_id, span_id).
std::vector<Span> StableSortedMerge(RpcSystem& system) {
  std::vector<Span> all;
  for (int s = 0; s < system.num_shards(); ++s) {
    const SpanLog& spans = system.shard(s).tracer.spans();
    all.insert(all.end(), spans.begin(), spans.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    if (a.start_time != b.start_time) {
      return a.start_time < b.start_time;
    }
    if (a.trace_id != b.trace_id) {
      return a.trace_id < b.trace_id;
    }
    return a.span_id < b.span_id;
  });
  return all;
}

// Equal keys are told apart by method (shard) and service (record index).
void ExpectSameSequence(const std::vector<Span>& actual, const std::vector<Span>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].start_time, expected[i].start_time) << "at " << i;
    ASSERT_EQ(actual[i].trace_id, expected[i].trace_id) << "at " << i;
    ASSERT_EQ(actual[i].span_id, expected[i].span_id) << "at " << i;
    ASSERT_EQ(actual[i].method_id, expected[i].method_id) << "at " << i;
    ASSERT_EQ(actual[i].service_id, expected[i].service_id) << "at " << i;
  }
  EXPECT_EQ(HashSpans(actual), HashSpans(expected));
}

TEST(ShardedFleetTest, MergedSpansEqualsStableSortIncludingTies) {
  // 4 shards x 300 spans drawn from 40 distinct (start, trace, span) keys:
  // every key repeats within and across shards, so only the shard-then-record
  // tie-break reproduces the stable order.
  RpcSystemOptions options;
  options.num_shards = 4;
  RpcSystem system(options);
  uint64_t x = 0x2545f4914f6cdd1dull;
  for (int s = 0; s < system.num_shards(); ++s) {
    for (int i = 0; i < 300; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      Span span;
      span.start_time = static_cast<SimTime>(x % 10) * Micros(5);
      span.trace_id = 1 + (x >> 8) % 2;
      span.span_id = 1 + (x >> 16) % 2;
      span.method_id = s;
      span.service_id = i;
      ASSERT_TRUE(system.shard(s).tracer.Record(span));
    }
  }
  ExpectSameSequence(system.MergedSpans(), StableSortedMerge(system));
}

TEST(ShardedFleetTest, CollectKeepsThePostWarmupMerge) {
  // On a real sharded run, MergedSpans equals the oracle and Collect keeps
  // exactly its spans at or after the warmup, in the same order.
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  const MiniFleetOptions options = ShardedOptions(0xf1ee7, 8, 2);
  MiniFleet fleet(catalog, options);
  ASSERT_TRUE(fleet.ArmThrough(kMaxSimTime).ok());
  fleet.RunSegment(kMaxSimTime);
  std::vector<Span> expected = StableSortedMerge(fleet.system());
  ExpectSameSequence(fleet.system().MergedSpans(), expected);
  const size_t all = expected.size();
  expected.erase(std::remove_if(expected.begin(), expected.end(),
                                [&options](const Span& span) {
                                  return span.start_time < options.warmup;
                                }),
                 expected.end());
  ASSERT_LT(expected.size(), all);  // The warmup cut has something to cut.
  const MiniFleetResult result = fleet.Collect();
  ExpectSameSequence(result.spans, expected);
  EXPECT_EQ(result.streamed_aggregate_digest, result.replayed_aggregate_digest);
}

TEST(ShardedFleetTest, CollectFoldEqualsTheSortedReplayPastEviction) {
  // Collect folds the kept spans in record order; replayed_aggregate_digest
  // is defined as the replay of the sorted merge. Past max_windows the hub
  // evicts windows, where ingest order could matter, so pin the two together
  // on runs that evict: one domain with 10 ms windows for 2 s, and eight
  // shards with 100 ms windows for 5 s under a 24-window retention.
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  MiniFleetOptions single = ShardedOptions(0xf1ee7, 1, 1);
  single.duration = Seconds(2);
  single.observability.window = Millis(10);
  MiniFleetOptions sharded = ShardedOptions(0xf1ee7, 8, 2);
  sharded.duration = Seconds(5);
  sharded.observability.window = Millis(100);
  sharded.observability.max_windows = 24;
  for (const MiniFleetOptions& options : {single, sharded}) {
    SCOPED_TRACE(::testing::Message() << options.num_shards << " shards");
    MiniFleet fleet(catalog, options);
    ASSERT_TRUE(fleet.ArmThrough(kMaxSimTime).ok());
    fleet.RunSegment(kMaxSimTime);
    const MiniFleetResult result = fleet.Collect();
    const ObservabilityHub replayed =
        ReplayIntoHub(fleet.system().MergedSpans(), options.observability);
    EXPECT_GT(fleet.system().hub()->windows_evicted(), 0);
    EXPECT_GT(replayed.windows_evicted(), 0);
    EXPECT_EQ(result.replayed_aggregate_digest, replayed.AggregateDigest());
  }
}

TEST(ShardedFleetTest, MergedSpansAssembleIntoConsistentTraceTrees) {
  // Trace-tree assembly from the canonically merged span stream: every
  // non-root span's parent must exist in the same trace, children must not
  // start before their parent, and the assembled forest must be identical
  // run to run.
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  auto assemble = [](const std::vector<Span>& spans) {
    std::map<SpanId, const Span*> by_id;
    for (const Span& s : spans) {
      EXPECT_TRUE(by_id.emplace(s.span_id, &s).second)
          << "duplicate span id " << s.span_id;
    }
    uint64_t roots = 0;
    uint64_t edges = 0;
    for (const Span& s : spans) {
      if (s.parent_span_id == 0) {
        ++roots;
        continue;
      }
      auto parent = by_id.find(s.parent_span_id);
      // Parents that started before the warmup cutoff are filtered out of
      // the result; only check linked pairs that are both present.
      if (parent == by_id.end()) {
        continue;
      }
      ++edges;
      EXPECT_EQ(parent->second->trace_id, s.trace_id);
      EXPECT_LE(parent->second->start_time, s.start_time);
    }
    return std::make_pair(roots, edges);
  };

  const MiniFleetResult a = RunMiniFleet(catalog, ShardedOptions(0xf1ee7, 8, 2));
  const auto [roots_a, edges_a] = assemble(a.spans);
  EXPECT_GT(roots_a, 0u);
  // The Table-1 dependency edges span shards, so nested spans must exist.
  EXPECT_GT(edges_a, 0u);

  const MiniFleetResult b = RunMiniFleet(catalog, ShardedOptions(0xf1ee7, 8, 8));
  const auto [roots_b, edges_b] = assemble(b.spans);
  EXPECT_EQ(roots_a, roots_b);
  EXPECT_EQ(edges_a, edges_b);
}

TEST(ShardedFleetTest, PolicyRolloutSwapIsWorkerCountInvariant) {
  // A mid-run policy hot-swap (docs/POLICY.md) must land at the same virtual
  // barrier for every worker count: digests, span streams, and streamed
  // aggregates stay bit-for-bit identical across 1/2/8 workers — and the
  // swap must actually change behavior relative to the no-timeline run.
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  PolicySnapshot stage;
  // Mini-fleet callers issue direct client calls (no Channels), so the stage
  // must move a *client-level* knob: a per-attempt watchdog both reshapes the
  // event stream deterministically and grants slow calls a retry.
  stage.defaults.attempt_timeout = Millis(50);
  stage.defaults.max_retries = 1;
  for (const uint64_t seed : {0xf1ee7ull, 0x5eedull}) {
    auto with_rollout = [&](int workers) {
      MiniFleetOptions options = ShardedOptions(seed, 8, workers);
      options.policy.AddStage(Millis(600), stage);
      return RunMiniFleet(catalog, options);
    };
    const MiniFleetResult one = with_rollout(1);
    const MiniFleetResult two = with_rollout(2);
    const MiniFleetResult eight = with_rollout(8);

    EXPECT_EQ(one.policy_stages_applied, 1u) << "seed " << seed;
    EXPECT_EQ(one.policy_version, 1u) << "seed " << seed;
    EXPECT_EQ(one.event_digest, two.event_digest) << "seed " << seed;
    EXPECT_EQ(one.event_digest, eight.event_digest) << "seed " << seed;
    EXPECT_EQ(one.events_executed, eight.events_executed) << "seed " << seed;
    EXPECT_EQ(HashSpans(one.spans), HashSpans(two.spans)) << "seed " << seed;
    EXPECT_EQ(HashSpans(one.spans), HashSpans(eight.spans)) << "seed " << seed;
    EXPECT_EQ(one.streamed_aggregate_digest, two.streamed_aggregate_digest)
        << "seed " << seed;
    EXPECT_EQ(one.streamed_aggregate_digest, eight.streamed_aggregate_digest)
        << "seed " << seed;

    // The swap is not a no-op: the same fleet without the timeline diverges.
    const MiniFleetResult baseline = RunMiniFleet(catalog, ShardedOptions(seed, 8, 2));
    EXPECT_EQ(baseline.policy_version, 0u) << "seed " << seed;
    EXPECT_NE(baseline.event_digest, one.event_digest) << "seed " << seed;
  }
}

TEST(ShardedFleetTest, ColocatedFrontendsBypassWireAndAccountAvoidedTax) {
  // colocate_frontends places each frontend on its target service's first
  // machine and enables the bypass: root calls skip serialize + wire (zero
  // wire-byte spans) while the tax the bypass avoided is accounted — and the
  // whole thing stays worker-count invariant.
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  auto colocated = [&catalog](int workers) {
    MiniFleetOptions options = ShardedOptions(0xf1ee7, 8, workers);
    options.colocate_frontends = true;
    return RunMiniFleet(catalog, options);
  };
  const MiniFleetResult one = colocated(1);
  const MiniFleetResult eight = colocated(8);

  EXPECT_GT(one.colocated_calls, 0u);
  EXPECT_GT(one.avoided_tax_cycles, 0.0);
  EXPECT_GT(one.paid_tax_cycles, 0.0);
  const double fraction =
      one.avoided_tax_cycles / (one.paid_tax_cycles + one.avoided_tax_cycles);
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, 1.0);

  uint64_t colocated_spans = 0;
  for (const Span& s : one.spans) {
    if (!s.colocated) {
      continue;
    }
    ++colocated_spans;
    EXPECT_EQ(s.request_wire_bytes, 0);
    EXPECT_EQ(s.response_wire_bytes, 0);
    EXPECT_GT(s.avoided_tax_cycles, 0.0);
  }
  EXPECT_GT(colocated_spans, 0u);
  // Nested dependency calls still cross the wire: not everything bypasses.
  EXPECT_LT(colocated_spans, one.spans.size());

  EXPECT_EQ(one.event_digest, eight.event_digest);
  EXPECT_EQ(one.colocated_calls, eight.colocated_calls);
  EXPECT_EQ(one.avoided_tax_cycles, eight.avoided_tax_cycles);
  EXPECT_EQ(HashSpans(one.spans), HashSpans(eight.spans));

  // The bypass is a real config change (placement + fast path), not a
  // relabeling: the wire-path fleet has a different digest and no bypass.
  const MiniFleetResult wire = RunMiniFleet(catalog, ShardedOptions(0xf1ee7, 8, 2));
  EXPECT_EQ(wire.colocated_calls, 0u);
  EXPECT_EQ(wire.avoided_tax_cycles, 0.0);
  EXPECT_NE(wire.event_digest, one.event_digest);
}

TEST(ShardedFleetTest, ShardCountOneMatchesLegacySingleDomainRun) {
  // num_shards == 1 must be the legacy single-domain fleet, bit for bit:
  // same placement, same seeds, same digest as a default options run.
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  MiniFleetOptions legacy = ShardedOptions(0xf1ee7, 1, 1);
  legacy.num_shards = 1;
  const MiniFleetResult a = RunMiniFleet(catalog, legacy);
  MiniFleetOptions defaulted = ShardedOptions(0xf1ee7, 1, 1);
  const MiniFleetResult b = RunMiniFleet(catalog, defaulted);
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(HashSpans(a.spans), HashSpans(b.spans));
  // The executor's single-domain fast path is one uninterrupted round.
  EXPECT_EQ(a.rounds, 1u);
  EXPECT_EQ(a.cross_domain_events, 0u);
}

}  // namespace
}  // namespace rpcscope
