// Chaos replay under shard-domain execution: the scripted fault plan of the
// resilience layer (crash + partition + gray slowdown + packet loss) must
// replay bit-for-bit when the system is split across shard domains, and the
// execution must be invariant under the host worker-thread count
// (docs/PARALLEL.md). The client lives in shard 0 and every backend in shard
// 1, so all load, all retries, and all fault-error paths cross domains. With
// two shards the contiguous block partition puts the shards on different
// continent pairs, so every cross-shard path is intercontinental — timeouts
// and deadlines below are sized for ~60-200 ms RTTs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/fault/injector.h"
#include "src/rpc/channel.h"
#include "src/rpc/server.h"

namespace rpcscope {
namespace {

constexpr MethodId kEcho = 1;

struct ShardedChaosOutcome {
  uint64_t digest = 0;
  uint64_t events = 0;
  uint64_t rounds = 0;
  uint64_t cross = 0;
  int ok = 0;
  int err = 0;
  uint64_t retries_attempted = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  uint64_t partition_drops = 0;
  uint64_t loss_drops = 0;
  uint64_t gray_windows = 0;
};

// One client (cluster 0 -> shard 0), four backends (the first cluster of
// shard 1's block), open-loop load at 1 call/ms for 3 simulated seconds while
// the plan plays:
//   backend 0 crashes at 0.5s and restarts at 1.2s,
//   backend 1 is partitioned from the client 1.5s..2s,
//   backend 2 runs 50x slow (gray) 2.1s..2.4s,
//   backend 3's path drops 30% of frames 2.5s..2.8s.
ShardedChaosOutcome RunShardedChaos(uint64_t seed, int worker_threads) {
  RpcSystemOptions sys_opts;
  sys_opts.fabric.congestion_probability = 0;
  sys_opts.seed = seed;
  sys_opts.num_shards = 2;
  RpcSystem system(sys_opts);
  const Topology& topo = system.topology();

  std::vector<MachineId> backends;
  std::vector<std::unique_ptr<Server>> servers;
  const ClusterId backend_cluster = topo.num_clusters() / 2;  // Shard 1's first cluster.
  for (int i = 0; i < 4; ++i) {
    const MachineId m = topo.MachineAt(backend_cluster, i);
    backends.push_back(m);
    auto server = std::make_unique<Server>(&system, m, ServerOptions{});
    server->RegisterMethod(kEcho, "Echo", [](std::shared_ptr<ServerCall> call) {
      call->Compute(Micros(200), [call]() {
        call->Finish(Status::Ok(), Payload::Modeled(256));
      });
    });
    servers.push_back(std::move(server));
  }

  ClientOptions client_opts;
  client_opts.retry_budget.enabled = true;
  const MachineId client_machine = topo.MachineAt(0, 10);
  Client client(&system, client_machine, client_opts);
  EXPECT_NE(system.ShardOf(client_machine), system.ShardOf(backends[0]));

  ChannelOptions chan_opts;
  chan_opts.policy = PickPolicy::kRoundRobin;
  chan_opts.default_deadline = Millis(900);
  chan_opts.default_max_retries = 3;
  Channel channel(&client, "sharded-chaos-echo", backends, chan_opts);

  FaultPlan plan;
  plan.crashes.push_back(
      {.machine = backends[0], .at = Millis(500), .restart_at = Millis(1200)});
  plan.partitions.push_back({.group_a = {client.machine()},
                             .group_b = {backends[1]},
                             .start = Millis(1500),
                             .end = Millis(2000)});
  plan.losses.push_back({.src = client.machine(),
                         .dst = backends[3],
                         .loss_probability = 0.3,
                         .start = Millis(2500),
                         .end = Millis(2800)});
  plan.gray_slowdowns.push_back(
      {.machine = backends[2], .factor = 50.0, .start = Millis(2100), .end = Millis(2400)});
  FaultInjector injector(&system, plan);
  EXPECT_TRUE(injector.Arm().ok());

  ShardedChaosOutcome out;
  Simulator& client_sim = system.ShardFor(client_machine).sim();
  for (int i = 0; i < 3000; ++i) {
    client_sim.Schedule(Millis(1) * i, [&]() {
      CallOptions opts;
      opts.attempt_timeout = Millis(250);
      channel.Call(kEcho, Payload::Modeled(256), opts,
                   [&](const CallResult& r, Payload) {
                     if (r.status.ok()) {
                       ++out.ok;
                     } else {
                       ++out.err;
                     }
                   });
    });
  }

  system.RunSharded(worker_threads, kMaxSimTime);

  out.digest = system.ShardedEventDigest();
  out.events = system.TotalEventsExecuted();
  out.rounds = system.last_rounds();
  out.cross = system.last_cross_domain_events();
  out.retries_attempted = client.retries_attempted();
  out.crashes = injector.crashes_applied();
  out.restarts = injector.restarts_applied();
  out.partition_drops = injector.partition_drops();
  out.loss_drops = injector.loss_drops();
  out.gray_windows = injector.gray_windows_applied();
  return out;
}

class ShardedChaosTest : public ::testing::TestWithParam<uint64_t> {};

// Same seed, same plan, different worker-thread counts: bit-identical, with
// the full plan applied through cross-domain paths.
TEST_P(ShardedChaosTest, ChaosReplayIsWorkerCountInvariant) {
  const ShardedChaosOutcome one = RunShardedChaos(GetParam(), 1);
  const ShardedChaosOutcome two = RunShardedChaos(GetParam(), 2);

  EXPECT_EQ(one.ok + one.err, 3000);
  EXPECT_GT(one.cross, 0u);
  EXPECT_EQ(one.crashes, 1u);
  EXPECT_EQ(one.restarts, 1u);
  EXPECT_GT(one.partition_drops, 0u);
  EXPECT_GT(one.loss_drops, 0u);
  EXPECT_EQ(one.gray_windows, 1u);

  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.events, two.events);
  EXPECT_EQ(one.rounds, two.rounds);
  EXPECT_EQ(one.cross, two.cross);
  EXPECT_EQ(one.ok, two.ok);
  EXPECT_EQ(one.err, two.err);
  EXPECT_EQ(one.retries_attempted, two.retries_attempted);
  EXPECT_EQ(one.partition_drops, two.partition_drops);
  EXPECT_EQ(one.loss_drops, two.loss_drops);
}

// Same seed, same worker count, repeated: the sharded chaos run replays
// bit-for-bit, like the single-domain chaos acceptance test.
TEST_P(ShardedChaosTest, SameSeedShardedRunsAreBitIdentical) {
  const ShardedChaosOutcome a = RunShardedChaos(GetParam(), 2);
  const ShardedChaosOutcome b = RunShardedChaos(GetParam(), 2);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.err, b.err);
  EXPECT_EQ(a.retries_attempted, b.retries_attempted);
  EXPECT_EQ(a.loss_drops, b.loss_drops);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedChaosTest, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace rpcscope
