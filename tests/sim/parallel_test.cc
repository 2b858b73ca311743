// Shard-domain executor tests: the conservative-PDES round loop must deliver
// cross-domain events in a canonical order and produce bit-for-bit identical
// executions regardless of how many host worker threads drive the domains
// (docs/PARALLEL.md). Also covers Simulator::RunBefore, the exclusive-bound
// primitive the round loop is built on.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/domain.h"
#include "src/sim/lookahead.h"
#include "src/sim/parallel/shard_executor.h"
#include "src/sim/simulator.h"

namespace rpcscope {
namespace {

TEST(RunBeforeTest, ExecutesStrictlyEarlierEventsOnly) {
  Simulator sim;
  std::vector<int> fired;
  sim.ScheduleAt(10, [&fired]() { fired.push_back(10); });
  sim.ScheduleAt(20, [&fired]() { fired.push_back(20); });
  sim.ScheduleAt(30, [&fired]() { fired.push_back(30); });

  // Events exactly at the bound do NOT run (the round loop schedules barrier
  // deliveries at exactly round_end, so they must still be in the future).
  EXPECT_EQ(sim.RunBefore(20), 1u);
  EXPECT_EQ(fired, (std::vector<int>{10}));
  EXPECT_EQ(sim.Now(), 10);
  EXPECT_EQ(sim.NextEventTime(), 20);

  EXPECT_EQ(sim.RunBefore(21), 1u);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.Now(), 20);
}

TEST(RunBeforeTest, DoesNotAdvanceClockPastLastExecutedEvent) {
  Simulator sim;
  sim.ScheduleAt(5, []() {});
  EXPECT_EQ(sim.RunBefore(1000), 1u);
  // The clock stays at the last executed event, not at the bound: an event
  // arriving later at exactly t=1000 must be schedulable without clamping.
  EXPECT_EQ(sim.Now(), 5);
  sim.ScheduleAt(1000, []() {});
  EXPECT_EQ(sim.RunBefore(2000), 1u);
  EXPECT_EQ(sim.Now(), 1000);
  // Draining an empty queue executes nothing and leaves the clock alone.
  EXPECT_EQ(sim.RunBefore(5000), 0u);
  EXPECT_EQ(sim.Now(), 1000);
  EXPECT_EQ(sim.NextEventTime(), kMaxSimTime);
}

TEST(ShardExecutorTest, SingleDomainMatchesPlainSimulatorRun) {
  // With one domain the executor must be a pure pass-through: same events,
  // same digest as driving the simulator directly.
  auto load = [](Simulator& sim) {
    for (int i = 0; i < 50; ++i) {
      sim.ScheduleAt(i * 7, [&sim, i]() {
        if (i % 3 == 0) {
          sim.Schedule(11, []() {});
        }
      });
    }
  };

  Simulator plain;
  load(plain);
  plain.Run();

  SimDomain domain(0, 1);
  load(domain.sim());
  std::vector<SimDomain*> domains = {&domain};
  ShardExecutor executor(domains, ShardExecutorOptions{});
  executor.RunToCompletion();

  EXPECT_EQ(domain.sim().events_executed(), plain.events_executed());
  EXPECT_EQ(domain.sim().event_digest(), plain.event_digest());
  EXPECT_EQ(executor.cross_domain_events(), 0u);
}

// A two-domain ping-pong workload: every bounce crosses domains with at
// least `lookahead` of virtual latency, exactly like a cross-shard RPC.
struct PingPongResult {
  uint64_t digest0 = 0;
  uint64_t digest1 = 0;
  uint64_t events0 = 0;
  uint64_t events1 = 0;
  uint64_t bounces = 0;
  uint64_t rounds = 0;
  uint64_t cross = 0;
};

PingPongResult RunPingPong(int worker_threads) {
  constexpr SimDuration kLookahead = 100;
  constexpr SimTime kLimit = 50000;
  SimDomain d0(0, 2);
  SimDomain d1(1, 2);
  // One counter slot per domain: with batched rounds both domains execute
  // bounce events concurrently within a round, so a single shared counter
  // would be a data race (domain code must never touch another domain's
  // state — same rule as production shard code).
  auto bounces = std::make_shared<std::array<uint64_t, 2>>();

  // fn(home, other) posts itself back and forth until the clock passes kLimit.
  struct Bouncer {
    SimDomain* home;
    SimDomain* other;
    std::shared_ptr<std::array<uint64_t, 2>> bounces;
    void operator()() const {
      ++(*bounces)[static_cast<size_t>(home->id())];
      const SimTime now = home->sim().Now();
      if (now >= kLimit) {
        return;
      }
      // Some local work too, so each round runs a mix of events.
      home->sim().Schedule(13, []() {});
      Bouncer next{other, home, bounces};
      home->PostRemote(other->id(), AddClamped(now, kLookahead + 7), SimCallback(next));
    }
  };
  d0.sim().ScheduleAt(0, SimCallback(Bouncer{&d0, &d1, bounces}));
  d0.sim().ScheduleAt(3, SimCallback(Bouncer{&d0, &d1, bounces}));
  d1.sim().ScheduleAt(5, SimCallback(Bouncer{&d1, &d0, bounces}));

  std::vector<SimDomain*> domains = {&d0, &d1};
  ShardExecutorOptions opts;
  opts.worker_threads = worker_threads;
  opts.lookahead = kLookahead;
  ShardExecutor executor(domains, opts);
  executor.RunToCompletion();

  PingPongResult r;
  r.digest0 = d0.sim().event_digest();
  r.digest1 = d1.sim().event_digest();
  r.events0 = d0.sim().events_executed();
  r.events1 = d1.sim().events_executed();
  r.bounces = (*bounces)[0] + (*bounces)[1];
  r.rounds = executor.rounds();
  r.cross = executor.cross_domain_events();
  return r;
}

TEST(ShardExecutorTest, CrossDomainPingPongRunsToCompletion) {
  const PingPongResult r = RunPingPong(1);
  EXPECT_GT(r.bounces, 100u);
  EXPECT_GT(r.rounds, 1u);
  EXPECT_GT(r.cross, 100u);
  EXPECT_GT(r.events0, 0u);
  EXPECT_GT(r.events1, 0u);
}

TEST(ShardExecutorTest, WorkerThreadCountDoesNotChangeTheExecution) {
  // The determinism contract: per-domain event digests — which fold every
  // (time, seq) pair in execution order — must be identical whether the
  // domains run sequentially or on a thread pool.
  const PingPongResult seq = RunPingPong(1);
  const PingPongResult two = RunPingPong(2);

  EXPECT_EQ(seq.digest0, two.digest0);
  EXPECT_EQ(seq.digest1, two.digest1);
  EXPECT_EQ(seq.events0, two.events0);
  EXPECT_EQ(seq.events1, two.events1);
  EXPECT_EQ(seq.bounces, two.bounces);
  EXPECT_EQ(seq.rounds, two.rounds);
  EXPECT_EQ(seq.cross, two.cross);
}

TEST(ShardExecutorTest, ManyDomainRingIsWorkerCountInvariant) {
  // A ring of 8 domains each forwarding to the next; oversubscribed worker
  // counts (more threads than free cores, more threads than domains ask for)
  // must not perturb the execution.
  constexpr int kDomains = 8;
  constexpr SimDuration kLookahead = 50;
  constexpr SimTime kLimit = 20000;

  auto run = [&](int worker_threads) {
    std::vector<std::unique_ptr<SimDomain>> owned;
    std::vector<SimDomain*> domains;
    for (int i = 0; i < kDomains; ++i) {
      owned.push_back(std::make_unique<SimDomain>(i, kDomains));
      domains.push_back(owned.back().get());
    }
    struct Hop {
      std::vector<SimDomain*>* ring;
      int at;
      void operator()() const {
        SimDomain* home = (*ring)[static_cast<size_t>(at)];
        const SimTime now = home->sim().Now();
        if (now >= kLimit) {
          return;
        }
        const int next = (at + 1) % kDomains;
        home->PostRemote(next, AddClamped(now, kLookahead + static_cast<SimDuration>(at)),
                         SimCallback(Hop{ring, next}));
      }
    };
    for (int i = 0; i < kDomains; ++i) {
      domains[static_cast<size_t>(i)]->sim().ScheduleAt(i, SimCallback(Hop{&domains, i}));
    }
    ShardExecutorOptions opts;
    opts.worker_threads = worker_threads;
    opts.lookahead = kLookahead;
    ShardExecutor executor(domains, opts);
    executor.RunToCompletion();
    std::vector<uint64_t> digests;
    for (SimDomain* d : domains) {
      digests.push_back(d->sim().event_digest());
      digests.push_back(d->sim().events_executed());
    }
    digests.push_back(executor.rounds());
    digests.push_back(executor.cross_domain_events());
    return digests;
  };

  const std::vector<uint64_t> one = run(1);
  const std::vector<uint64_t> two = run(2);
  const std::vector<uint64_t> eight = run(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

// Asymmetric-topology workload for the lookahead-matrix tests: every pair is
// far (kFar) except domains 2 and 3, which are near each other (kNear — the
// global minimum bound) and exchange a short burst of near cross-traffic.
// Domains 0 and 1 carry dense local work plus occasional far cross-traffic.
// A scalar (global-min) lookahead throttles the 0<->1 horizons to +kNear per
// round for the whole run, while the per-pair matrix lets them advance +kFar
// — that gap is the whole point of the matrix. (The near pair must be a
// *pair*: one domain near everybody would break the triangle inequality the
// executor CHECKs, since relaying through it would undercut the far bounds.)
constexpr SimDuration kAsymNear = 100;
constexpr SimDuration kAsymFar = 10000;
constexpr SimTime kAsymLimit = 200000;

struct AsymResult {
  std::vector<uint64_t> fingerprint;  // Per-domain digests + executor stats.
  uint64_t rounds = 0;
  std::vector<SimTime> watermarks;
};

AsymResult RunAsymmetric(uint64_t seed, int worker_threads, bool use_matrix) {
  constexpr int kDomains = 4;
  std::vector<std::unique_ptr<SimDomain>> owned;
  std::vector<SimDomain*> domains;
  for (int i = 0; i < kDomains; ++i) {
    owned.push_back(std::make_unique<SimDomain>(i, kDomains));
    domains.push_back(owned.back().get());
  }

  // Dense local work on 0 and 1: a self-rescheduling tick every 10-25 ns.
  struct Tick {
    SimDomain* home;
    uint64_t salt;
    void operator()() const {
      const SimTime now = home->sim().Now();
      if (now >= kAsymLimit) {
        return;
      }
      const SimDuration step = 10 + static_cast<SimDuration>(
                                        Mix64(salt ^ static_cast<uint64_t>(now)) % 16);
      home->sim().Schedule(step, SimCallback(Tick{home, salt + 1}));
    }
  };
  // Occasional far cross-traffic 0 <-> 1 so the far pair stays coupled.
  struct FarPing {
    SimDomain* home;
    SimDomain* other;
    uint64_t salt;
    void operator()() const {
      const SimTime now = home->sim().Now();
      if (now >= kAsymLimit) {
        return;
      }
      const SimDuration jitter =
          static_cast<SimDuration>(Mix64(salt ^ static_cast<uint64_t>(now)) % 500);
      home->PostRemote(other->id(), AddClamped(now, kAsymFar + jitter),
                       SimCallback(FarPing{other, home, salt + 1}));
    }
  };
  domains[0]->sim().ScheduleAt(static_cast<SimTime>(seed % 7), SimCallback(Tick{domains[0], seed}));
  domains[1]->sim().ScheduleAt(static_cast<SimTime>(seed % 5), SimCallback(Tick{domains[1], seed ^ 0xa5a5}));
  domains[0]->sim().ScheduleAt(1, SimCallback(FarPing{domains[0], domains[1], seed ^ 0x77}));

  // A short near-traffic burst between 2 and 3 (their pair bound is what pins
  // the global minimum to kAsymNear), drained long before kAsymLimit.
  for (int burst = 0; burst < 8; ++burst) {
    const SimTime at = 5 + burst * 40;
    domains[2]->sim().ScheduleAt(at, [d2 = domains[2]]() {
      d2->PostRemote(3, AddClamped(d2->sim().Now(), kAsymNear + 3), []() {});
    });
    domains[3]->sim().ScheduleAt(at + 11, [d3 = domains[3]]() {
      d3->PostRemote(2, AddClamped(d3->sim().Now(), kAsymNear + 5), []() {});
    });
  }

  LookaheadMatrix matrix(kDomains, kAsymFar);
  matrix.Set(2, 3, kAsymNear);
  matrix.Set(3, 2, kAsymNear);

  ShardExecutorOptions opts;
  opts.worker_threads = worker_threads;
  if (use_matrix) {
    opts.lookahead_matrix = &matrix;
  } else {
    opts.lookahead = kAsymNear;  // The global minimum a scalar scheme gets.
  }
  AsymResult r;
  opts.barrier_hook = [&r](SimTime w) { r.watermarks.push_back(w); };
  ShardExecutor executor(domains, opts);
  executor.RunToCompletion();

  for (SimDomain* d : domains) {
    r.fingerprint.push_back(d->sim().event_digest());
    r.fingerprint.push_back(d->sim().events_executed());
  }
  r.fingerprint.push_back(executor.rounds());
  r.fingerprint.push_back(executor.cross_domain_events());
  r.rounds = executor.rounds();
  return r;
}

TEST(LookaheadMatrixTest, PerPairBoundsCutRoundCountOnAsymmetricTopology) {
  // (a) of the matrix acceptance: on a topology with one far pair and near
  // bounds elsewhere, per-pair horizons need far fewer barriers than the
  // global-min scalar — here by well over 5x (the far pair's horizon advances
  // +kFar per round instead of +kNear once the near domains drain).
  for (uint64_t seed : {0x5eed1ull, 0x5eed2ull, 0x5eed3ull}) {
    const AsymResult scalar = RunAsymmetric(seed, 1, /*use_matrix=*/false);
    const AsymResult matrix = RunAsymmetric(seed, 1, /*use_matrix=*/true);
    EXPECT_LT(matrix.rounds * 5, scalar.rounds) << "seed " << seed;
    EXPECT_GT(matrix.rounds, 1u) << "seed " << seed;
  }
}

TEST(LookaheadMatrixTest, MatrixExecutionIsWorkerCountInvariant) {
  // (b) of the matrix acceptance: per-domain digests, event counts, round
  // counts, and the watermark sequence are bit-identical for 1/2/8 worker
  // threads across seeds. Watermarks must also be strictly increasing — the
  // contract the streaming-observability hub builds on (stream.h).
  for (uint64_t seed : {0x5eed1ull, 0x5eed2ull, 0x5eed3ull}) {
    const AsymResult one = RunAsymmetric(seed, 1, /*use_matrix=*/true);
    const AsymResult two = RunAsymmetric(seed, 2, /*use_matrix=*/true);
    const AsymResult eight = RunAsymmetric(seed, 8, /*use_matrix=*/true);
    EXPECT_EQ(one.fingerprint, two.fingerprint) << "seed " << seed;
    EXPECT_EQ(one.fingerprint, eight.fingerprint) << "seed " << seed;
    EXPECT_EQ(one.watermarks, two.watermarks) << "seed " << seed;
    EXPECT_EQ(one.watermarks, eight.watermarks) << "seed " << seed;
    for (size_t i = 1; i < one.watermarks.size(); ++i) {
      ASSERT_GT(one.watermarks[i], one.watermarks[i - 1])
          << "watermarks must strictly increase (round " << i << ", seed " << seed << ")";
    }
  }
}

TEST(LookaheadMatrixTest, MinPlusClosureRestoresTriangleInequality) {
  // A hub-and-spoke distance set: 0 and 2 are each near hub 1 but the direct
  // 0->2 bound was set from a slow direct link. Causality can relay 0->1->2
  // in 40 + 60 = 100, so the direct 5000 is unsound until closed.
  LookaheadMatrix m(3, 5000);
  m.Set(0, 1, 40);
  m.Set(1, 2, 60);
  EXPECT_FALSE(m.SatisfiesTriangleInequality());
  m.MinPlusClose();
  EXPECT_TRUE(m.SatisfiesTriangleInequality());
  EXPECT_EQ(m.At(0, 2), 100);   // Lowered to the relay path.
  EXPECT_EQ(m.At(0, 1), 40);    // Direct bounds that were already tight hold.
  EXPECT_EQ(m.At(1, 2), 60);
  EXPECT_EQ(m.At(2, 0), 5000);  // Reverse direction has no short relay.
  EXPECT_EQ(m.MinOffDiagonal(), 40);
}

TEST(ShardExecutorTest, DrainOrderIsCanonicalNotArrivalOrder) {
  // Two source domains each post two events at the same virtual time into
  // domain 2. The canonical drain order is (source id, post order), so the
  // destination sequence numbers — and hence its digest — are fixed no
  // matter which source's round finished first on the host.
  constexpr SimDuration kLookahead = 10;
  auto run = [&](int worker_threads) {
    SimDomain d0(0, 3);
    SimDomain d1(1, 3);
    SimDomain d2(2, 3);
    auto order = std::make_shared<std::vector<int>>();
    auto post_two = [order](SimDomain* home, int tag) {
      const SimTime when = AddClamped(home->sim().Now(), kLookahead);
      home->PostRemote(2, when, [order, tag]() { order->push_back(tag); });
      home->PostRemote(2, when, [order, tag]() { order->push_back(tag + 1); });
    };
    d0.sim().ScheduleAt(0, [&d0, post_two]() { post_two(&d0, 100); });
    d1.sim().ScheduleAt(0, [&d1, post_two]() { post_two(&d1, 200); });
    std::vector<SimDomain*> domains = {&d0, &d1, &d2};
    ShardExecutorOptions opts;
    opts.worker_threads = worker_threads;
    opts.lookahead = kLookahead;
    ShardExecutor executor(domains, opts);
    executor.RunToCompletion();
    return *order;
  };

  const std::vector<int> expected = {100, 101, 200, 201};
  EXPECT_EQ(run(1), expected);
  EXPECT_EQ(run(2), expected);
  EXPECT_EQ(run(3), expected);
}

}  // namespace
}  // namespace rpcscope
