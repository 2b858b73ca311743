#include "src/rpc/channel.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/rpc/server.h"

namespace rpcscope {
namespace {

constexpr MethodId kEcho = 1;

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : system_(MakeOptions()) {
    client_ = std::make_unique<Client>(&system_, system_.topology().MachineAt(0, 30));
    // Backends: two local, one in another cluster of the same DC, one remote.
    for (MachineId m : {system_.topology().MachineAt(0, 0), system_.topology().MachineAt(0, 1),
                        system_.topology().MachineAt(1, 0),
                        system_.topology().MachineAt(40, 0)}) {
      backends_.push_back(m);
      auto server = std::make_unique<Server>(&system_, m, ServerOptions{});
      server->RegisterMethod(kEcho, "Echo", [](std::shared_ptr<ServerCall> call) {
        call->Compute(Micros(200), [call]() {
          call->Finish(Status::Ok(), Payload::Modeled(128));
        });
      });
      servers_.push_back(std::move(server));
    }
  }

  static RpcSystemOptions MakeOptions() {
    RpcSystemOptions o;
    o.fabric.congestion_probability = 0;
    return o;
  }

  int CountServed(size_t index) const {
    return static_cast<int>(servers_[index]->requests_served());
  }

  RpcSystem system_;
  std::unique_ptr<Client> client_;
  std::vector<MachineId> backends_;
  std::vector<std::unique_ptr<Server>> servers_;
};

TEST_F(ChannelTest, RoundRobinCyclesThroughBackends) {
  ChannelOptions opts;
  opts.policy = PickPolicy::kRoundRobin;
  Channel channel(client_.get(), "echo", backends_, opts);
  for (int i = 0; i < 8; ++i) {
    channel.Call(kEcho, Payload::Modeled(64), [](const CallResult& r, Payload) {
      EXPECT_TRUE(r.status.ok());
    });
  }
  system_.sim().Run();
  for (size_t s = 0; s < servers_.size(); ++s) {
    EXPECT_EQ(CountServed(s), 2) << s;
  }
}

TEST_F(ChannelTest, NearestPrefersLocalBackend) {
  ChannelOptions opts;
  opts.policy = PickPolicy::kNearest;
  Channel channel(client_.get(), "echo", backends_, opts);
  // The nearest backend is one of the two in the client's cluster.
  const MachineId target = channel.PeekTarget();
  EXPECT_EQ(system_.topology().ClusterOf(target), 0);
  for (int i = 0; i < 16; ++i) {
    channel.Call(kEcho, Payload::Modeled(64), [](const CallResult&, Payload) {});
  }
  system_.sim().Run();
  // The cross-continent backend should see no traffic at low load.
  EXPECT_EQ(CountServed(3), 0);
}

TEST_F(ChannelTest, LeastLoadedTracksOutstanding) {
  ChannelOptions opts;
  opts.policy = PickPolicy::kLeastLoaded;
  Channel channel(client_.get(), "echo", backends_, opts);
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    channel.Call(kEcho, Payload::Modeled(64),
                 [&](const CallResult&, Payload) { ++completed; });
  }
  system_.sim().Run();
  EXPECT_EQ(completed, 64);
  for (size_t b = 0; b < backends_.size(); ++b) {
    EXPECT_EQ(channel.outstanding(b), 0) << b;
  }
  // Power-of-two-choices spreads: no backend starves completely.
  for (size_t s = 0; s < servers_.size(); ++s) {
    EXPECT_GT(CountServed(s), 0) << s;
  }
}

TEST_F(ChannelTest, DefaultsAppliedToCalls) {
  ChannelOptions opts;
  opts.policy = PickPolicy::kRoundRobin;
  opts.default_deadline = Micros(1);  // Impossibly tight.
  Channel channel(client_.get(), "echo", backends_, opts);
  StatusCode got = StatusCode::kOk;
  channel.Call(kEcho, Payload::Modeled(64),
               [&](const CallResult& r, Payload) { got = r.status.code(); });
  system_.sim().Run();
  EXPECT_EQ(got, StatusCode::kDeadlineExceeded);
}

TEST_F(ChannelTest, ChannelHedgingUsesSecondBackend) {
  ChannelOptions opts;
  opts.policy = PickPolicy::kRoundRobin;
  opts.hedge_delay = Micros(10);  // Fires before the 200us handler completes.
  Channel channel(client_.get(), "echo", backends_, opts);
  CallResult got;
  channel.Call(kEcho, Payload::Modeled(64),
               [&](const CallResult& r, Payload) { got = r; });
  system_.sim().Run();
  EXPECT_TRUE(got.status.ok());
  EXPECT_EQ(got.attempts, 2);
}

TEST_F(ChannelTest, SubsettingIsDeterministicPerClient) {
  ChannelOptions opts;
  opts.policy = PickPolicy::kRoundRobin;
  opts.subset_size = 2;
  Channel a(client_.get(), "echo", backends_, opts);
  Channel b(client_.get(), "echo", backends_, opts);
  ASSERT_EQ(a.backends().size(), 2u);
  EXPECT_EQ(a.backends(), b.backends());
  // A client on a different machine gets a (generally) different subset but
  // the same size.
  Client other(&system_, system_.topology().MachineAt(0, 31));
  Channel c(&other, "echo", backends_, opts);
  EXPECT_EQ(c.backends().size(), 2u);
}

TEST_F(ChannelTest, SubsetClientsCoverAllBackendsCollectively) {
  ChannelOptions opts;
  opts.policy = PickPolicy::kRoundRobin;
  opts.subset_size = 2;
  std::set<MachineId> covered;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 16; ++i) {
    clients.push_back(
        std::make_unique<Client>(&system_, system_.topology().MachineAt(2, i)));
    Channel channel(clients.back().get(), "echo", backends_, opts);
    covered.insert(channel.backends().begin(), channel.backends().end());
  }
  EXPECT_EQ(covered.size(), backends_.size());
}

TEST_F(ChannelTest, SubsettingBoundsActualPicks) {
  ChannelOptions opts;
  opts.policy = PickPolicy::kRoundRobin;
  opts.subset_size = 2;
  Channel channel(client_.get(), "echo", backends_, opts);
  ASSERT_EQ(channel.backends().size(), 2u);
  const std::set<MachineId> subset(channel.backends().begin(), channel.backends().end());
  for (int i = 0; i < 20; ++i) {
    channel.Call(kEcho, Payload::Modeled(64), [](const CallResult& r, Payload) {
      EXPECT_TRUE(r.status.ok());
    });
  }
  system_.sim().Run();
  // Every request landed inside the subset; machines outside it saw nothing.
  int total = 0;
  for (size_t s = 0; s < servers_.size(); ++s) {
    total += CountServed(s);
    if (!subset.contains(backends_[s])) {
      EXPECT_EQ(CountServed(s), 0) << s;
    }
  }
  EXPECT_EQ(total, 20);
}

TEST_F(ChannelTest, NearestBreaksRttTiesByBackendOrder) {
  // Cross-cluster base RTT depends only on the cluster pair, so two backends
  // in the same remote cluster are an exact RTT tie from this client. The
  // nearest ordering must break the tie stably by list position: reversing
  // the backend list flips the preferred backend (determinism by config, not
  // by machine id).
  const Topology& topo = system_.topology();
  const MachineId x = topo.MachineAt(1, 3);
  const MachineId y = topo.MachineAt(1, 4);
  ASSERT_EQ(topo.BaseRtt(client_->machine(), x), topo.BaseRtt(client_->machine(), y));
  ChannelOptions opts;
  opts.policy = PickPolicy::kNearest;
  Channel forward(client_.get(), "echo", {x, y}, opts);
  EXPECT_EQ(forward.PeekTarget(), x);
  Channel reversed(client_.get(), "echo", {y, x}, opts);
  EXPECT_EQ(reversed.PeekTarget(), y);
}

TEST_F(ChannelTest, OutstandingReturnsToZeroOnAllOutcomePaths) {
  // Successes, hedge winners/losers, and deadline failures must all hand
  // their outstanding slot back (a leak would skew least-loaded forever).
  ChannelOptions opts;
  opts.policy = PickPolicy::kLeastLoaded;
  opts.hedge_delay = Micros(50);
  opts.default_deadline = Millis(2);
  Channel channel(client_.get(), "echo", backends_, opts);
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    channel.Call(kEcho, Payload::Modeled(64),
                 [&](const CallResult&, Payload) { ++completed; });
  }
  // A burst against a deliberately tight deadline forces failures too.
  ChannelOptions tight = opts;
  tight.default_deadline = Micros(1);
  Channel doomed(client_.get(), "echo", backends_, tight);
  for (int i = 0; i < 10; ++i) {
    doomed.Call(kEcho, Payload::Modeled(64),
                [&](const CallResult& r, Payload) {
                  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
                  ++completed;
                });
  }
  system_.sim().Run();
  EXPECT_EQ(completed, 50);
  for (size_t b = 0; b < backends_.size(); ++b) {
    EXPECT_EQ(channel.outstanding(b), 0) << b;
    EXPECT_EQ(doomed.outstanding(b), 0) << b;
  }
}

TEST_F(ChannelTest, OutlierEjectionEjectsProbesAndReadmits) {
  ChannelOptions opts;
  opts.policy = PickPolicy::kRoundRobin;
  opts.default_deadline = Millis(20);
  opts.outlier.enabled = true;
  opts.outlier.min_samples = 4;
  opts.outlier.failure_rate_threshold = 0.5;
  opts.outlier.base_ejection = Millis(200);
  Channel channel(client_.get(), "echo", backends_, opts);
  // Kill backend 0 up front; bring it back at 150ms (inside the first
  // ejection window, so the first canary probe succeeds).
  servers_[0]->Crash();
  system_.sim().Schedule(Millis(150), [&]() { servers_[0]->Restart(); });
  // Open-loop load, 1 call/ms for 600ms.
  int ok = 0, failed = 0;
  for (int i = 0; i < 600; ++i) {
    system_.sim().Schedule(Millis(1) * i, [&]() {
      channel.Call(kEcho, Payload::Modeled(64), [&](const CallResult& r, Payload) {
        (r.status.ok() ? ok : failed)++;
      });
    });
  }
  uint64_t picks_at_100 = 0, picks_at_180 = 0;
  BackendHealth health_at_100 = BackendHealth::kHealthy;
  system_.sim().Schedule(Millis(100), [&]() {
    picks_at_100 = channel.picks(0);
    health_at_100 = channel.health(0);
  });
  system_.sim().Schedule(Millis(180), [&]() { picks_at_180 = channel.picks(0); });
  system_.sim().Run();
  // Ejected quickly (4+ consecutive UNAVAILABLEs at <=16ms), and frozen: no
  // picks land on the ejected backend inside its window.
  EXPECT_EQ(health_at_100, BackendHealth::kEjected);
  EXPECT_EQ(picks_at_100, picks_at_180);
  EXPECT_GE(channel.ejections(0), 1u);
  // The window expired while the backend was healthy again: exactly one
  // canary probe readmitted it, and it finished the run healthy and serving.
  EXPECT_GE(channel.canary_probes(0), 1u);
  EXPECT_GE(channel.readmissions(0), 1u);
  EXPECT_EQ(channel.health(0), BackendHealth::kHealthy);
  EXPECT_GT(servers_[0]->requests_served(), 0u);
  EXPECT_GT(ok, 500);
  for (size_t b = 0; b < backends_.size(); ++b) {
    EXPECT_EQ(channel.outstanding(b), 0) << b;
  }
}

TEST_F(ChannelTest, GraySlowBackendEjectedByLatencyThreshold) {
  ChannelOptions opts;
  opts.policy = PickPolicy::kRoundRobin;
  opts.outlier.enabled = true;
  opts.outlier.min_samples = 4;
  opts.outlier.failure_rate_threshold = 0.5;
  opts.outlier.latency_threshold = Millis(2);  // 200us echo is far below.
  opts.outlier.base_ejection = Millis(100);
  // Only the near backends: the cross-continent one is *legitimately* slower
  // than the threshold and would (correctly) be ejected too.
  const std::vector<MachineId> near(backends_.begin(), backends_.begin() + 3);
  Channel channel(client_.get(), "echo", near, opts);
  // Backend 0 keeps answering, but 50x slower: a health check would pass,
  // the latency-outlier rule must not.
  servers_[0]->set_app_speed_factor(50.0);
  for (int i = 0; i < 100; ++i) {
    system_.sim().Schedule(Millis(1) * i, [&]() {
      channel.Call(kEcho, Payload::Modeled(64), [](const CallResult&, Payload) {});
    });
  }
  system_.sim().Run();
  EXPECT_GE(channel.ejections(0), 1u);
  for (size_t b = 1; b < near.size(); ++b) {
    EXPECT_EQ(channel.ejections(b), 0u) << b;
  }
}

TEST_F(ChannelTest, SubsetEjectionHedgingInterplay) {
  // The three features compose: with a 2-backend subset, an ejected subset
  // member must not starve picks (the survivor absorbs them), hedges and
  // retries must stay inside the subset, and the ejected member must be
  // readmitted once it recovers — all without touching non-subset machines.
  ChannelOptions opts;
  opts.policy = PickPolicy::kRoundRobin;
  opts.subset_size = 2;
  opts.hedge_delay = Micros(10);
  opts.default_deadline = Millis(20);
  opts.outlier.enabled = true;
  opts.outlier.min_samples = 4;
  opts.outlier.failure_rate_threshold = 0.5;
  opts.outlier.base_ejection = Millis(100);
  // Near backends only: the cross-continent one cannot meet the 20ms
  // deadline, so a subset that kept it as sole survivor would conflate
  // deadline failures with the ejection behavior under test.
  const std::vector<MachineId> near(backends_.begin(), backends_.begin() + 3);
  Channel channel(client_.get(), "echo", near, opts);
  ASSERT_EQ(channel.backends().size(), 2u);
  const std::set<MachineId> subset(channel.backends().begin(), channel.backends().end());

  // Crash the subset's first member; bring it back inside the first ejection
  // window so the canary probe after expiry succeeds.
  const MachineId victim = channel.backends()[0];
  size_t victim_full = 0;
  for (size_t s = 0; s < near.size(); ++s) {
    if (backends_[s] == victim) {
      victim_full = s;
    }
  }
  servers_[victim_full]->Crash();
  system_.sim().Schedule(Millis(60), [&]() { servers_[victim_full]->Restart(); });

  int ok = 0, failed = 0;
  for (int i = 0; i < 400; ++i) {
    system_.sim().Schedule(Millis(1) * i, [&]() {
      channel.Call(kEcho, Payload::Modeled(64), [&](const CallResult& r, Payload) {
        (r.status.ok() ? ok : failed)++;
      });
    });
  }
  system_.sim().Run();

  // Ejected inside the subset, then readmitted and healthy by the end.
  EXPECT_GE(channel.ejections(0), 1u);
  EXPECT_GE(channel.readmissions(0), 1u);
  EXPECT_EQ(channel.health(0), BackendHealth::kHealthy);
  EXPECT_GT(servers_[victim_full]->requests_served(), 0u);
  // No starvation: hedges rescue the picks that landed on the dead member,
  // so nearly everything still succeeds.
  EXPECT_GT(ok, 380);
  // Neither primary picks, hedges, nor canaries ever left the subset.
  for (size_t s = 0; s < servers_.size(); ++s) {
    if (!subset.contains(backends_[s])) {
      EXPECT_EQ(CountServed(s), 0) << s;
    }
  }
  EXPECT_EQ(CountServed(3), 0);  // Not even configured on this channel.
  for (size_t b = 0; b < channel.backends().size(); ++b) {
    EXPECT_EQ(channel.outstanding(b), 0) << b;
  }
}

TEST_F(ChannelTest, RetryBackoffIsJitteredExponential) {
  // Call an empty machine with retries; measure total time across attempts.
  CallOptions opts;
  opts.max_retries = 4;
  opts.retry_backoff = Millis(10);
  opts.retry_backoff_cap = Millis(40);
  const MachineId empty = system_.topology().MachineAt(3, 0);
  CallResult got;
  SimTime done_at = 0;
  client_->Call(empty, kEcho, Payload::Modeled(64), opts,
                [&](const CallResult& r, Payload) {
                  got = r;
                  done_at = system_.sim().Now();
                });
  system_.sim().Run();
  EXPECT_EQ(got.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(got.attempts, 5);
  // Backoffs are jittered in (0, ceiling): total below the sum of ceilings
  // (10+20+40+40 = 110ms) plus wire time, and above zero.
  EXPECT_GT(done_at, Millis(1));
  EXPECT_LT(done_at, Millis(130));
}

}  // namespace
}  // namespace rpcscope
