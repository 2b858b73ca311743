// Client::Call is the managed policy plane's only reader (docs/POLICY.md): a
// service's entry reaches only that service's calls, the plane's retry
// pacing replaces the caller's while its retry count and watchdog fill only
// fields the caller left unset, and a staged snapshot lands on the next call
// after its swap.
#include <gtest/gtest.h>

#include <memory>

#include "src/rpc/client.h"
#include "src/rpc/server.h"

namespace rpcscope {
namespace {

constexpr MethodId kSlow = 1;

class ClientPolicyTest : public ::testing::Test {
 protected:
  // Builds the system under `policy`: one client, a server whose handler
  // runs 5 ms, and a machine with no server, where every attempt fails
  // UNAVAILABLE one wire trip after it is sent.
  void Build(const PolicyTimeline& policy) {
    RpcSystemOptions o;
    o.fabric.congestion_probability = 0;
    o.policy = policy;
    system_ = std::make_unique<RpcSystem>(o);
    server_machine_ = system_->topology().MachineAt(0, 0);
    empty_machine_ = system_->topology().MachineAt(0, 1);
    server_ = std::make_unique<Server>(system_.get(), server_machine_, ServerOptions{});
    server_->RegisterMethod(kSlow, "Slow", [](std::shared_ptr<ServerCall> call) {
      call->Compute(Millis(5), [call]() { call->Finish(Status::Ok(), Payload::Modeled(64)); });
    });
    client_ = std::make_unique<Client>(system_.get(), system_->topology().MachineAt(0, 10));
  }

  // Issues one call, runs the simulation dry, and returns the call's result;
  // `elapsed` receives the time from issue to completion.
  CallResult CallAndRun(MachineId target, const CallOptions& options,
                        SimDuration* elapsed = nullptr) {
    const SimTime issued = system_->sim().Now();
    CallResult got;
    SimTime done_at = 0;
    client_->Call(target, kSlow, Payload::Modeled(64), options,
                  [&](const CallResult& result, Payload) {
                    got = result;
                    done_at = system_->sim().Now();
                  });
    system_->sim().Run();
    if (elapsed != nullptr) {
      *elapsed = done_at - issued;
    }
    return got;
  }

  std::unique_ptr<RpcSystem> system_;
  MachineId server_machine_ = 0;
  MachineId empty_machine_ = 0;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Client> client_;
};

TEST_F(ClientPolicyTest, ServiceOverrideReachesOnlyItsService) {
  // Service 7 gets a 1 ms watchdog, which every 5 ms call trips, and two
  // retries; service 8 has no entry and keeps the library defaults.
  PolicyTimeline policy;
  MethodPolicy tight;
  tight.max_retries = 2;
  tight.attempt_timeout = Millis(1);
  policy.initial.SetOverride(7, tight);
  Build(policy);

  CallOptions svc7;
  svc7.service_id = 7;
  const CallResult scoped = CallAndRun(server_machine_, svc7);
  EXPECT_EQ(scoped.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(scoped.attempts, 3);
  EXPECT_EQ(client_->attempt_timeouts(), 3u);

  CallOptions svc8;
  svc8.service_id = 8;
  const CallResult unscoped = CallAndRun(server_machine_, svc8);
  EXPECT_TRUE(unscoped.status.ok());
  EXPECT_EQ(unscoped.attempts, 1);
  EXPECT_EQ(client_->attempt_timeouts(), 3u);
}

TEST_F(ClientPolicyTest, PlaneOwnsPacingAndFillsOnlyUnsetCounts) {
  PolicyTimeline policy;
  policy.initial.defaults.max_retries = 3;
  policy.initial.defaults.retry_backoff = Micros(10);
  policy.initial.defaults.retry_backoff_cap = Micros(20);
  Build(policy);

  // The caller's retry count beats the plane's, but its 1 s backoff does
  // not: the one retry waits at most the plane's 10 us, so the call ends
  // within a millisecond instead of up to a second later.
  CallOptions caller;
  caller.max_retries = 1;
  caller.retry_backoff = Seconds(1);
  caller.retry_backoff_cap = Seconds(1);
  SimDuration elapsed = 0;
  const CallResult counted = CallAndRun(empty_machine_, caller, &elapsed);
  EXPECT_EQ(counted.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(counted.attempts, 2);
  EXPECT_LT(elapsed, Millis(1));

  // A caller that leaves the count unset takes the plane's three retries.
  const CallResult unset = CallAndRun(empty_machine_, CallOptions{});
  EXPECT_EQ(unset.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unset.attempts, 4);
}

TEST_F(ClientPolicyTest, StagedSwapLandsOnTheNextCall) {
  PolicyTimeline policy;
  PolicySnapshot stage;
  stage.defaults.max_retries = 2;
  policy.AddStage(Millis(10), stage);
  Build(policy);

  EXPECT_EQ(CallAndRun(empty_machine_, CallOptions{}).attempts, 1);
  // Single-domain runs have no round barriers, so the test applies the
  // stage itself, as a barrier would.
  system_->shard(0).policy.ApplyThrough(Millis(10));
  ASSERT_EQ(system_->shard(0).policy.version(), 1u);
  EXPECT_EQ(CallAndRun(empty_machine_, CallOptions{}).attempts, 3);
}

}  // namespace
}  // namespace rpcscope
