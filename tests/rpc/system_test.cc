#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "src/rpc/client.h"
#include "src/rpc/server.h"

namespace rpcscope {
namespace {

TEST(RpcSystemTest, ServerRegistryFollowsLifetime) {
  RpcSystem system(RpcSystemOptions{});
  const MachineId machine = system.topology().MachineAt(0, 0);
  EXPECT_EQ(system.ServerAt(machine), nullptr);
  {
    Server server(&system, machine, ServerOptions{});
    EXPECT_EQ(system.ServerAt(machine), &server);
  }
  // Destruction unregisters.
  EXPECT_EQ(system.ServerAt(machine), nullptr);
}

TEST(RpcSystemTest, HasMethodReflectsRegistration) {
  RpcSystem system(RpcSystemOptions{});
  Server server(&system, system.topology().MachineAt(0, 0), ServerOptions{});
  EXPECT_FALSE(server.HasMethod(1));
  server.RegisterMethod(1, "M", [](std::shared_ptr<ServerCall> call) {
    call->Finish(Status::Ok(), Payload());
  });
  EXPECT_TRUE(server.HasMethod(1));
  EXPECT_FALSE(server.HasMethod(2));
}

TEST(TraceIdsTest, FreshIdsAreUniqueAndNonZero) {
  TraceCollector collector;
  std::unordered_set<TraceId> seen;
  for (int i = 0; i < 20000; ++i) {
    const TraceId id = collector.NewTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << i;
  }
}

TEST(PayloadTest, ModeledAccessors) {
  const Payload p = Payload::Modeled(4096, 0.4);
  EXPECT_FALSE(p.is_real());
  EXPECT_EQ(p.modeled_bytes(), 4096);
  EXPECT_DOUBLE_EQ(p.assumed_ratio(), 0.4);
  EXPECT_EQ(p.SerializedSize(), 4096);
  const Payload empty;
  EXPECT_EQ(empty.SerializedSize(), 0);
}

TEST(PayloadTest, RealAccessors) {
  Message m;
  m.AddVarint(1, 7);
  const Payload p = Payload::Real(std::move(m));
  EXPECT_TRUE(p.is_real());
  EXPECT_GT(p.SerializedSize(), 0);
  EXPECT_EQ(p.message().FindField(1)->varint, 7u);
}

TEST(RpcSystemTest, FullFleetPipelineIsDeterministic) {
  // Two identically-configured systems running identical workloads must
  // produce byte-identical span streams (the reproducibility contract).
  auto run = []() {
    RpcSystemOptions opts;
    opts.seed = 99;
    RpcSystem system(opts);
    Server server(&system, system.topology().MachineAt(0, 0), ServerOptions{});
    auto rng = std::make_shared<Rng>(3);
    server.RegisterMethod(1, "M", [rng](std::shared_ptr<ServerCall> call) {
      call->Compute(DurationFromMicros(rng->NextExponential(200.0)), [call]() {
        call->Finish(Status::Ok(), Payload::Modeled(512));
      });
    });
    Client client(&system, system.topology().MachineAt(0, 1));
    for (int i = 0; i < 200; ++i) {
      system.sim().Schedule(Micros(30) * i, [&]() {
        client.Call(server.machine(), 1, Payload::Modeled(256), {},
                    [](const CallResult&, Payload) {});
      });
    }
    system.sim().Run();
    const SpanLog& spans = system.tracer().spans();
    return std::vector<Span>(spans.begin(), spans.end());
  };
  const std::vector<Span> a = run();
  const std::vector<Span> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].span_id, b[i].span_id);
    EXPECT_EQ(a[i].latency.Total(), b[i].latency.Total());
    EXPECT_EQ(a[i].normalized_cpu_cycles, b[i].normalized_cpu_cycles);
  }
}

}  // namespace
}  // namespace rpcscope
