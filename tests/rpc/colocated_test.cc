// Colocated zero-copy fast path (docs/POLICY.md#colocated-bypass): calls
// whose target resolves to the caller's own machine skip serialization and
// the wire, hand the payload over by buffer, and record what the bypassed
// stages would have cost as per-span avoided tax.
#include <gtest/gtest.h>

#include <memory>

#include "src/rpc/client.h"
#include "src/rpc/server.h"

namespace rpcscope {
namespace {

constexpr MethodId kEcho = 1;
constexpr MethodId kFail = 2;

class ColocatedTest : public ::testing::Test {
 protected:
  ColocatedTest() : system_(MakeOptions()) {
    local_machine_ = system_.topology().MachineAt(0, 0);
    remote_machine_ = system_.topology().MachineAt(0, 1);
    local_server_ = std::make_unique<Server>(&system_, local_machine_, ServerOptions{});
    remote_server_ = std::make_unique<Server>(&system_, remote_machine_, ServerOptions{});
    ClientOptions copts;
    copts.colocated_bypass = true;
    client_ = std::make_unique<Client>(&system_, local_machine_, copts);
    for (Server* s : {local_server_.get(), remote_server_.get()}) {
      s->RegisterMethod(kEcho, "Echo", [](std::shared_ptr<ServerCall> call) {
        call->Compute(Micros(200), [call]() {
          Message resp;
          resp.AddVarint(1, 99);
          if (call->request().is_real()) {
            resp.AddVarint(2, call->request().message().field_count());
          }
          call->Finish(Status::Ok(), Payload::Real(std::move(resp)));
        });
      });
      s->RegisterMethod(kFail, "Fail", [](std::shared_ptr<ServerCall> call) {
        call->Finish(NotFoundError("nope"), Payload::Modeled(64));
      });
    }
  }

  static RpcSystemOptions MakeOptions() {
    RpcSystemOptions o;
    o.fabric.congestion_probability = 0;
    return o;
  }

  RpcSystem system_;
  MachineId local_machine_ = 0;
  MachineId remote_machine_ = 0;
  std::unique_ptr<Server> local_server_;
  std::unique_ptr<Server> remote_server_;
  std::unique_ptr<Client> client_;
};

TEST_F(ColocatedTest, ColocatedCallSkipsSerializationAndWire) {
  CallResult got;
  client_->Call(local_machine_, kEcho, Payload::Modeled(2048), {},
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();

  // No wire stages in the latency breakdown: the hand-off is by buffer.
  EXPECT_EQ(got.latency[RpcComponent::kRequestWire], 0);
  EXPECT_EQ(got.latency[RpcComponent::kResponseWire], 0);
  // The server still did real application work.
  EXPECT_GT(got.latency[RpcComponent::kServerApp], Micros(190));

  ASSERT_EQ(system_.tracer().spans().size(), 1u);
  const Span& span = system_.tracer().spans().back();
  EXPECT_TRUE(span.colocated);
  EXPECT_EQ(span.request_wire_bytes, 0);
  EXPECT_EQ(span.response_wire_bytes, 0);
  // The bypassed serialize/compress/checksum/wire work is surfaced as
  // avoided tax, not silently dropped.
  EXPECT_GT(span.avoided_tax_cycles, 0);

  EXPECT_EQ(client_->colocated_calls(), 1u);
  EXPECT_GT(client_->avoided_tax_cycles(), 0);
  EXPECT_GT(system_.metrics().GetCounter("client.avoided_tax_cycles").value(), 0);
  EXPECT_EQ(system_.metrics().GetCounter("client.colocated_calls").value(), 1);
}

TEST_F(ColocatedTest, ColocatedChargesLessTaxThanWire) {
  CallResult local;
  CallResult remote;
  client_->Call(local_machine_, kEcho, Payload::Modeled(2048), {},
                [&](const CallResult& result, Payload) { local = result; });
  client_->Call(remote_machine_, kEcho, Payload::Modeled(2048), {},
                [&](const CallResult& result, Payload) { remote = result; });
  system_.sim().Run();
  ASSERT_TRUE(local.status.ok());
  ASSERT_TRUE(remote.status.ok());
  // The colocated attempt pays only the fixed library hand-off on each side;
  // the wire attempt pays serialization, compression, checksum, networking.
  EXPECT_LT(local.cycles.TaxTotal(), remote.cycles.TaxTotal());
  EXPECT_EQ(local.cycles[CycleCategory::kSerialization], 0);
  EXPECT_EQ(local.cycles[CycleCategory::kNetworking], 0);
  EXPECT_GT(remote.cycles[CycleCategory::kSerialization], 0);
}

TEST_F(ColocatedTest, RemoteTargetStillUsesWire) {
  CallResult got;
  client_->Call(remote_machine_, kEcho, Payload::Modeled(1024), {},
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  ASSERT_TRUE(got.status.ok());
  EXPECT_GT(got.latency[RpcComponent::kRequestWire], 0);
  ASSERT_EQ(system_.tracer().spans().size(), 1u);
  const Span& span = system_.tracer().spans().back();
  EXPECT_FALSE(span.colocated);
  EXPECT_GT(span.request_wire_bytes, 0);
  EXPECT_GT(span.response_wire_bytes, 0);
  EXPECT_EQ(span.avoided_tax_cycles, 0);
  EXPECT_EQ(client_->colocated_calls(), 0u);
}

TEST_F(ColocatedTest, RealPayloadHandedOverByBuffer) {
  Rng rng(1);
  Message req = Message::GeneratePayload(rng, 1024, 0.5);
  const size_t req_fields = req.field_count();
  bool done = false;
  client_->Call(local_machine_, kEcho, Payload::Real(std::move(req)), {},
                [&](const CallResult& result, Payload response) {
                  done = true;
                  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
                  // The handler saw the real message (no encode/decode in
                  // between) and its real response came back the same way.
                  ASSERT_TRUE(response.is_real());
                  const Message::Field* f = response.message().FindField(2);
                  ASSERT_NE(f, nullptr);
                  EXPECT_EQ(f->varint, req_fields);
                });
  system_.sim().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(client_->colocated_calls(), 1u);
}

TEST_F(ColocatedTest, ErrorsPropagateOnTheFastPath) {
  CallResult got;
  client_->Call(local_machine_, kFail, Payload::Modeled(128), {},
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  EXPECT_EQ(got.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(client_->colocated_calls(), 1u);
}

}  // namespace
}  // namespace rpcscope
