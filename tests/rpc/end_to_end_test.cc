// End-to-end tests of the RPC stack: a real client and server exchanging
// encoded payloads over the simulated fabric.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/rpc/client.h"
#include "src/rpc/server.h"
#include "src/rpc/stage_model.h"

namespace rpcscope {
namespace {

constexpr MethodId kEcho = 1;
constexpr MethodId kFail = 2;
constexpr MethodId kSlow = 3;

class EndToEndTest : public ::testing::Test {
 protected:
  EndToEndTest() : system_(MakeOptions()) {
    server_machine_ = system_.topology().MachineAt(0, 0);
    client_machine_ = system_.topology().MachineAt(0, 10);
    hedge_machine_ = system_.topology().MachineAt(0, 1);
    server_ = std::make_unique<Server>(&system_, server_machine_, ServerOptions{});
    hedge_server_ = std::make_unique<Server>(&system_, hedge_machine_, ServerOptions{});
    client_ = std::make_unique<Client>(&system_, client_machine_);
    for (Server* s : {server_.get(), hedge_server_.get()}) {
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
      s->RegisterMethod(kSlow, "Slow", [](std::shared_ptr<ServerCall> call) {
        call->Compute(Millis(500), [call]() {
          call->Finish(Status::Ok(), Payload::Modeled(128));
        });
      });
    }
  }

  static RpcSystemOptions MakeOptions() {
    RpcSystemOptions o;
    o.fabric.congestion_probability = 0;  // Deterministic wire for tests.
    return o;
  }

  RpcSystem system_;
  MachineId server_machine_ = 0;
  MachineId client_machine_ = 0;
  MachineId hedge_machine_ = 0;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Server> hedge_server_;
  std::unique_ptr<Client> client_;
};

TEST_F(EndToEndTest, RealPayloadRoundTrip) {
  Rng rng(1);
  Message req = Message::GeneratePayload(rng, 1024, 0.5);
  const size_t req_fields = req.field_count();
  bool done = false;
  client_->Call(server_machine_, kEcho, Payload::Real(std::move(req)), {},
                [&](const CallResult& result, Payload response) {
                  done = true;
                  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
                  ASSERT_TRUE(response.is_real());
                  const Message::Field* f = response.message().FindField(2);
                  ASSERT_NE(f, nullptr);
                  EXPECT_EQ(f->varint, req_fields);
                });
  system_.sim().Run();
  EXPECT_TRUE(done);
}

TEST_F(EndToEndTest, BreakdownComponentsAllPopulated) {
  CallResult got;
  client_->Call(server_machine_, kEcho, Payload::Modeled(2048), {},
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  ASSERT_TRUE(got.status.ok());
  // Every pipeline stage except queues (uncontended here) takes nonzero time.
  EXPECT_GT(got.latency[RpcComponent::kRequestProcStack], 0);
  EXPECT_GT(got.latency[RpcComponent::kRequestWire], 0);
  EXPECT_GT(got.latency[RpcComponent::kServerApp], Micros(190));
  EXPECT_GT(got.latency[RpcComponent::kResponseProcStack], 0);
  EXPECT_GT(got.latency[RpcComponent::kResponseWire], 0);
  EXPECT_GT(got.latency.Total(), 0);
  EXPECT_EQ(got.latency.Tax(), got.latency.Total() - got.latency[RpcComponent::kServerApp]);
  EXPECT_EQ(got.attempts, 1);
}

TEST_F(EndToEndTest, CyclesAccountedOnBothSides) {
  CallResult got;
  client_->Call(server_machine_, kEcho, Payload::Modeled(4096), {},
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  ASSERT_TRUE(got.status.ok());
  EXPECT_GT(got.cycles[CycleCategory::kSerialization], 0);
  EXPECT_GT(got.cycles[CycleCategory::kCompression], 0);
  EXPECT_GT(got.cycles[CycleCategory::kNetworking], 0);
  EXPECT_GT(got.cycles[CycleCategory::kRpcLibrary], 0);
  EXPECT_GT(got.cycles[CycleCategory::kApplication], 0);
  EXPECT_GT(got.cycles.Total(), got.cycles.TaxTotal());

  // The DES has one pricing path: each of the four message sides is the
  // baseline profile's MessageCost. Every tax category of the call equals
  // the four sides summed in the order the endpoints add them: client send,
  // then the server's receive plus send, then client receive.
  ASSERT_EQ(system_.tracer().spans().size(), 1u);
  const Span& span = system_.tracer().spans().front();
  EXPECT_EQ(span.request_wire_bytes, got.request_wire_bytes);
  EXPECT_EQ(span.response_wire_bytes, got.response_wire_bytes);
  const CycleCostModel& costs = system_.costs();
  auto side = [&](int64_t payload_bytes, int64_t wire_bytes, bool send) {
    const StageCostInput in{.payload_bytes = payload_bytes, .wire_bytes = wire_bytes, .send = send};
    return BaselineProfile().MessageCost(costs, in).host;
  };
  const CycleBreakdown client_send =
      side(span.request_payload_bytes, span.request_wire_bytes, true);
  const CycleBreakdown server_recv =
      side(span.request_payload_bytes, span.request_wire_bytes, false);
  const CycleBreakdown server_send =
      side(span.response_payload_bytes, span.response_wire_bytes, true);
  const CycleBreakdown client_recv =
      side(span.response_payload_bytes, span.response_wire_bytes, false);
  for (int i = 0; i < kNumTaxCategories; ++i) {
    const auto cat = static_cast<CycleCategory>(i);
    EXPECT_EQ(got.cycles[cat],
              client_send[cat] + (server_recv[cat] + server_send[cat]) + client_recv[cat])
        << CycleCategoryName(cat);
  }
}

TEST_F(EndToEndTest, ServerErrorPropagates) {
  CallResult got;
  client_->Call(server_machine_, kFail, Payload::Modeled(128), {},
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  EXPECT_EQ(got.status.code(), StatusCode::kNotFound);
}

TEST_F(EndToEndTest, UnknownMethodIsUnimplemented) {
  CallResult got;
  client_->Call(server_machine_, 999, Payload::Modeled(128), {},
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  EXPECT_EQ(got.status.code(), StatusCode::kUnimplemented);
}

TEST_F(EndToEndTest, NoServerIsUnavailable) {
  CallResult got;
  const MachineId empty = system_.topology().MachineAt(1, 0);
  client_->Call(empty, kEcho, Payload::Modeled(128), {},
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  EXPECT_EQ(got.status.code(), StatusCode::kUnavailable);
}

TEST_F(EndToEndTest, RetryOnUnavailableEventuallyFails) {
  CallOptions opts;
  opts.max_retries = 2;
  CallResult got;
  const MachineId empty = system_.topology().MachineAt(1, 0);
  client_->Call(empty, kEcho, Payload::Modeled(128), opts,
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  EXPECT_EQ(got.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(got.attempts, 3);
  // Every attempt recorded a span.
  int unavailable_spans = 0;
  for (const Span& s : system_.tracer().spans()) {
    if (s.status == StatusCode::kUnavailable) {
      ++unavailable_spans;
    }
  }
  EXPECT_EQ(unavailable_spans, 3);
}

TEST_F(EndToEndTest, DeadlineExceededFiresBeforeSlowResponse) {
  CallOptions opts;
  opts.deadline = Millis(50);
  CallResult got;
  client_->Call(server_machine_, kSlow, Payload::Modeled(128), opts,
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  EXPECT_EQ(got.status.code(), StatusCode::kDeadlineExceeded);
  // The server's late reply is recorded as a DEADLINE_EXCEEDED span and its
  // cycles count as wasted.
  bool found = false;
  for (const Span& s : system_.tracer().spans()) {
    if (s.status == StatusCode::kDeadlineExceeded) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GT(client_->wasted_cycles(), 0);
}

TEST_F(EndToEndTest, HedgingCancelsLoser) {
  CallOptions opts;
  opts.hedge_delay = Micros(50);  // Fires well before the 500ms handler ends.
  opts.hedge_target = hedge_machine_;
  CallResult got;
  client_->Call(server_machine_, kSlow, Payload::Modeled(128), opts,
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  EXPECT_TRUE(got.status.ok());
  EXPECT_EQ(got.attempts, 2);
  int cancelled = 0, ok = 0;
  for (const Span& s : system_.tracer().spans()) {
    if (s.status == StatusCode::kCancelled) {
      ++cancelled;
    } else if (s.status == StatusCode::kOk) {
      ++ok;
    }
  }
  EXPECT_EQ(cancelled, 1);
  EXPECT_EQ(ok, 1);
  EXPECT_GT(client_->wasted_cycles(), 0);
}

TEST_F(EndToEndTest, QueueingEmergesUnderBurstLoad) {
  // Fire 64 simultaneous calls at a server with 8 app workers: later calls
  // must observe server queueing.
  ServerOptions tight;
  tight.app_workers = 2;
  Server burst_server(&system_, system_.topology().MachineAt(2, 0), tight);
  burst_server.RegisterMethod(kSlow, "Slow", [](std::shared_ptr<ServerCall> call) {
    call->Compute(Millis(5), [call]() { call->Finish(Status::Ok(), Payload::Modeled(64)); });
  });
  SimDuration max_queue = 0;
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    client_->Call(system_.topology().MachineAt(2, 0), kSlow, Payload::Modeled(64), {},
                  [&](const CallResult& result, Payload) {
                    ++completed;
                    max_queue = std::max(max_queue,
                                         result.latency[RpcComponent::kServerRecvQueue]);
                  });
  }
  system_.sim().Run();
  EXPECT_EQ(completed, 64);
  // 64 jobs x 5ms on 2 workers: the last job waits on the order of 150ms.
  EXPECT_GT(max_queue, Millis(100));
}

TEST_F(EndToEndTest, SpansCarryTraceLinkage) {
  CallOptions opts;
  opts.trace_id = 0xfeed;
  opts.parent_span_id = 0x1234;
  opts.service_id = 7;
  client_->Call(server_machine_, kEcho, Payload::Modeled(64), opts,
                [](const CallResult&, Payload) {});
  system_.sim().Run();
  ASSERT_FALSE(system_.tracer().spans().empty());
  const Span& span = system_.tracer().spans().back();
  EXPECT_EQ(span.trace_id, 0xfeedu);
  EXPECT_EQ(span.parent_span_id, 0x1234u);
  EXPECT_EQ(span.service_id, 7);
  EXPECT_EQ(span.client_cluster, 0);
  EXPECT_EQ(span.server_cluster, 0);
  EXPECT_GT(span.request_wire_bytes, 0);
  EXPECT_GT(span.response_wire_bytes, 0);
}

TEST_F(EndToEndTest, NestedCallFromHandler) {
  // A handler that fans out to a child RPC on another server.
  const MachineId leaf_machine = system_.topology().MachineAt(3, 0);
  Server leaf(&system_, leaf_machine, ServerOptions{});
  leaf.RegisterMethod(kEcho, "Leaf", [](std::shared_ptr<ServerCall> call) {
    call->Compute(Micros(100), [call]() {
      call->Finish(Status::Ok(), Payload::Modeled(64));
    });
  });
  const MachineId mid_machine = system_.topology().MachineAt(3, 1);
  Server mid(&system_, mid_machine, ServerOptions{});
  auto mid_client = std::make_shared<Client>(&system_, mid_machine);
  mid.RegisterMethod(kEcho, "Mid", [&, mid_client](std::shared_ptr<ServerCall> call) {
    CallOptions child_opts;
    child_opts.trace_id = call->trace_id();
    child_opts.parent_span_id = call->span_id();
    mid_client->Call(leaf_machine, kEcho, Payload::Modeled(64), child_opts,
                     [call](const CallResult& child, Payload) {
                       EXPECT_TRUE(child.status.ok());
                       call->Finish(Status::Ok(), Payload::Modeled(64));
                     });
  });

  CallResult got;
  client_->Call(mid_machine, kEcho, Payload::Modeled(64), {},
                [&](const CallResult& result, Payload) { got = result; });
  system_.sim().Run();
  ASSERT_TRUE(got.status.ok());
  // The parent's application time includes the nested call's full latency.
  SimDuration child_total = 0;
  for (const Span& s : system_.tracer().spans()) {
    if (s.parent_span_id != 0) {
      child_total = s.latency.Total();
    }
  }
  EXPECT_GT(child_total, 0);
  EXPECT_GE(got.latency[RpcComponent::kServerApp], child_total);
}

// A handler that finishes its call twice would release its app worker twice:
// the pool would then admit one handler more than it has workers, and
// requests_served() would count the call twice. A second call stays inside
// its handler throughout, so the double release cannot trip the pool's own
// busy-worker check; the server's check must catch the second Finish.
TEST(ServerDeathTest, FinishingACallTwiceFails) {
  constexpr MethodId kHold = 10;
  constexpr MethodId kTwice = 11;
  auto run = [] {
    RpcSystemOptions options;
    options.fabric.congestion_probability = 0;
    RpcSystem system(options);
    const MachineId server_machine = system.topology().MachineAt(0, 0);
    Server server(&system, server_machine, ServerOptions{});
    Client client(&system, system.topology().MachineAt(0, 1));
    std::vector<std::shared_ptr<ServerCall>> held;
    server.RegisterMethod(kHold, "Hold", [&](std::shared_ptr<ServerCall> call) {
      held.push_back(std::move(call));
      // Issued only once this call holds its worker.
      client.Call(server_machine, kTwice, Payload::Modeled(64), {},
                  [](const CallResult&, Payload) {});
    });
    server.RegisterMethod(kTwice, "Twice", [](std::shared_ptr<ServerCall> call) {
      call->Finish(Status::Ok(), Payload::Modeled(64));
      call->Finish(Status::Ok(), Payload::Modeled(64));
    });
    client.Call(server_machine, kHold, Payload::Modeled(64), {},
                [](const CallResult&, Payload) {});
    system.sim().Run();
  };
  EXPECT_DEATH(run(), "finished its call twice");
}

}  // namespace
}  // namespace rpcscope
