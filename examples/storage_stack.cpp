// A two-tier storage stack: a Bigtable-like tablet server whose handler fans
// out to Network-Disk-like block servers (3-way replicated writes), with
// request hedging on the replica reads.
//
// Demonstrates: nested RPCs with trace propagation, hedging cancellations,
// Dapper-style trace-tree assembly (descendants/ancestors), and the wasted-
// cycle accounting behind the paper's error taxonomy (Fig. 23).
//
//   ./storage_stack
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/stats.h"
#include "src/rpc/client.h"
#include "src/rpc/server.h"
#include "src/trace/tree.h"

using namespace rpcscope;

namespace {

constexpr MethodId kTabletWrite = 1;
constexpr MethodId kBlockWrite = 2;

}  // namespace

int main() {
  RpcSystemOptions options;
  options.seed = 77;
  RpcSystem system(options);
  const Topology& topo = system.topology();

  // --- Tier 2: three block servers (the "Network Disk").
  std::vector<MachineId> block_machines;
  std::vector<std::unique_ptr<Server>> block_servers;
  auto disk_rng = std::make_shared<Rng>(11);
  for (int i = 0; i < 3; ++i) {
    const MachineId machine = topo.MachineAt(0, 10 + i);
    block_machines.push_back(machine);
    auto server = std::make_unique<Server>(&system, machine, ServerOptions{});
    server->RegisterMethod(kBlockWrite, "NetworkDisk/Write",
                           [disk_rng](std::shared_ptr<ServerCall> call) {
                             // SSD write: ~600us, lognormally dispersed.
                             const double us = disk_rng->NextLognormal(std::log(600.0), 0.5);
                             call->Compute(DurationFromMicros(us), [call]() {
                               call->Finish(Status::Ok(), Payload::Modeled(128));
                             });
                           });
    block_servers.push_back(std::move(server));
  }

  // --- Tier 1: the tablet server; its handler replicates to all 3 blocks.
  const MachineId tablet_machine = topo.MachineAt(0, 0);
  Server tablet(&system, tablet_machine, ServerOptions{});
  auto tablet_client = std::make_shared<Client>(&system, tablet_machine);
  tablet.RegisterMethod(
      kTabletWrite, "Bigtable/Write",
      [&, tablet_client](std::shared_ptr<ServerCall> call) {
        auto pending = std::make_shared<int>(3);
        for (int replica = 0; replica < 3; ++replica) {
          CallOptions child;
          child.trace_id = call->trace_id();
          child.parent_span_id = call->span_id();
          // Hedge each replica write against a sibling replica.
          child.hedge_delay = Millis(3);
          child.hedge_target = block_machines[static_cast<size_t>((replica + 1) % 3)];
          tablet_client->Call(block_machines[static_cast<size_t>(replica)], kBlockWrite,
                              Payload::Modeled(32 * 1024, /*ratio=*/1.0), child,
                              [call, pending](const CallResult& result, Payload) {
                                if (!result.status.ok()) {
                                  std::printf("replica write failed: %s\n",
                                              result.status.ToString().c_str());
                                }
                                if (--*pending == 0) {
                                  call->Finish(Status::Ok(), Payload::Modeled(64));
                                }
                              });
        }
      });

  // --- Front-end client issuing tablet writes.
  Client frontend(&system, topo.MachineAt(0, 30));
  std::vector<double> totals_ms;
  for (int i = 0; i < 500; ++i) {
    system.sim().Schedule(Micros(400) * i, [&]() {
      frontend.Call(tablet_machine, kTabletWrite, Payload::Modeled(32 * 1024, 1.0), {},
                    [&](const CallResult& result, Payload) {
                      if (result.status.ok()) {
                        totals_ms.push_back(ToMillis(result.latency.Total()));
                      }
                    });
    });
  }
  system.sim().Run();

  std::printf("tablet writes completed: %zu\n", totals_ms.size());
  std::printf("write latency: median %.2fms  P95 %.2fms  P99 %.2fms\n",
              ExactQuantile(totals_ms, 0.5), ExactQuantile(totals_ms, 0.95),
              ExactQuantile(totals_ms, 0.99));

  // --- Trace-tree view (Dapper): shape of the nested call graph.
  const SpanLog& spans = system.tracer().spans();
  TraceForest forest(std::vector<Span>(spans.begin(), spans.end()));
  int64_t max_descendants = 0;
  int64_t max_depth = 0;
  for (const SpanShape& shape : forest.span_shapes()) {
    max_descendants = std::max(max_descendants, shape.descendants);
    max_depth = std::max(max_depth, shape.ancestors);
  }
  std::printf("traces: %zu, spans: %zu, max descendants: %lld, max depth: %lld\n",
              forest.trace_shapes().size(), spans.size(),
              static_cast<long long>(max_descendants), static_cast<long long>(max_depth));

  // --- Hedging economics: cancelled spans and the cycles they wasted.
  int64_t cancelled = 0;
  for (const Span& span : spans) {
    if (span.status == StatusCode::kCancelled) {
      ++cancelled;
    }
  }
  std::printf("hedge cancellations: %lld spans, wasted cycles at the tablet client: %.0f\n",
              static_cast<long long>(cancelled), tablet_client->wasted_cycles());
  return 0;
}
