// Dapper-style spans and the paper's nine-component RPC latency breakdown.
//
// Fig. 9 of the paper decomposes RPC completion time (RCT) into nine stages;
// everything except Server Application is the "RPC latency tax". Every RPC in
// rpcscope — whether executed through the DES stack or emitted by the
// model-driven fleet path — is recorded as a Span carrying this breakdown.
#ifndef RPCSCOPE_SRC_TRACE_SPAN_H_
#define RPCSCOPE_SRC_TRACE_SPAN_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/net/topology.h"

namespace rpcscope {

// The nine latency components of Fig. 9, in pipeline order.
enum class RpcComponent : int32_t {
  kClientSendQueue = 0,
  kRequestProcStack = 1,  // Request RPC processing + network stack.
  kRequestWire = 2,       // Request network wire (propagation + queuing).
  kServerRecvQueue = 3,   // Includes decrypt/parse of the request.
  kServerApp = 4,         // Handler execution, including nested RPC time.
  kServerSendQueue = 5,
  kResponseProcStack = 6,
  kResponseWire = 7,
  kClientRecvQueue = 8,
};

constexpr int kNumRpcComponents = 9;

std::string_view RpcComponentName(RpcComponent c);

// Per-RPC latency breakdown. Components are durations in virtual time.
struct LatencyBreakdown {
  std::array<SimDuration, kNumRpcComponents> components{};

  SimDuration& operator[](RpcComponent c) { return components[static_cast<size_t>(c)]; }
  SimDuration operator[](RpcComponent c) const { return components[static_cast<size_t>(c)]; }

  // RPC completion time: the sum of all components.
  SimDuration Total() const;

  // The RPC latency tax: everything except server application time.
  SimDuration Tax() const;

  // Tax components grouped as in Fig. 10b: network wire, RPC proc + network
  // stack, and queuing.
  SimDuration WireTotal() const;
  SimDuration ProcStackTotal() const;
  SimDuration QueueTotal() const;
};

using TraceId = uint64_t;
using SpanId = uint64_t;

// One RPC invocation as recorded by the tracing service.
// RPCSCOPE_CHECKPOINTED(AppendSpanRecord, SpanReader::Next)
struct Span {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_span_id = 0;  // 0 for root RPCs.
  int32_t method_id = -1;
  int32_t service_id = -1;
  ClusterId client_cluster = -1;
  ClusterId server_cluster = -1;
  SimTime start_time = 0;
  LatencyBreakdown latency;
  StatusCode status = StatusCode::kOk;
  // Serialized (pre-compression) payload sizes — what Fig. 6 measures.
  int64_t request_payload_bytes = 0;
  int64_t response_payload_bytes = 0;
  // On-wire (post-compression, framed) sizes — what Fig. 8b's bytes count.
  int64_t request_wire_bytes = 0;
  int64_t response_wire_bytes = 0;
  // GWP-style cost annotation: normalized CPU cycles consumed by this call
  // (only meaningful when has_cpu_annotation — not all samples carry it,
  // mirroring §4.2's note that not all traces have cost information).
  bool has_cpu_annotation = false;
  double normalized_cpu_cycles = 0;
  // Colocated zero-copy fast path (docs/POLICY.md#colocated-bypass): the call
  // skipped serialization and the wire; avoided_tax_cycles is what the
  // bypassed stages would have cost — the per-span "avoided tax".
  bool colocated = false;
  double avoided_tax_cycles = 0;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_TRACE_SPAN_H_
