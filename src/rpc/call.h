// Shared client/server call types: options, results, and the server reply
// envelope that carries the server-side latency phases back to the client.
#ifndef RPCSCOPE_SRC_RPC_CALL_H_
#define RPCSCOPE_SRC_RPC_CALL_H_

#include <cstdint>
#include <functional>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/net/topology.h"
#include "src/rpc/codec.h"
#include "src/rpc/cost_model.h"
#include "src/rpc/payload.h"
#include "src/sim/callback.h"
#include "src/trace/span.h"

namespace rpcscope {

using MethodId = int32_t;

struct CallOptions {
  // Absolute budget for the call from issue time; 0 disables the deadline.
  SimDuration deadline = 0;

  // Request hedging (§4.4 attributes most Cancelled errors to hedging): if no
  // response arrives within hedge_delay, a second attempt is sent to
  // hedge_target; the first response wins and the loser is cancelled.
  SimDuration hedge_delay = 0;  // 0 disables hedging.
  MachineId hedge_target = -1;

  // Retries on UNAVAILABLE (e.g. no server at the target machine): truncated
  // exponential backoff with full jitter — attempt k waits
  // U(0, min(retry_backoff * 2^k, retry_backoff_cap)). Retries additionally
  // draw from the client's retry budget when one is configured
  // (ClientOptions::retry_budget), so a dead backend cannot trigger a
  // fleet-wide retry storm.
  int max_retries = 0;
  SimDuration retry_backoff = Millis(5);
  SimDuration retry_backoff_cap = Seconds(2);

  // Per-attempt transport watchdog: if an attempt has produced no reply
  // after this long (frame lost to a partition / packet loss, or a server
  // that died without a reset), the attempt fails with UNAVAILABLE so
  // retries and hedges can proceed instead of the call hanging until its
  // deadline (or forever). 0 disables the watchdog.
  SimDuration attempt_timeout = 0;

  // Deadline propagation: absolute deadline inherited from the parent call.
  // The effective deadline is clamped so this call never outlives the
  // parent's remaining budget; a call issued after the parent's deadline
  // fails immediately without burning downstream cycles. 0 = no parent
  // budget. ServerCall::ChildOptions() fills this in for nested calls.
  SimTime parent_deadline_time = 0;

  // Trace linkage; zero trace_id starts a new root trace.
  TraceId trace_id = 0;
  SpanId parent_span_id = 0;

  // Service the target method belongs to (recorded on spans; -1 = unknown).
  int32_t service_id = -1;

  // Per-attempt outcome observer, invoked once per attempt as its span is
  // recorded, with the attempt's own target, status, and latency. Channel
  // sets this for outlier ejection: the *call* outcome can't attribute health
  // (a hedge that rescues a call must not launder the primary backend's
  // failure into a success sample). Hedge losers report kCancelled. Copied
  // with the options and set only by Channel, so it stays a std::function.
  // NOLINTNEXTLINE(rpcscope-function-hotpath)
  std::function<void(MachineId target, StatusCode code, SimDuration latency)>
      attempt_observer;
};

struct CallResult {
  Status status;
  LatencyBreakdown latency;
  CycleBreakdown cycles;  // Client + server stack cycles plus application cycles.
  int64_t request_wire_bytes = 0;
  int64_t response_wire_bytes = 0;
  int attempts = 0;
  TraceId trace_id = 0;
  SpanId span_id = 0;  // Span of the winning attempt.
};

using CallCallback = SimFunction<void(const CallResult& result, Payload response)>;

// Server-side phase durations reported back with every reply. The response
// travels as an encoded WireFrame; the client decodes it on its receive path.
struct ServerReply {
  Status status;
  WireFrame response_frame;
  SimDuration recv_queue = 0;  // rx processing + wait for an app worker.
  SimDuration app_time = 0;
  SimDuration send_queue = 0;
  SimDuration resp_proc = 0;  // Server-side share of response proc+stack.
  SimDuration resp_wire = 0;
  // Echo of IncomingRequest::request_wire: the request's one-way wire latency
  // rides along with the reply so the client's attempt record is written only
  // in the client's own shard domain (never from the server's).
  SimDuration request_wire = 0;
  CycleBreakdown server_cycles;
  // Colocated fast path (docs/POLICY.md#colocated-bypass): the response was
  // never encoded — local_response is the handler's payload handed back by
  // buffer, response_frame carries only the byte accounting (wire_bytes 0).
  bool colocated = false;
  Payload local_response;
};

using ServerResponder = SimFunction<void(ServerReply reply)>;

// A request as delivered to a server by the fabric (still encoded; the
// server's receive pipeline decodes it).
struct IncomingRequest {
  MethodId method = -1;
  WireFrame request_frame;
  MachineId client_machine = -1;
  SimTime deadline_time = 0;  // Absolute; 0 = none.
  TraceId trace_id = 0;
  SpanId span_id = 0;
  // One-way wire latency the request experienced; echoed back on the reply
  // (ServerReply::request_wire) for cross-domain-safe latency accounting.
  SimDuration request_wire = 0;
  // Colocated fast path: caller and callee share a MachineId, the request was
  // never encoded — local_payload is the request handed over by buffer and
  // request_frame carries only byte accounting (wire_bytes 0, crc unused).
  bool colocated = false;
  Payload local_payload;
  ServerResponder respond;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_RPC_CALL_H_
