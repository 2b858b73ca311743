// Server: the callee side of the RPC stack.
//
// Pipeline per request (Fig. 9): the fabric delivers a frame; an I/O worker
// decrypts/parses it (Server Recv Queue time); the call waits for an
// application worker (also Server Recv Queue); the registered handler runs —
// holding its worker for the full, possibly asynchronous, handler duration —
// (Server Application); the response waits for a transmit worker (Server Send
// Queue), is serialized/compressed/encrypted (Response Proc+Net Stack), and
// returns over the fabric.
//
// Fault semantics (docs/ROBUSTNESS.md): a server can Crash() and Restart().
// Crashing resets every pipeline pool (queued work is dropped), bumps the
// incarnation, and answers each registered in-flight call with UNAVAILABLE —
// the connection-reset a real client observes — so callers fail fast instead
// of hanging. Admission control (ServerOptions::shed_on_deadline) sheds
// requests whose remaining deadline cannot cover the expected app-queue wait.
//
// Every frame the server decodes or encodes is priced under the baseline tax
// profile, the calibrated host pipeline (docs/TAX.md). Offload profiles act
// only in the offline what-if (AnalyzeOffloadWhatIf).
#ifndef RPCSCOPE_SRC_RPC_SERVER_H_
#define RPCSCOPE_SRC_RPC_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/monitor/metrics.h"
#include "src/rpc/call.h"
#include "src/rpc/codec.h"
#include "src/rpc/rpc_system.h"
#include "src/sim/server_resource.h"

namespace rpcscope {

class Server;
class CheckpointWriter;
class CheckpointReader;

// Context handed to method handlers. Handlers must eventually call Finish()
// exactly once; they may first Compute() virtual work or issue child RPCs
// (via a Client bound to this server's machine, linked with trace_id/span_id).
class ServerCall {
 public:
  const Payload& request() const { return request_; }
  MethodId method() const { return method_; }
  MachineId client_machine() const { return client_machine_; }
  MachineId server_machine() const;
  SimTime deadline_time() const { return deadline_time_; }
  TraceId trace_id() const { return trace_id_; }
  SpanId span_id() const { return span_id_; }
  Simulator& sim();
  SimTime Now();

  // Pre-filled CallOptions for a child RPC issued from this handler: links
  // the child span into this trace and propagates the remaining parent
  // deadline so nested work is abandoned the moment the root budget dies.
  CallOptions ChildOptions() const;

  // Performs `duration` of virtual application work, then invokes `then`.
  // The application worker remains held throughout.
  void Compute(SimDuration duration, SimCallback then);

  // Completes the call. Consumes the context's one completion; a second
  // Finish() is a handler bug and fails a CHECK in every build type.
  void Finish(Status status, Payload response);

 private:
  friend class Server;

  struct InflightCall;

  Server* server_ = nullptr;
  Payload request_;
  MethodId method_ = -1;
  MachineId client_machine_ = -1;
  SimTime deadline_time_ = 0;
  TraceId trace_id_ = 0;
  SpanId span_id_ = 0;
  SimTime app_start_ = 0;
  SimDuration recv_queue_ = 0;
  std::shared_ptr<InflightCall> inflight_;
  CycleBreakdown cycles_;
  bool finished_ = false;
  // Self-reference keeping the call alive until its response is on the wire;
  // cleared when the response path completes. A handler that never calls
  // Finish() leaks its call (contract violation).
  std::shared_ptr<ServerCall> self_;
};

// Registered once per method and only called afterwards.
// NOLINTNEXTLINE(rpcscope-function-hotpath)
using MethodHandler = std::function<void(std::shared_ptr<ServerCall> call)>;

// Maps an incoming request to a scheduling priority class (0 = high runs
// first, >0 = low). The default treats all requests equally (FIFO). Set
// once with the server's options.
// NOLINTNEXTLINE(rpcscope-function-hotpath)
using RequestPriorityFn = std::function<int(const IncomingRequest&)>;

struct ServerOptions {
  int app_workers = 8;
  int io_workers = 2;
  RequestPriorityFn request_priority;  // Null => single FIFO class.
  size_t max_app_queue_depth = 0;  // 0 = unbounded.
  size_t max_io_queue_depth = 0;
  // Multiplies handler Compute() durations; models exogenous server slowdown
  // (CPU utilization, memory bandwidth pressure — §3.3.4).
  double app_speed_factor = 1.0;
  // Added to every app-worker grant; models scheduler wake-up delay (the
  // "long wakeup rate" exogenous variable of Table 2).
  SimDuration wakeup_latency = 0;
  // Breakwater-style admission control: reject a request on arrival with
  // RESOURCE_EXHAUSTED when its remaining deadline cannot cover the expected
  // app-queue wait (queue_depth / workers * EWMA of handler time). Shedding
  // on arrival is strictly cheaper than accepting work that will be thrown
  // away at its deadline. Off by default.
  bool shed_on_deadline = false;
};

// RPCSCOPE_CHECKPOINTED(Server::CheckpointTo, Server::RestoreFrom)
class Server {
 public:
  Server(RpcSystem* system, MachineId machine, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void RegisterMethod(MethodId method, std::string name, MethodHandler handler);
  bool HasMethod(MethodId method) const { return handlers_.contains(method); }

  // Entry point used by clients (via the fabric): runs the server pipeline
  // and eventually invokes request.respond exactly once.
  void DeliverRequest(IncomingRequest request);

  // Fault hooks (FaultInjector). Crash() kills the process image: all queued
  // pipeline work is dropped, every registered in-flight call is answered
  // with UNAVAILABLE ("connection reset"), and the incarnation is bumped so
  // stale scheduled work from the previous life becomes a no-op. Restart()
  // brings the server back empty. Both are idempotent.
  void Crash();
  void Restart();
  bool up() const { return up_; }
  uint64_t incarnation() const { return incarnation_; }

  MachineId machine() const { return machine_; }
  RpcSystem& system() { return *system_; }
  // The shard domain this server is pinned to (its machine's shard). The
  // whole pipeline — pools, timers, counters, reply sends — runs here.
  RpcSystem::ShardContext& shard_context() const { return *shard_; }
  double machine_speed() const { return machine_speed_; }
  const ServerOptions& options() const { return options_; }

  // Exogenous-state knobs (adjustable while running).
  void set_app_speed_factor(double f) { options_.app_speed_factor = f; }

  // Utilization accounting.
  double AppUtilization(SimDuration elapsed);
  uint64_t requests_served() const { return requests_served_; }
  uint64_t requests_shed() const { return requests_shed_; }
  uint64_t crash_killed_calls() const { return crash_killed_calls_; }

  // Checkpoint support (docs/ROBUSTNESS.md#checkpointrestore). Valid only at
  // a quiescent barrier: no request may be in flight, so the pipeline pools
  // must be idle and the in-flight registry empty. A *down* server is fine —
  // up_/incarnation_ are part of the state — its restart is re-armed from the
  // fault plan by the epoch driver. Serialize fails with FailedPrecondition
  // when non-quiescent; Restore applies nothing on error.
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  friend class ServerCall;

  using InflightCall = ServerCall::InflightCall;

  void FinishCall(ServerCall* call, Status status, Payload response);

  // All response traffic funnels through here: marks the call responded,
  // drops it from the in-flight registry, and puts the reply on the wire.
  // A call that was already answered (by Crash()) is silently dropped.
  void RespondInflight(const std::shared_ptr<InflightCall>& fl, ServerReply reply,
                       int64_t wire_bytes);
  // Error path: encodes a small error frame and responds.
  void RespondError(const std::shared_ptr<InflightCall>& fl, const CycleBreakdown& cycles,
                    SimDuration recv_queue, Status status);

  void RegisterInflight(const std::shared_ptr<InflightCall>& fl);
  void UnregisterInflight(const std::shared_ptr<InflightCall>& fl);

  RpcSystem* system_;  // NOLINT(detan-checkpoint-field) structural
  MachineId machine_;
  // Owning shard context; declared before the pools so they can bind to its
  // simulator during construction.
  RpcSystem::ShardContext* shard_;  // NOLINT(detan-checkpoint-field) structural
  ServerOptions options_;
  double machine_speed_;
  ServerResource rx_pool_;
  ServerResource app_pool_;
  ServerResource tx_pool_;
  // Reused across every frame this server encodes/decodes; see WireScratch.
  WireScratch scratch_;  // NOLINT(detan-checkpoint-field) contentless scratch
  std::unordered_map<MethodId, MethodHandler> handlers_;
  std::unordered_map<MethodId, std::string> method_names_;
  // Every accepted request, from fabric delivery until its reply (or error)
  // is handed to the fabric. Unordered; erased by index swap in O(1).
  std::vector<std::shared_ptr<InflightCall>> inflight_;
  bool up_ = true;
  uint64_t incarnation_ = 0;
  uint64_t requests_served_ = 0;
  uint64_t requests_shed_ = 0;
  uint64_t crash_killed_calls_ = 0;
  // EWMA of observed handler time, feeding the admission estimate.
  double app_time_ewma_ns_ = 0;
  // Cached registry counters (stable addresses; see RpcSystem::metrics()).
  // Restored through MetricRegistry::Restore, not here.
  Counter* shed_counter_;          // NOLINT(detan-checkpoint-field) structural
  Counter* crash_killed_counter_;  // NOLINT(detan-checkpoint-field) structural
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_RPC_SERVER_H_
