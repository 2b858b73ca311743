// Client: the caller side of the RPC stack.
//
// Implements the client pipeline stages (send queue, request proc+stack,
// receive queue, response proc+stack), deadlines, retries on UNAVAILABLE, and
// hedged requests. Every attempt is recorded as a Dapper span; hedge losers
// and post-deadline arrivals are recorded with CANCELLED / DEADLINE_EXCEEDED
// status so the error taxonomy (Fig. 23) and wasted-cycle accounting emerge
// from real mechanics.
//
// Resilience mechanics (docs/ROBUSTNESS.md): retries draw from a token-bucket
// RetryBudget refilled by successes, each attempt can run under a transport
// watchdog that converts lost frames into prompt UNAVAILABLEs, and nested
// calls inherit the remaining parent deadline (CallOptions::
// parent_deadline_time) so work past a dead deadline stops immediately.
//
// The client is the managed policy plane's only reader (docs/POLICY.md):
// Client::Call resolves the shard's current snapshot for the call's service
// on every call. The plane's retry backoff and cap replace the call's; its
// max_retries and attempt_timeout fill only fields the caller left unset.
//
// Every frame the client encodes or decodes is priced under the baseline
// tax profile, the calibrated host pipeline (docs/TAX.md). Offload profiles
// act only in the offline what-if (AnalyzeOffloadWhatIf).
#ifndef RPCSCOPE_SRC_RPC_CLIENT_H_
#define RPCSCOPE_SRC_RPC_CLIENT_H_

#include <cstdint>
#include <memory>

#include "src/monitor/metrics.h"
#include "src/rpc/call.h"
#include "src/rpc/codec.h"
#include "src/rpc/retry_budget.h"
#include "src/rpc/rpc_system.h"
#include "src/sim/server_resource.h"

namespace rpcscope {

class CheckpointWriter;
class CheckpointReader;

struct ClientOptions {
  int tx_workers = 2;
  int rx_workers = 2;
  // Bound on the tx/rx pipeline queues. When set and exceeded the call fails
  // promptly with RESOURCE_EXHAUSTED (span recorded) before any encode
  // cycles are paid; 0 = unbounded.
  size_t max_queue_depth = 0;
  // Application-side response handling performed on the rx pool before the
  // caller's callback runs (deserialization into app structures, bookkeeping).
  // Under high per-client response rates this is what builds the Client Recv
  // Queue component.
  SimDuration rx_processing_overhead = 0;
  // Retry-storm protection (disabled by default; see RetryBudget).
  RetryBudget::Options retry_budget;
  // Colocated zero-copy fast path (docs/POLICY.md#colocated-bypass): calls
  // whose target is this client's own machine skip serialization and the
  // fabric entirely, handing the payload over by shared buffer and charging
  // only the RPC library bookkeeping per side. The bypassed stage costs are
  // recorded on the span as avoided tax. Fixed for the client's lifetime.
  bool colocated_bypass = false;
};

// RPCSCOPE_CHECKPOINTED(Client::CheckpointTo, Client::RestoreFrom)
class Client {
 public:
  Client(RpcSystem* system, MachineId machine, const ClientOptions& options = {});

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Issues an RPC to `method` on the server at `target`. `done` fires exactly
  // once, at completion (success, error, or deadline).
  void Call(MachineId target, MethodId method, Payload request, const CallOptions& options,
            CallCallback done);

  MachineId machine() const { return machine_; }
  RpcSystem& system() const { return *system_; }
  // The shard domain this client is pinned to (its machine's shard). All of
  // the client's timers, pools, spans, and counters live here.
  RpcSystem::ShardContext& shard_context() const { return *shard_; }
  uint64_t calls_issued() const { return calls_issued_; }
  uint64_t calls_completed() const { return calls_completed_; }
  // Cycles burned by attempts whose result was discarded (hedge losers,
  // post-deadline arrivals) — the "wasted cycles" of §4.4.
  double wasted_cycles() const { return wasted_cycles_; }

  // Resilience accounting.
  const RetryBudget& retry_budget() const { return retry_budget_; }
  uint64_t retries_attempted() const { return retries_attempted_; }
  uint64_t retries_suppressed() const { return retries_suppressed_; }
  uint64_t queue_rejections() const { return queue_rejections_; }
  uint64_t attempt_timeouts() const { return attempt_timeouts_; }
  uint64_t dead_on_arrival() const { return dead_on_arrival_; }

  // Colocated-bypass accounting: attempts that took the fast path, and the
  // stack cycles they would have paid had the call gone through the full
  // serialize/wire pipeline (the per-span avoided tax, summed).
  uint64_t colocated_calls() const { return colocated_calls_; }
  double avoided_tax_cycles() const { return avoided_tax_cycles_; }

  // Checkpoint support (docs/ROBUSTNESS.md#checkpointrestore). Valid only at
  // a quiescent barrier: no call may be in flight, so the tx/rx pools must be
  // idle. Serialize fails with FailedPrecondition otherwise; Restore applies
  // nothing on any validation or decode error.
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  struct CallState;
  struct Attempt;

  void StartAttempt(std::shared_ptr<CallState> st, MachineId target);
  // Colocated fast path for an attempt whose target is this machine: no
  // encode, no fabric — the payload is handed to the local server by buffer
  // and only RPC library bookkeeping cycles are charged per side.
  void StartColocatedAttempt(std::shared_ptr<CallState> st, std::shared_ptr<Attempt> att);
  // Fails an attempt from the frame-delivery path (no server / server down).
  // Runs in the *target's* domain: same-domain completes inline (legacy
  // behavior); cross-domain routes the failure back to the client's domain
  // through its mailbox, one minimum wire latency later.
  void FailAttemptFromTarget(std::shared_ptr<CallState> st, std::shared_ptr<Attempt> att,
                             SimDuration request_wire, Status status);
  void OnReply(std::shared_ptr<CallState> st, std::shared_ptr<Attempt> att, ServerReply reply);
  void AttemptFinished(std::shared_ptr<CallState> st, std::shared_ptr<Attempt> att,
                       Status status, Payload response);
  void RecordAttemptSpan(const CallState& st, const Attempt& att, StatusCode code);
  void CountCompletion(StatusCode code);

  RpcSystem* system_;  // NOLINT(detan-checkpoint-field) structural
  MachineId machine_;
  // Owning shard context; declared before the pools so they can bind to its
  // simulator during construction.
  RpcSystem::ShardContext* shard_;  // NOLINT(detan-checkpoint-field) structural
  double machine_speed_;
  ServerResource tx_pool_;
  ServerResource rx_pool_;
  // Seeded from the system seed and the machine id: distinct clients must
  // draw *different* full-jitter backoff sequences or a fleet of them
  // retries in lockstep — the thundering herd jitter exists to break.
  Rng backoff_rng_;
  RetryBudget retry_budget_;
  // Reused across every frame this client encodes/decodes; see WireScratch.
  WireScratch scratch_;  // NOLINT(detan-checkpoint-field) contentless scratch
  SimDuration rx_processing_overhead_ = 0;
  bool colocated_bypass_ = false;
  uint64_t calls_issued_ = 0;
  uint64_t calls_completed_ = 0;
  uint64_t retries_attempted_ = 0;
  uint64_t retries_suppressed_ = 0;
  uint64_t queue_rejections_ = 0;
  uint64_t attempt_timeouts_ = 0;
  uint64_t dead_on_arrival_ = 0;
  uint64_t colocated_calls_ = 0;
  double wasted_cycles_ = 0;
  double avoided_tax_cycles_ = 0;
  // Cached registry counters (stable addresses; see RpcSystem::metrics()).
  // Restored through MetricRegistry::Restore, not here.
  Counter* retries_counter_;          // NOLINT(detan-checkpoint-field) structural
  Counter* retry_exhausted_counter_;  // NOLINT(detan-checkpoint-field) structural
  Counter* queue_rejected_counter_;   // NOLINT(detan-checkpoint-field) structural
  Counter* attempt_timeout_counter_;  // NOLINT(detan-checkpoint-field) structural
  Counter* completions_ok_counter_;   // NOLINT(detan-checkpoint-field) structural
  Counter* completions_err_counter_;  // NOLINT(detan-checkpoint-field) structural
  Counter* colocated_counter_;        // NOLINT(detan-checkpoint-field) structural
  Counter* tax_cycles_counter_;       // NOLINT(detan-checkpoint-field) structural
  Counter* avoided_tax_counter_;      // NOLINT(detan-checkpoint-field) structural
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_RPC_CLIENT_H_
