#include "src/rpc/client.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/rpc/codec.h"
#include "src/rpc/server.h"
#include "src/rpc/stage_model.h"

namespace rpcscope {

namespace {

// Stack cycles one message direction would have cost through the host
// pipeline's send and receive sides, minus the RPC library bookkeeping the
// colocated fast path still charges on both — the per-direction "avoided
// tax" recorded on bypassed spans.
double AvoidedDirectionTax(const CycleCostModel& costs, int64_t payload_bytes,
                           int64_t wire_bytes) {
  const TaxProfile& host = BaselineProfile();
  StageCostInput in{.payload_bytes = payload_bytes, .wire_bytes = wire_bytes, .send = true};
  const double send = host.MessageCost(costs, in).host.TaxTotal();
  in.send = false;
  const double full = send + host.MessageCost(costs, in).host.TaxTotal();
  return full - 2 * costs.rpclib_fixed_per_side;
}

}  // namespace

struct Client::CallState {
  CallOptions options;
  CallCallback done;
  MachineId primary_target = -1;
  MethodId method = -1;
  Payload request;
  TraceId trace_id = 0;
  SimTime issue_time = 0;
  bool completed = false;
  StatusCode completion_reason = StatusCode::kOk;
  int attempts_started = 0;
  // Attempts issued but not yet decided. A failed attempt only concludes the
  // call when it is the last one standing: a hedge that fails fast (e.g. a
  // crashed backend refusing the connection) must not preempt a primary that
  // is still working — and vice versa.
  int attempts_inflight = 0;
  int retries_used = 0;
  bool hedge_launched = false;
};

struct Client::Attempt {
  SpanId span_id = 0;
  MachineId target = -1;
  SimTime start = 0;
  // Set once the attempt's outcome is decided (reply, error, or watchdog);
  // a late reply for an already-failed attempt is dropped, not double-counted.
  bool finished = false;
  LatencyBreakdown bd;
  CycleBreakdown cycles;
  int64_t request_wire_bytes = 0;
  int64_t response_wire_bytes = 0;
  int64_t request_payload_bytes = 0;
  int64_t response_payload_bytes = 0;
  // Colocated fast path: the attempt skipped serialize + wire; the stack
  // cycles it would have paid accumulate here and surface on the span.
  bool colocated = false;
  double avoided_tax_cycles = 0;
};

Client::Client(RpcSystem* system, MachineId machine, const ClientOptions& options)
    : system_(system),
      machine_(machine),
      shard_(&system->ShardFor(machine)),
      machine_speed_(system->MachineSpeed(machine)),
      tx_pool_(&shard_->sim(),
               {.workers = options.tx_workers, .max_queue_depth = options.max_queue_depth}),
      rx_pool_(&shard_->sim(),
               {.workers = options.rx_workers, .max_queue_depth = options.max_queue_depth}),
      backoff_rng_(Mix64(Mix64(system->options().seed ^ 0xb0ffull) ^
                         static_cast<uint64_t>(machine))),
      retry_budget_(options.retry_budget),
      rx_processing_overhead_(options.rx_processing_overhead),
      colocated_bypass_(options.colocated_bypass),
      retries_counter_(&shard_->metrics.GetCounter("client.retries")),
      retry_exhausted_counter_(&shard_->metrics.GetCounter("client.retry_budget_exhausted")),
      queue_rejected_counter_(&shard_->metrics.GetCounter("client.queue_rejected")),
      attempt_timeout_counter_(&shard_->metrics.GetCounter("client.attempt_timeouts")),
      completions_ok_counter_(&shard_->metrics.GetCounter("client.completions_ok")),
      completions_err_counter_(&shard_->metrics.GetCounter("client.completions_err")),
      colocated_counter_(&shard_->metrics.GetCounter("client.colocated_calls")),
      tax_cycles_counter_(&shard_->metrics.GetCounter("client.tax_cycles")),
      avoided_tax_counter_(&shard_->metrics.GetCounter("client.avoided_tax_cycles")) {}

void Client::CountCompletion(StatusCode code) {
  if (code == StatusCode::kOk) {
    completions_ok_counter_->Increment();
  } else {
    completions_err_counter_->Increment();
  }
}

void Client::Call(MachineId target, MethodId method, Payload request, const CallOptions& options,
                  CallCallback done) {
  ++calls_issued_;
  auto st = MakePooledShared<CallState>();
  st->options = options;
  st->done = std::move(done);
  st->primary_target = target;
  st->method = method;
  st->request = std::move(request);
  st->trace_id = options.trace_id != 0 ? options.trace_id : shard_->tracer.NewTraceId();
  st->issue_time = shard_->sim().Now();

  // Managed policy resolution (docs/POLICY.md), against the snapshot in force
  // for this call's service: retry pacing is owned by the policy plane
  // outright (a staged rollout of a bad backoff must land even on calls with
  // library defaults), the retry count and watchdog fill in only where the
  // caller (or its channel) left them unset.
  const MethodPolicy policy = shard_->policy.current().Resolve(st->options.service_id);
  if (policy.retry_backoff >= 0) {
    st->options.retry_backoff = policy.retry_backoff;
  }
  if (policy.retry_backoff_cap >= 0) {
    st->options.retry_backoff_cap = policy.retry_backoff_cap;
  }
  if (policy.max_retries >= 0 && st->options.max_retries == 0) {
    st->options.max_retries = static_cast<int>(policy.max_retries);
  }
  if (policy.attempt_timeout >= 0 && st->options.attempt_timeout == 0) {
    st->options.attempt_timeout = policy.attempt_timeout;
  }

  // Deadline propagation: a child call never outlives its parent's budget.
  if (st->options.parent_deadline_time > 0) {
    const SimDuration remaining = st->options.parent_deadline_time - st->issue_time;
    if (remaining <= 0) {
      // Dead on arrival: the parent's deadline already expired, so no
      // downstream cycles are burned. Recorded as a zero-latency span.
      ++dead_on_arrival_;
      st->completed = true;
      st->completion_reason = StatusCode::kDeadlineExceeded;
      ++calls_completed_;
      CountCompletion(StatusCode::kDeadlineExceeded);
      Attempt att;
      att.span_id = shard_->tracer.NewSpanId();
      att.target = target;
      att.start = st->issue_time;
      RecordAttemptSpan(*st, att, StatusCode::kDeadlineExceeded);
      CallResult result;
      result.status = DeadlineExceededError("parent deadline already expired");
      result.trace_id = st->trace_id;
      result.span_id = att.span_id;
      st->done(result, Payload());
      return;
    }
    if (st->options.deadline == 0 || st->options.deadline > remaining) {
      st->options.deadline = remaining;
    }
  }

  StartAttempt(st, target);

  if (st->options.hedge_delay > 0 && st->options.hedge_target >= 0) {
    shard_->sim().Schedule(st->options.hedge_delay, [this, st]() {
      if (!st->completed && !st->hedge_launched) {
        st->hedge_launched = true;
        StartAttempt(st, st->options.hedge_target);
      }
    });
  }

  if (st->options.deadline > 0) {
    shard_->sim().Schedule(st->options.deadline, [this, st]() {
      if (st->completed) {
        return;
      }
      st->completed = true;
      st->completion_reason = StatusCode::kDeadlineExceeded;
      ++calls_completed_;
      CountCompletion(StatusCode::kDeadlineExceeded);
      CallResult result;
      result.status = DeadlineExceededError("call deadline expired");
      result.attempts = st->attempts_started;
      result.trace_id = st->trace_id;
      st->done(result, Payload());
    });
  }
}

void Client::StartAttempt(std::shared_ptr<CallState> st, MachineId target) {
  auto att = MakePooledShared<Attempt>();
  att->span_id = shard_->tracer.NewSpanId();
  att->target = target;
  att->start = shard_->sim().Now();
  ++st->attempts_started;
  ++st->attempts_inflight;

  // Fail fast when the send queue is already over its bound: rejecting before
  // EncodeFrame keeps overload from burning encode cycles on doomed work.
  if (tx_pool_.WouldReject()) {
    ++queue_rejections_;
    queue_rejected_counter_->Increment();
    AttemptFinished(st, att, ResourceExhaustedError("client tx queue full"), Payload());
    return;
  }

  // Transport watchdog: a frame lost to a partition or a silently dead server
  // produces no reply event at all — without this, the attempt (and with it
  // the call, absent a deadline) would hang forever.
  if (st->options.attempt_timeout > 0) {
    shard_->sim().Schedule(st->options.attempt_timeout, [this, st, att]() {
      if (att->finished) {
        return;
      }
      ++attempt_timeouts_;
      attempt_timeout_counter_->Increment();
      AttemptFinished(st, att, UnavailableError("attempt transport timeout"), Payload());
    });
  }

  if (colocated_bypass_ && target == machine_) {
    StartColocatedAttempt(std::move(st), std::move(att));
    return;
  }

  const CycleCostModel& costs = system_->costs();
  WireFrame frame =
      EncodeFrame(st->request, system_->options().encryption_key, att->span_id, scratch_);
  const CycleBreakdown tx_cost =
      BaselineProfile()
          .MessageCost(costs, {.payload_bytes = frame.payload_bytes,
                               .wire_bytes = frame.wire_bytes,
                               .send = true})
          .host;
  att->cycles.Accumulate(tx_cost);
  att->request_wire_bytes = frame.wire_bytes;
  att->request_payload_bytes = frame.payload_bytes;
  const SimDuration tx_time = costs.CyclesToDuration(tx_cost.TaxTotal(), machine_speed_);

  tx_pool_.Submit(tx_time, [this, st, att, frame = std::move(frame)](
                               SimDuration tx_wait, SimDuration tx_service) mutable {
    if (tx_wait == ServerResource::kRejected) {
      AttemptFinished(st, att, ResourceExhaustedError("client tx queue full"), Payload());
      return;
    }
    att->bd[RpcComponent::kClientSendQueue] = tx_wait;
    att->bd[RpcComponent::kRequestProcStack] = tx_service;
    const int64_t wire_bytes = frame.wire_bytes;
    shard_->fabric.Send(
        machine_, att->target, wire_bytes,
        [this, st, att, frame = std::move(frame)](SimDuration wire) mutable {
          // This delivery runs in the *target's* domain. Only immutable call
          // state may be read here; the attempt's mutable fields belong to
          // the client's domain, so the request-wire latency travels with
          // the request and comes back echoed in the reply (same-domain
          // also sets it now, preserving the legacy watchdog-span contents).
          if (system_->ShardOf(att->target) == shard_->id()) {
            att->bd[RpcComponent::kRequestWire] = wire;
          }
          Server* server = system_->ServerAt(att->target);
          if (server == nullptr) {
            FailAttemptFromTarget(st, att, wire, UnavailableError("no server at target machine"));
            return;
          }
          if (!server->up()) {
            // Connection refused: a crashed-but-known machine fails fast,
            // unlike a partitioned one (whose frames vanish silently).
            FailAttemptFromTarget(st, att, wire, UnavailableError("server down"));
            return;
          }
          IncomingRequest req;
          req.method = st->method;
          req.request_frame = std::move(frame);
          req.client_machine = machine_;
          req.deadline_time =
              st->options.deadline > 0 ? st->issue_time + st->options.deadline : 0;
          req.trace_id = st->trace_id;
          req.span_id = att->span_id;
          req.request_wire = wire;
          req.respond = [this, st, att](ServerReply reply) { OnReply(st, att, std::move(reply)); };
          server->DeliverRequest(std::move(req));
        });
  });
}

void Client::StartColocatedAttempt(std::shared_ptr<CallState> st, std::shared_ptr<Attempt> att) {
  ++colocated_calls_;
  colocated_counter_->Increment();
  att->colocated = true;
  const CycleCostModel& costs = system_->costs();
  const int64_t payload_bytes = st->request.SerializedSize();
  // Request direction: only library bookkeeping is charged; everything the
  // wire pipeline would have cost (against the estimated on-wire size) is
  // recorded as avoided tax instead.
  const CycleBreakdown tx_cost = costs.LocalDeliveryCost();
  att->cycles.Accumulate(tx_cost);
  att->request_payload_bytes = payload_bytes;
  att->avoided_tax_cycles +=
      AvoidedDirectionTax(costs, payload_bytes, EstimateWireBytes(st->request));
  const SimDuration tx_time = costs.CyclesToDuration(tx_cost.TaxTotal(), machine_speed_);

  tx_pool_.Submit(tx_time, [this, st, att, payload_bytes](SimDuration tx_wait,
                                                          SimDuration tx_service) {
    if (tx_wait == ServerResource::kRejected) {
      AttemptFinished(st, att, ResourceExhaustedError("client tx queue full"), Payload());
      return;
    }
    att->bd[RpcComponent::kClientSendQueue] = tx_wait;
    att->bd[RpcComponent::kRequestProcStack] = tx_service;
    // The hand-off stays an event (same machine, same shard) rather than an
    // inline call so the server pipeline observes the same scheduling
    // semantics as a delivered frame; kRequestWire stays 0 — no wire.
    shard_->sim().Schedule(0, [this, st, att, payload_bytes]() {
      Server* server = system_->ServerAt(att->target);
      if (server == nullptr) {
        AttemptFinished(st, att, UnavailableError("no server at target machine"), Payload());
        return;
      }
      if (!server->up()) {
        AttemptFinished(st, att, UnavailableError("server down"), Payload());
        return;
      }
      IncomingRequest req;
      req.method = st->method;
      req.request_frame.payload_bytes = payload_bytes;  // Accounting only; wire_bytes 0.
      req.client_machine = machine_;
      req.deadline_time = st->options.deadline > 0 ? st->issue_time + st->options.deadline : 0;
      req.trace_id = st->trace_id;
      req.span_id = att->span_id;
      req.colocated = true;
      // Hand-off by buffer: the request payload crosses to the server without
      // an encode (copied, not serialized — retries may still need it).
      req.local_payload = st->request;
      req.respond = [this, st, att](ServerReply reply) { OnReply(st, att, std::move(reply)); };
      server->DeliverRequest(std::move(req));
    });
  });
}

void Client::FailAttemptFromTarget(std::shared_ptr<CallState> st, std::shared_ptr<Attempt> att,
                                   SimDuration request_wire, Status status) {
  RpcSystem::ShardContext& target_shard = system_->ShardFor(att->target);
  if (target_shard.id() == shard_->id()) {
    // Same domain: complete inline, exactly the legacy immediate-failure path
    // (kRequestWire was already written by the delivery lambda).
    AttemptFinished(std::move(st), std::move(att), std::move(status), Payload());
    return;
  }
  // Cross-domain: the failure was discovered in the target's domain, where
  // the client's attempt state must not be touched. Route the completion back
  // to the client's domain through the mailbox, one minimum wire latency
  // later (>= the executor lookahead) — modeling the connection-refused
  // notification's return trip.
  const SimDuration back = target_shard.fabric.MinOneWayLatency(att->target, machine_, 0);
  target_shard.domain.PostRemote(
      shard_->id(), AddClamped(target_shard.sim().Now(), back),
      [this, st, att, request_wire, status = std::move(status)]() mutable {
        att->bd[RpcComponent::kRequestWire] = request_wire;
        AttemptFinished(std::move(st), std::move(att), std::move(status), Payload());
      });
}

void Client::OnReply(std::shared_ptr<CallState> st, std::shared_ptr<Attempt> att,
                     ServerReply reply) {
  if (att->finished) {
    return;  // The watchdog already failed this attempt; drop the late reply.
  }
  if (reply.request_wire > 0) {
    att->bd[RpcComponent::kRequestWire] = reply.request_wire;
  }
  att->bd[RpcComponent::kServerRecvQueue] = reply.recv_queue;
  att->bd[RpcComponent::kServerApp] = reply.app_time;
  att->bd[RpcComponent::kServerSendQueue] = reply.send_queue;
  att->bd[RpcComponent::kResponseProcStack] = reply.resp_proc;
  att->bd[RpcComponent::kResponseWire] = reply.resp_wire;
  att->cycles.Accumulate(reply.server_cycles);
  att->response_wire_bytes = reply.response_frame.wire_bytes;
  att->response_payload_bytes = reply.response_frame.payload_bytes;

  const CycleCostModel& costs = system_->costs();
  CycleBreakdown rx_cost;
  if (reply.colocated) {
    // Response direction of the fast path: bookkeeping only; the decode
    // pipeline the response skipped is recorded as avoided tax.
    rx_cost = costs.LocalDeliveryCost();
    att->avoided_tax_cycles += AvoidedDirectionTax(costs, reply.response_frame.payload_bytes,
                                                   EstimateWireBytes(reply.local_response));
  } else {
    rx_cost = BaselineProfile()
                  .MessageCost(costs, {.payload_bytes = reply.response_frame.payload_bytes,
                                       .wire_bytes = reply.response_frame.wire_bytes,
                                       .send = false})
                  .host;
  }
  const SimDuration rx_time =
      costs.CyclesToDuration(rx_cost.TaxTotal(), machine_speed_) + rx_processing_overhead_;

  rx_pool_.Submit(rx_time, [this, st, att, reply = std::move(reply), rx_cost](
                               SimDuration rx_wait, SimDuration rx_service) mutable {
    if (rx_wait == ServerResource::kRejected) {
      AttemptFinished(st, att, ResourceExhaustedError("client rx queue full"), Payload());
      return;
    }
    att->bd[RpcComponent::kClientRecvQueue] = rx_wait;
    att->bd[RpcComponent::kResponseProcStack] += rx_service;
    att->cycles.Accumulate(rx_cost);
    Payload response;
    Status status = reply.status;
    if (status.ok()) {
      if (reply.colocated) {
        // The response was never encoded: take the payload by buffer.
        response = std::move(reply.local_response);
      } else {
        Result<Payload> decoded =
            DecodeFrame(reply.response_frame, system_->options().encryption_key, scratch_);
        if (decoded.ok()) {
          response = std::move(decoded.value());
        } else {
          status = decoded.status();
        }
      }
    }
    AttemptFinished(st, att, std::move(status), std::move(response));
  });
}

void Client::RecordAttemptSpan(const CallState& st, const Attempt& att, StatusCode code) {
  Span span;
  span.trace_id = st.trace_id;
  span.span_id = att.span_id;
  span.parent_span_id = st.options.parent_span_id;
  span.method_id = st.method;
  span.service_id = st.options.service_id;
  span.client_cluster = system_->topology().ClusterOf(machine_);
  span.server_cluster = system_->topology().ClusterOf(att.target);
  span.start_time = att.start;
  span.latency = att.bd;
  span.status = code;
  span.request_wire_bytes = att.request_wire_bytes;
  span.response_wire_bytes = att.response_wire_bytes;
  span.request_payload_bytes = att.request_payload_bytes;
  span.response_payload_bytes = att.response_payload_bytes;
  // GWP-style cost annotation on a deterministic subset of spans.
  const double p = system_->options().cpu_annotation_probability;
  span.has_cpu_annotation =
      static_cast<double>(Mix64(att.span_id ^ 0xc0c) >> 11) * 0x1.0p-53 < p;
  span.normalized_cpu_cycles =
      att.cycles.Total() / system_->costs().normalization_cycles;
  span.colocated = att.colocated;
  span.avoided_tax_cycles = att.avoided_tax_cycles;
  // Fleet tax accounting: paid stack cycles for every attempt, and for
  // bypassed attempts the tax the fast path saved — the fleet_study
  // "bypassed-tax fraction" is avoided / (paid + avoided).
  tax_cycles_counter_->Increment(att.cycles.TaxTotal());
  if (att.colocated) {
    avoided_tax_cycles_ += att.avoided_tax_cycles;
    avoided_tax_counter_->Increment(att.avoided_tax_cycles);
  }
  if (st.options.attempt_observer) {
    st.options.attempt_observer(att.target, code, att.bd.Total());
  }
  if (shard_->tracer.Record(span)) {
    // The streaming pipeline taps exactly the kept (head-sampled) stream —
    // the same spans MergedSpans() sees — so streamed aggregates replay
    // bit-for-bit from the post-run merge (stream.h determinism rules).
    shard_->stream_sink->OnSpan(span);
  }
}

void Client::AttemptFinished(std::shared_ptr<CallState> st, std::shared_ptr<Attempt> att,
                             Status status, Payload response) {
  if (att->finished) {
    return;  // Already decided (transport watchdog); span recorded once.
  }
  att->finished = true;
  --st->attempts_inflight;
  StatusCode record_code = status.code();
  if (st->completed) {
    // The call already concluded without this attempt: a hedge loser is
    // CANCELLED; an arrival after the deadline is DEADLINE_EXCEEDED.
    record_code = st->completion_reason == StatusCode::kDeadlineExceeded
                      ? StatusCode::kDeadlineExceeded
                      : StatusCode::kCancelled;
    RecordAttemptSpan(*st, *att, record_code);
    wasted_cycles_ += att->cycles.Total();
    return;
  }
  RecordAttemptSpan(*st, *att, record_code);

  if (!status.ok() && st->attempts_inflight > 0) {
    // A sibling attempt (the hedge, or the primary the hedge covered for) is
    // still in flight: let its outcome decide the call instead of failing —
    // or retrying — while a live attempt may yet succeed.
    wasted_cycles_ += att->cycles.Total();
    return;
  }

  if (status.code() == StatusCode::kUnavailable &&
      st->retries_used < st->options.max_retries) {
    if (retry_budget_.TryConsume()) {
      ++st->retries_used;
      ++retries_attempted_;
      retries_counter_->Increment();
      wasted_cycles_ += att->cycles.Total();
      // Truncated exponential backoff with full jitter (avoids synchronized
      // retry storms when a backend goes away).
      const double ceiling = std::min<double>(
          static_cast<double>(st->options.retry_backoff) *
              std::pow(2.0, st->retries_used - 1),
          static_cast<double>(st->options.retry_backoff_cap));
      const SimDuration backoff =
          static_cast<SimDuration>(backoff_rng_.NextDouble() * ceiling);
      shard_->sim().Schedule(backoff, [this, st, target = att->target]() {
        if (!st->completed) {
          StartAttempt(st, target);
        }
      });
      return;
    }
    // Budget empty: the retry is suppressed and the call fails with the
    // underlying error — amplification stops exactly when the fleet is sick.
    ++retries_suppressed_;
    retry_exhausted_counter_->Increment();
  }

  st->completed = true;
  st->completion_reason = status.code();
  ++calls_completed_;
  CountCompletion(status.code());
  if (status.ok()) {
    retry_budget_.OnSuccess();
  }
  CallResult result;
  result.status = std::move(status);
  result.latency = att->bd;
  result.cycles = att->cycles;
  result.request_wire_bytes = att->request_wire_bytes;
  result.response_wire_bytes = att->response_wire_bytes;
  result.attempts = st->attempts_started;
  result.trace_id = st->trace_id;
  result.span_id = att->span_id;
  st->done(result, std::move(response));
}

Status Client::CheckpointTo(CheckpointWriter& w) const {
  if (calls_issued_ != calls_completed_) {
    return FailedPreconditionError("client has in-flight calls at checkpoint");
  }
  w.BeginSection("client");
  w.WriteI64(machine_);
  w.WriteDouble(machine_speed_);
  w.WriteI64(rx_processing_overhead_);
  WriteRngState(w, backoff_rng_);
  const RetryBudget::State budget = retry_budget_.SaveState();
  w.WriteBool(budget.enabled);
  w.WriteDouble(budget.tokens);
  w.WriteU64(budget.exhausted);
  w.WriteU64(calls_issued_);
  w.WriteU64(calls_completed_);
  w.WriteU64(retries_attempted_);
  w.WriteU64(retries_suppressed_);
  w.WriteU64(queue_rejections_);
  w.WriteU64(attempt_timeouts_);
  w.WriteU64(dead_on_arrival_);
  w.WriteDouble(wasted_cycles_);
  w.WriteBool(colocated_bypass_);
  w.WriteU64(colocated_calls_);
  w.WriteDouble(avoided_tax_cycles_);
  w.EndSection();
  if (Status s = tx_pool_.CheckpointTo(w); !s.ok()) {
    return s;
  }
  return rx_pool_.CheckpointTo(w);
}

Status Client::RestoreFrom(CheckpointReader& r) {
  if (calls_issued_ != calls_completed_) {
    return FailedPreconditionError("restore into a client with in-flight calls");
  }
  if (Status s = r.EnterSection("client"); !s.ok()) {
    return s;
  }
  const MachineId machine = r.ReadI64();
  const double machine_speed = r.ReadDouble();
  const SimDuration rx_processing_overhead = r.ReadI64();
  Rng backoff_rng(0);
  ReadRngState(r, backoff_rng);
  RetryBudget::State budget;
  budget.enabled = r.ReadBool();
  budget.tokens = r.ReadDouble();
  budget.exhausted = r.ReadU64();
  const uint64_t calls_issued = r.ReadU64();
  const uint64_t calls_completed = r.ReadU64();
  const uint64_t retries_attempted = r.ReadU64();
  const uint64_t retries_suppressed = r.ReadU64();
  const uint64_t queue_rejections = r.ReadU64();
  const uint64_t attempt_timeouts = r.ReadU64();
  const uint64_t dead_on_arrival = r.ReadU64();
  const double wasted_cycles = r.ReadDouble();
  const bool colocated_bypass = r.ReadBool();
  const uint64_t colocated_calls = r.ReadU64();
  const double avoided_tax_cycles = r.ReadDouble();
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (machine != machine_ || machine_speed != machine_speed_ ||
      rx_processing_overhead != rx_processing_overhead_ ||
      colocated_bypass != colocated_bypass_) {
    return FailedPreconditionError("client: checkpoint is for a different client configuration");
  }
  if (calls_issued != calls_completed) {
    return DataLossError("client: checkpoint recorded in-flight calls");
  }
  if (!retry_budget_.RestoreState(budget)) {
    return FailedPreconditionError("client: retry budget enablement mismatch");
  }
  backoff_rng_ = backoff_rng;
  calls_issued_ = calls_issued;
  calls_completed_ = calls_completed;
  retries_attempted_ = retries_attempted;
  retries_suppressed_ = retries_suppressed;
  queue_rejections_ = queue_rejections;
  attempt_timeouts_ = attempt_timeouts;
  dead_on_arrival_ = dead_on_arrival;
  wasted_cycles_ = wasted_cycles;
  colocated_calls_ = colocated_calls;
  avoided_tax_cycles_ = avoided_tax_cycles;
  if (Status s = tx_pool_.RestoreFrom(r); !s.ok()) {
    return s;
  }
  return rx_pool_.RestoreFrom(r);
}

}  // namespace rpcscope
