#include "src/rpc/server.h"

#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/check.h"
#include "src/rpc/codec.h"
#include "src/rpc/stage_model.h"

namespace rpcscope {

// A request the server has accepted but not yet answered. Owns the encoded
// request (by value — the single allocation per delivered request) and the
// responder; `responded` flips exactly once, either on the normal reply path
// or when Crash() answers every registered call with UNAVAILABLE.
struct ServerCall::InflightCall {
  IncomingRequest req;
  // Recv-queue time known so far; reported on crash replies so the client's
  // latency breakdown stays meaningful even for killed calls.
  SimDuration recv_known = 0;
  size_t index = 0;  // Position in Server::inflight_ (swap-erase bookkeeping).
  bool responded = false;
};

MachineId ServerCall::server_machine() const { return server_->machine(); }

Simulator& ServerCall::sim() { return server_->shard_context().sim(); }

SimTime ServerCall::Now() { return server_->shard_context().sim().Now(); }

CallOptions ServerCall::ChildOptions() const {
  CallOptions options;
  options.trace_id = trace_id_;
  options.parent_span_id = span_id_;
  options.parent_deadline_time = deadline_time_;
  return options;
}

void ServerCall::Compute(SimDuration duration, SimCallback then) {
  // Nominal work takes longer under exogenous slowdown and on slower machines.
  const double scale = server_->options().app_speed_factor / server_->machine_speed();
  const SimDuration scaled =
      static_cast<SimDuration>(static_cast<double>(duration) * scale);
  server_->shard_context().sim().Schedule(scaled, std::move(then));
}

void ServerCall::Finish(Status status, Payload response) {
  server_->FinishCall(this, std::move(status), std::move(response));
}

Server::Server(RpcSystem* system, MachineId machine, const ServerOptions& options)
    : system_(system),
      machine_(machine),
      shard_(&system->ShardFor(machine)),
      options_(options),
      machine_speed_(system->MachineSpeed(machine)),
      rx_pool_(&shard_->sim(),
               {.workers = options.io_workers, .max_queue_depth = options.max_io_queue_depth}),
      app_pool_(&shard_->sim(),
                {.workers = options.app_workers, .max_queue_depth = options.max_app_queue_depth}),
      tx_pool_(&shard_->sim(),
               {.workers = options.io_workers, .max_queue_depth = options.max_io_queue_depth}),
      shed_counter_(&shard_->metrics.GetCounter("server.shed")),
      crash_killed_counter_(&shard_->metrics.GetCounter("server.crash_killed")) {
  system_->RegisterServer(machine_, this);
}

Server::~Server() { system_->UnregisterServer(machine_); }

void Server::RegisterMethod(MethodId method, std::string name, MethodHandler handler) {
  handlers_[method] = std::move(handler);
  method_names_[method] = std::move(name);
}

double Server::AppUtilization(SimDuration elapsed) {
  if (elapsed <= 0) {
    return 0.0;
  }
  return static_cast<double>(app_pool_.busy_time()) /
         (static_cast<double>(elapsed) * options_.app_workers);
}

void Server::RegisterInflight(const std::shared_ptr<InflightCall>& fl) {
  fl->index = inflight_.size();
  inflight_.push_back(fl);
}

void Server::UnregisterInflight(const std::shared_ptr<InflightCall>& fl) {
  const size_t i = fl->index;
  if (i >= inflight_.size() || inflight_[i] != fl) {
    return;  // Already detached (Crash() swapped the registry out wholesale).
  }
  if (i + 1 != inflight_.size()) {
    inflight_[i] = std::move(inflight_.back());
    inflight_[i]->index = i;
  }
  inflight_.pop_back();
}

void Server::RespondInflight(const std::shared_ptr<InflightCall>& fl, ServerReply reply,
                             int64_t wire_bytes) {
  if (fl->responded) {
    return;
  }
  fl->responded = true;
  UnregisterInflight(fl);
  auto respond = std::move(fl->req.respond);
  // Echo the request's wire latency so the client fills in its own latency
  // breakdown inside its own shard domain.
  reply.request_wire = fl->req.request_wire;
  if (fl->req.colocated) {
    // Colocated fast path: no fabric hop. The caller lives on this machine
    // (same shard domain); delivery is a zero-delay event and every wire
    // component stays zero.
    shard_->sim().Schedule(0, [reply = std::move(reply), respond = std::move(respond)]() mutable {
      respond(std::move(reply));
    });
    return;
  }
  shard_->fabric.Send(machine_, fl->req.client_machine, wire_bytes,
                      [reply = std::move(reply), respond = std::move(respond)](
                          SimDuration wire) mutable {
                        reply.resp_wire = wire;
                        respond(std::move(reply));
                      });
}

void Server::RespondError(const std::shared_ptr<InflightCall>& fl, const CycleBreakdown& cycles,
                          SimDuration recv_queue, Status status) {
  if (fl->responded) {
    return;
  }
  ServerReply reply;
  reply.status = std::move(status);
  reply.recv_queue = recv_queue;
  reply.server_cycles = cycles;
  if (fl->req.colocated) {
    // Error replies to colocated calls stay off the wire too.
    reply.colocated = true;
    reply.local_response = Payload::Modeled(64);
    reply.response_frame.payload_bytes = 64;
    RespondInflight(fl, std::move(reply), 0);
    return;
  }
  WireFrame frame = EncodeFrame(Payload::Modeled(64), system_->options().encryption_key,
                                fl->req.span_id ^ 0x2, scratch_);
  reply.response_frame = frame;
  RespondInflight(fl, std::move(reply), frame.wire_bytes);
}

void Server::Crash() {
  if (!up_) {
    return;
  }
  up_ = false;
  ++incarnation_;
  // Queued pipeline work is dropped; in-flight pool completions from this
  // life are invalidated (epoch guard) so they can't corrupt the accounting
  // of the next incarnation.
  rx_pool_.Reset();
  app_pool_.Reset();
  tx_pool_.Reset();
  // Answer every registered call with a connection reset. Swap the registry
  // out first: RespondInflight unregisters as it goes.
  std::vector<std::shared_ptr<InflightCall>> killed;
  killed.swap(inflight_);
  for (const auto& fl : killed) {
    ++crash_killed_calls_;
    crash_killed_counter_->Increment();
    RespondError(fl, CycleBreakdown(), fl->recv_known, UnavailableError("server crashed"));
  }
}

void Server::Restart() {
  if (up_) {
    return;
  }
  up_ = true;
  // A fresh process has no learned admission estimate.
  app_time_ewma_ns_ = 0;
}

void Server::DeliverRequest(IncomingRequest request) {
  auto fl = MakePooledShared<InflightCall>();
  fl->req = std::move(request);
  RegisterInflight(fl);
  const CycleCostModel& costs = system_->costs();
  // Colocated requests arrive by shared buffer: no decrypt/parse pipeline,
  // only the RPC library hand-off (the skipped stages are the client's
  // per-span avoided tax; docs/POLICY.md#colocated-bypass).
  const CycleBreakdown rx_cost =
      fl->req.colocated
          ? costs.LocalDeliveryCost()
          : BaselineProfile()
                .MessageCost(costs, {.payload_bytes = fl->req.request_frame.payload_bytes,
                                     .wire_bytes = fl->req.request_frame.wire_bytes,
                                     .send = false})
                .host;
  const SimDuration rx_time = costs.CyclesToDuration(rx_cost.TaxTotal(), machine_speed_);
  rx_pool_.Submit(rx_time, [this, fl, rx_cost](SimDuration rx_wait, SimDuration rx_service) {
    if (rx_wait == ServerResource::kRejected) {
      RespondError(fl, rx_cost, 0, ResourceExhaustedError("server rx queue full"));
      return;
    }
    const SimDuration recv_so_far = rx_wait + rx_service;
    fl->recv_known = recv_so_far;
    // Breakwater-style admission control, applied at the moment the request
    // would join the app queue (where the depth it must wait behind is
    // known): if the caller's remaining budget cannot cover the expected
    // wait, shed now rather than time the request out after doing the work.
    if (options_.shed_on_deadline && fl->req.deadline_time > 0 && app_time_ewma_ns_ > 0) {
      const double expected_wait_ns =
          static_cast<double>(app_pool_.queue_depth()) /
          static_cast<double>(options_.app_workers) * app_time_ewma_ns_;
      if (static_cast<double>(shard_->sim().Now()) + expected_wait_ns >
          static_cast<double>(fl->req.deadline_time)) {
        ++requests_shed_;
        shed_counter_->Increment();
        RespondError(fl, rx_cost, recv_so_far,
                     ResourceExhaustedError("server shed: deadline unmeetable"));
        return;
      }
    }
    const int priority = options_.request_priority ? options_.request_priority(fl->req) : 0;
    app_pool_.AcquireWithPriority(priority, [this, fl, rx_cost, recv_so_far](SimDuration app_wait) {
      if (app_wait == ServerResource::kRejected) {
        RespondError(fl, rx_cost, recv_so_far, ResourceExhaustedError("server app queue full"));
        return;
      }
      // Scheduler wake-up delay before the handler actually starts running;
      // the worker is held throughout.
      const SimDuration wakeup = options_.wakeup_latency;
      shard_->sim().Schedule(wakeup, [this, fl, rx_cost, recv_so_far, app_wait, wakeup]() {
        if (fl->responded) {
          // The server crashed while this request waited for its wakeup: the
          // caller was already told UNAVAILABLE and the pools were reset, so
          // there is no worker to release and nothing left to do.
          return;
        }
        fl->recv_known = recv_so_far + app_wait + wakeup;
        // Deadline short-circuit: if the caller's budget already expired
        // while the request queued, don't burn handler cycles on a result
        // nobody will read (the client records DEADLINE_EXCEEDED).
        if (fl->req.deadline_time > 0 && shard_->sim().Now() > fl->req.deadline_time) {
          app_pool_.Release();
          RespondError(fl, rx_cost, recv_so_far + app_wait + wakeup,
                       DeadlineExceededError("deadline expired before handler start"));
          return;
        }
        Payload request_payload;
        if (fl->req.colocated) {
          // The payload was handed over by buffer; there is no frame to decode.
          request_payload = std::move(fl->req.local_payload);
        } else {
          Result<Payload> decoded =
              DecodeFrame(fl->req.request_frame, system_->options().encryption_key, scratch_);
          if (!decoded.ok()) {
            app_pool_.Release();
            RespondError(fl, rx_cost, recv_so_far + app_wait + wakeup, decoded.status());
            return;
          }
          request_payload = std::move(decoded.value());
        }
        auto call = MakePooledShared<ServerCall>();
        call->server_ = this;
        call->request_ = std::move(request_payload);
        call->method_ = fl->req.method;
        call->client_machine_ = fl->req.client_machine;
        call->deadline_time_ = fl->req.deadline_time;
        call->trace_id_ = fl->req.trace_id;
        call->span_id_ = fl->req.span_id;
        call->app_start_ = shard_->sim().Now();
        call->recv_queue_ = recv_so_far + app_wait + wakeup;
        call->inflight_ = fl;
        call->cycles_ = rx_cost;
        call->self_ = call;
        auto it = handlers_.find(fl->req.method);
        if (it == handlers_.end()) {
          call->Finish(UnimplementedError("no such method"), Payload::Modeled(64));
          return;
        }
        it->second(call);
      });
    });
  });
}

void Server::FinishCall(ServerCall* call, Status status, Payload response) {
  RPCSCOPE_CHECK(!call->finished_) << "a handler finished its call twice";
  call->finished_ = true;
  std::shared_ptr<InflightCall> fl = call->inflight_;
  if (fl->responded) {
    // The server crashed under this handler: the caller already saw
    // UNAVAILABLE and the worker pool was reset. Drop the result.
    call->self_.reset();
    return;
  }
  const CycleCostModel& costs = system_->costs();
  const SimTime now = shard_->sim().Now();
  const SimDuration app_time = now - call->app_start_;
  // Cycles the handler actually executed on this machine.
  call->cycles_[CycleCategory::kApplication] +=
      ToSeconds(app_time) * costs.cycles_per_second * machine_speed_;
  app_pool_.Release();
  ++requests_served_;
  // Feed the admission estimate: EWMA of observed handler time.
  const double sample_ns = static_cast<double>(app_time);
  app_time_ewma_ns_ =
      app_time_ewma_ns_ == 0 ? sample_ns : 0.9 * app_time_ewma_ns_ + 0.1 * sample_ns;

  ServerReply reply;
  reply.status = std::move(status);
  reply.app_time = app_time;
  CycleBreakdown tx_cost;
  if (fl->req.colocated) {
    // Colocated fast path: the response is never serialized — it is handed
    // back by buffer. Only the library hand-off is charged; the skipped
    // encode/wire stages land on the client span as avoided tax.
    tx_cost = costs.LocalDeliveryCost();
    reply.colocated = true;
    reply.response_frame.payload_bytes = response.SerializedSize();
    reply.local_response = std::move(response);
  } else {
    reply.response_frame = EncodeFrame(response, system_->options().encryption_key,
                                       call->span_id_ ^ 0x1, scratch_);
    tx_cost = BaselineProfile()
                  .MessageCost(costs, {.payload_bytes = reply.response_frame.payload_bytes,
                                       .wire_bytes = reply.response_frame.wire_bytes,
                                       .send = true})
                  .host;
  }
  call->cycles_.Accumulate(tx_cost);
  const SimDuration tx_time = costs.CyclesToDuration(tx_cost.TaxTotal(), machine_speed_);

  std::shared_ptr<ServerCall> self = call->self_;
  tx_pool_.Submit(tx_time, [this, self, fl, reply = std::move(reply)](
                               SimDuration tx_wait, SimDuration tx_service) mutable {
    reply.recv_queue = self->recv_queue_;
    reply.send_queue = tx_wait == ServerResource::kRejected ? 0 : tx_wait;
    reply.resp_proc = tx_service;
    reply.server_cycles = self->cycles_;
    // 0 on the colocated path, which never reaches the fabric.
    const int64_t wire_bytes = reply.response_frame.wire_bytes;
    self->self_.reset();
    RespondInflight(fl, std::move(reply), wire_bytes);
  });
}

Status Server::CheckpointTo(CheckpointWriter& w) const {
  if (!inflight_.empty()) {
    return FailedPreconditionError("server has in-flight calls at checkpoint");
  }
  w.BeginSection("server");
  w.WriteI64(machine_);
  w.WriteDouble(machine_speed_);
  // Exogenous knobs are mutated mid-run by fault events; the rest of the
  // options are construction-time configuration, written for validation.
  w.WriteU32(static_cast<uint32_t>(options_.app_workers));
  w.WriteU32(static_cast<uint32_t>(options_.io_workers));
  w.WriteDouble(options_.app_speed_factor);
  w.WriteI64(options_.wakeup_latency);
  w.WriteBool(options_.shed_on_deadline);
  w.WriteU32(static_cast<uint32_t>(handlers_.size()));
  w.WriteU32(static_cast<uint32_t>(method_names_.size()));
  w.WriteBool(up_);
  w.WriteU64(incarnation_);
  w.WriteU64(requests_served_);
  w.WriteU64(requests_shed_);
  w.WriteU64(crash_killed_calls_);
  w.WriteDouble(app_time_ewma_ns_);
  w.EndSection();
  if (Status s = rx_pool_.CheckpointTo(w); !s.ok()) {
    return s;
  }
  if (Status s = app_pool_.CheckpointTo(w); !s.ok()) {
    return s;
  }
  return tx_pool_.CheckpointTo(w);
}

Status Server::RestoreFrom(CheckpointReader& r) {
  if (!inflight_.empty()) {
    return FailedPreconditionError("restore into a server with in-flight calls");
  }
  if (Status s = r.EnterSection("server"); !s.ok()) {
    return s;
  }
  const MachineId machine = r.ReadI64();
  const double machine_speed = r.ReadDouble();
  const uint32_t app_workers = r.ReadU32();
  const uint32_t io_workers = r.ReadU32();
  const double app_speed_factor = r.ReadDouble();
  const SimDuration wakeup_latency = r.ReadI64();
  const bool shed_on_deadline = r.ReadBool();
  const uint32_t num_handlers = r.ReadU32();
  const uint32_t num_method_names = r.ReadU32();
  const bool up = r.ReadBool();
  const uint64_t incarnation = r.ReadU64();
  const uint64_t requests_served = r.ReadU64();
  const uint64_t requests_shed = r.ReadU64();
  const uint64_t crash_killed_calls = r.ReadU64();
  const double app_time_ewma_ns = r.ReadDouble();
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (machine != machine_ || machine_speed != machine_speed_ ||
      app_workers != static_cast<uint32_t>(options_.app_workers) ||
      io_workers != static_cast<uint32_t>(options_.io_workers)) {
    return FailedPreconditionError("server: checkpoint is for a different server configuration");
  }
  if (num_handlers != handlers_.size() || num_method_names != method_names_.size()) {
    return FailedPreconditionError("server: registered method set mismatch");
  }
  options_.app_speed_factor = app_speed_factor;
  options_.wakeup_latency = wakeup_latency;
  options_.shed_on_deadline = shed_on_deadline;
  up_ = up;
  incarnation_ = incarnation;
  requests_served_ = requests_served;
  requests_shed_ = requests_shed;
  crash_killed_calls_ = crash_killed_calls;
  app_time_ewma_ns_ = app_time_ewma_ns;
  if (Status s = rx_pool_.RestoreFrom(r); !s.ok()) {
    return s;
  }
  if (Status s = app_pool_.RestoreFrom(r); !s.ok()) {
    return s;
  }
  return tx_pool_.RestoreFrom(r);
}

}  // namespace rpcscope
