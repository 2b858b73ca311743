#include "src/sim/simulator.h"

#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/check.h"
#include "src/common/digest.h"

namespace rpcscope {

void Simulator::Schedule(SimDuration delay, Callback fn) {
  RPCSCOPE_DCHECK_GE(delay, 0) << "negative delay; release builds clamp to zero";
  if (delay < 0) {
    delay = 0;
  }
  // AddClamped saturates at the end of virtual time: a caller passing an
  // "effectively forever" delay must not wrap into the past (which release
  // builds would then silently clamp to now, firing the event immediately).
  ScheduleAt(AddClamped(now_, delay), std::move(fn));
}

CallbackSlab::~CallbackSlab() {
  RPCSCOPE_DCHECK_EQ(live_, size_t{0}) << "slab destroyed with live callbacks";
}

Simulator::~Simulator() {
  while (!queue_.Empty()) {
    slab_.Release(queue_.PopFront().slot);
  }
}

void Simulator::ScheduleAt(SimTime when, Callback fn) {
  RPCSCOPE_DCHECK_GE(when, now_) << "scheduling in the past; release builds clamp to now";
  if (when < now_) {
    when = now_;
  }
  queue_.Push(SimEvent{when, next_seq_++, slab_.Put(std::move(fn))});
}

SimEvent Simulator::PopEvent() {
  const SimEvent ev = queue_.PopPositioned();
  // The virtual clock never moves backwards, and the queue hands out events in
  // strict (time, seq) order. A violation here means the queue or an event
  // mutation corrupted the schedule — every downstream latency number would be
  // wrong, so fail fast in all build types.
  RPCSCOPE_CHECK_GE(ev.time, now_) << "virtual clock would move backwards";
  if (any_executed_) {
    RPCSCOPE_CHECK(ev.time > last_time_ || (ev.time == last_time_ && ev.seq > last_seq_))
        << "event (time=" << ev.time << ", seq=" << ev.seq << ") out of order after (time="
        << last_time_ << ", seq=" << last_seq_ << ")";
  }
  last_time_ = ev.time;
  last_seq_ = ev.seq;
  any_executed_ = true;
  event_digest_ = FnvMix(FnvMix(event_digest_, static_cast<uint64_t>(ev.time)), ev.seq);
  now_ = ev.time;
  return ev;
}

template <bool kBounded>
uint64_t Simulator::Dispatch(SimTime until) {
  uint64_t executed = 0;
  while (!queue_.Empty()) {
    const SimTime front_time = queue_.Front().time;  // The step's one positioning.
    if (kBounded && front_time >= until) {
      break;
    }
    const SimEvent ev = PopEvent();
    // The slot stays put while its callback schedules more events.
    slab_.At(ev.slot)();
    slab_.Release(ev.slot);
    ++executed;
  }
  events_executed_ += executed;
  return executed;
}

uint64_t Simulator::Run() { return Dispatch<false>(kMaxSimTime); }

uint64_t Simulator::RunBefore(SimTime until) { return Dispatch<true>(until); }

Status Simulator::CheckpointTo(CheckpointWriter& w) const {
  RPCSCOPE_DCHECK_EQ(slab_.live(), queue_.Size()) << "slab and queue disagree";
  if (!queue_.Empty() || slab_.live() != 0) {
    return FailedPreconditionError(
        "simulator queue not drained: checkpoints are only taken at quiescent "
        "barriers (events hold closures and cannot be persisted)");
  }
  w.BeginSection("sim");
  w.WriteI64(now_);
  w.WriteU64(next_seq_);
  w.WriteU64(events_executed_);
  w.WriteU64(event_digest_);
  w.WriteI64(last_time_);
  w.WriteU64(last_seq_);
  w.WriteBool(any_executed_);
  w.EndSection();
  return Status::Ok();
}

Status Simulator::RestoreFrom(CheckpointReader& r) {
  if (!queue_.Empty() || slab_.live() != 0) {
    return FailedPreconditionError("restore into a simulator with pending events");
  }
  if (Status s = r.EnterSection("sim"); !s.ok()) {
    return s;
  }
  const SimTime now = r.ReadI64();
  const uint64_t next_seq = r.ReadU64();
  const uint64_t events_executed = r.ReadU64();
  const uint64_t event_digest = r.ReadU64();
  const SimTime last_time = r.ReadI64();
  const uint64_t last_seq = r.ReadU64();
  const bool any_executed = r.ReadBool();
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (now < 0 || next_seq < events_executed) {
    return DataLossError("simulator checkpoint state is inconsistent");
  }
  now_ = now;
  next_seq_ = next_seq;
  events_executed_ = events_executed;
  event_digest_ = event_digest;
  last_time_ = last_time;
  last_seq_ = last_seq;
  any_executed_ = any_executed;
  return Status::Ok();
}

Status Simulator::ResyncAt(SimTime barrier) {
  if (!queue_.Empty()) {
    return FailedPreconditionError(
        "simulator queue not drained: barrier resync requires quiescence");
  }
  if (barrier < 0) {
    return InvalidArgumentError("barrier resync to a negative time");
  }
  now_ = barrier;
  // The ordering bookkeeping restarts from the barrier: the next event popped
  // starts a fresh (time, seq) chain, and the ladder's pop floor (stuck at the
  // pre-resync clock) is discarded with the ladder itself. Sequence counter
  // and digest carry forward — the digest must keep folding the same global
  // stream whether or not the run was segmented.
  last_time_ = 0;
  last_seq_ = 0;
  any_executed_ = false;
  queue_ = LadderEventQueue();
  return Status::Ok();
}

}  // namespace rpcscope
