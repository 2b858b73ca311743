#include "src/fleet/workload.h"

#include <algorithm>
#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/check.h"

namespace rpcscope {

EpochArrivals::EpochArrivals(Simulator* sim, double rate_per_second, SimTime until, uint64_t seed,
                             Arrival on_arrival)
    : sim_(sim),
      mean_gap_us_(1e6 / rate_per_second),
      until_(until),
      rng_(seed),
      on_arrival_(std::move(on_arrival)) {
  RPCSCOPE_CHECK(sim != nullptr);
  RPCSCOPE_CHECK_GT(rate_per_second, 0);
}

void EpochArrivals::ArmEpoch(SimTime epoch_end) {
  if (epoch_end <= epoch_end_) {
    return;
  }
  epoch_end_ = epoch_end;
  if (!started_) {
    // Lazy first draw: the first draw of the seeded stream, from the clock
    // at the first arming.
    started_ = true;
    next_time_ = sim_->Now() + DurationFromMicros(rng_.NextExponential(mean_gap_us_));
  }
  ScheduleParked();
}

void EpochArrivals::ScheduleParked() {
  if (!started_ || next_time_ >= epoch_end_) {
    return;  // Parked (or never armed); the next ArmEpoch picks it up.
  }
  // max() clamp: on a resumed run the shard clock can already sit past the
  // parked time (epoch-k cascades run past the boundary before draining).
  // The uninterrupted cadenced run clamps identically at its own ArmEpoch,
  // so the event stream stays bit-for-bit equal.
  sim_->ScheduleAt(std::max(next_time_, sim_->Now()), [this]() {
    if (sim_->Now() >= until_) {
      next_time_ = kMaxSimTime;  // Exhausted: never re-armed.
      return;
    }
    ++arrivals_;
    on_arrival_();
    next_time_ = sim_->Now() + DurationFromMicros(rng_.NextExponential(mean_gap_us_));
    ScheduleParked();
  });
}

void EpochArrivals::WriteTo(CheckpointWriter& w) const {
  w.BeginSection("arrivals");
  w.WriteDouble(mean_gap_us_);
  w.WriteI64(until_);
  WriteRngState(w, rng_);
  w.WriteI64(arrivals_);
  w.WriteBool(started_);
  w.WriteI64(next_time_);
  w.WriteI64(epoch_end_);
  w.EndSection();
}

Status EpochArrivals::RestoreFrom(CheckpointReader& r) {
  if (Status s = r.EnterSection("arrivals"); !s.ok()) {
    return s;
  }
  const double mean_gap_us = r.ReadDouble();
  const SimTime until = r.ReadI64();
  Rng rng(0);
  ReadRngState(r, rng);
  const int64_t arrivals = r.ReadI64();
  const bool started = r.ReadBool();
  const SimTime next_time = r.ReadI64();
  const SimTime epoch_end = r.ReadI64();
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (mean_gap_us != mean_gap_us_ || until != until_) {
    return FailedPreconditionError("arrivals: checkpoint is for a different arrival process");
  }
  rng_ = rng;
  arrivals_ = arrivals;
  started_ = started;
  next_time_ = next_time;
  epoch_end_ = epoch_end;
  return Status::Ok();
}

}  // namespace rpcscope
