// Open-loop workload generation.
//
// Hyperscale services see open-loop arrivals: clients do not slow down when
// the server queues (which is exactly why utilization drives the queueing
// tails of §3.3). EpochArrivals schedules an exponential-gap arrival process
// on the simulator until a stop time, one armed window at a time.
#ifndef RPCSCOPE_SRC_FLEET_WORKLOAD_H_
#define RPCSCOPE_SRC_FLEET_WORKLOAD_H_

#include <functional>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/sim/simulator.h"

namespace rpcscope {

class CheckpointWriter;
class CheckpointReader;

// Epoch-gated Poisson arrivals (docs/ROBUSTNESS.md#checkpointrestore).
// Nothing is scheduled until ArmEpoch(end), and the chain never plants a
// timer at or beyond the armed window end: an arrival drawn past the boundary
// is parked (its time remembered, no event queued) and re-armed by the next
// ArmEpoch. The event queue therefore drains to full quiescence at each epoch
// boundary — the precondition for serializing the simulator. A run that is
// not checkpointed calls ArmEpoch(kMaxSimTime) once, right after
// construction: the chain then keeps one pending timer until the first
// arrival at or after `until`, which runs as one terminal no-op event.
//
// ArmEpoch may only be called while the simulator is quiescent (before the
// run or between epoch segments); epoch ends must be strictly increasing.
// RPCSCOPE_CHECKPOINTED(EpochArrivals::WriteTo, EpochArrivals::RestoreFrom)
class EpochArrivals {
 public:
  using Arrival = std::function<void()>;

  EpochArrivals(Simulator* sim, double rate_per_second, SimTime until, uint64_t seed,
                Arrival on_arrival);

  EpochArrivals(const EpochArrivals&) = delete;
  EpochArrivals& operator=(const EpochArrivals&) = delete;

  // Extends the armed window to [previous end, epoch_end): draws the first
  // gap lazily on the first call, then schedules the parked arrival if it
  // now falls inside the window. No-op if epoch_end is not past the current
  // window end.
  void ArmEpoch(SimTime epoch_end);

  int64_t arrivals() const { return arrivals_; }

  // Checkpoint support: RNG stream, parked arrival time, and tally, in an
  // own "arrivals" section. Restore validates rate/until configuration and
  // applies nothing on mismatch; re-scheduling happens via the next ArmEpoch,
  // never from checkpoint bytes.
  void WriteTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  // Queues the parked arrival when it lies inside the armed window. The
  // chain keeps at most one pending timer; the stop check runs inside the
  // event (legacy parity), and an exhausted chain parks at kMaxSimTime.
  void ScheduleParked();

  Simulator* sim_;  // NOLINT(detan-checkpoint-field) structural
  double mean_gap_us_;
  SimTime until_;
  Rng rng_;
  Arrival on_arrival_;  // NOLINT(detan-checkpoint-field) structural
  int64_t arrivals_ = 0;
  bool started_ = false;     // First gap drawn.
  SimTime next_time_ = 0;    // Parked arrival time (valid once started).
  SimTime epoch_end_ = kMinSimTime;  // Armed window end.
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_FLEET_WORKLOAD_H_
