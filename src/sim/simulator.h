// Discrete-event simulation engine.
//
// The fleet substrate runs entirely on virtual time: events carry a callback
// and execute in (time, insertion-sequence) order, making every run
// deterministic for a fixed seed. The engine is single-threaded on purpose —
// concurrency in the modeled system (server worker pools, network links) is
// expressed as resources over virtual time, not as host threads.
//
// Hot-path design (docs/PERF.md): callbacks are SimCallback (inline storage,
// pooled arena for large captures) and the pending-event set lives in a
// ladder/calendar queue, so steady-state Schedule/dispatch is allocation-free
// and mostly O(1). A binary heap serves only as a test oracle
// (tests/sim/binary_heap_event_queue.h) that the queue tests compare the
// ladder with, op by op. PopEvent CHECKs strict (time, seq) order on every
// event, so a run that executes every scheduled event once executes them in
// exactly the heap's order.
#ifndef RPCSCOPE_SRC_SIM_SIMULATOR_H_
#define RPCSCOPE_SRC_SIM_SIMULATOR_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/common/digest.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/sim/callback.h"
#include "src/sim/event_queue.h"

namespace rpcscope {

class CheckpointWriter;
class CheckpointReader;

// RPCSCOPE_CHECKPOINTED(CheckpointTo, RestoreFrom)
class Simulator {
 public:
  using Callback = SimCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` after the current time (delay >= 0). A
  // negative delay is a caller bug: debug builds DCHECK-fail on it, release
  // builds clamp it to zero and continue. `now + delay` saturates at the end
  // of virtual time instead of wrapping.
  void Schedule(SimDuration delay, Callback fn);

  // Schedules `fn` at an absolute time. Scheduling in the past is a caller
  // bug: debug builds DCHECK-fail, release builds clamp to now.
  void ScheduleAt(SimTime when, Callback fn);

  // Runs until the event queue drains. Returns the number of events executed.
  uint64_t Run();

  // Runs events with time <= until (events exactly at `until` execute).
  // Advances Now() to `until` even if the queue drains earlier.
  uint64_t RunUntil(SimTime until);

  // Runs events with time strictly < until (events exactly at `until` do NOT
  // execute). Unlike RunUntil, does not advance Now() past the last executed
  // event: the conservative-PDES round loop (src/sim/parallel/) needs the
  // clock to stay at the last local event so that messages arriving exactly
  // at the round boundary can still be scheduled without clamping.
  uint64_t RunBefore(SimTime until);

  // Timestamp of the earliest pending event, or kMaxSimTime when the queue is
  // empty. The shard executor uses this to size adaptive rounds.
  SimTime NextEventTime() { return queue_.Empty() ? kMaxSimTime : queue_.PeekTime(); }

  // RunUntil(now + duration), saturating instead of wrapping on overflow.
  uint64_t RunFor(SimDuration duration) { return RunUntil(AddClamped(now_, duration)); }

  bool empty() const { return queue_.Empty(); }
  uint64_t events_executed() const { return events_executed_; }
  // Events ever scheduled (the next sequence number). Once the queue drains,
  // events_scheduled() == events_executed() says every event ran exactly once.
  uint64_t events_scheduled() const { return next_seq_; }

  // Order-sensitive digest of every (time, seq) pair executed so far (FNV-1a
  // over the event stream). Two runs of the same seeded workload must produce
  // identical digests; the determinism regression tests and the CI smoke test
  // diff this value.
  uint64_t event_digest() const { return event_digest_; }

  // Checkpoint support (src/checkpoint/). The event queue holds closures and
  // cannot be persisted, so both directions require a drained queue: the
  // clock, sequence counter, and digest serialize, and schedulers re-arm
  // their own future events after Restore. Serialize fails if any event is
  // pending; Restore fails on a pre-populated queue. The section keeps the
  // byte that once named the queue kind; it is always 0 (the ladder).
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

  // Re-synchronizes the clock at a quiescent epoch barrier
  // (docs/ROBUSTNESS.md#checkpointrestore). A drained segment leaves each
  // shard's clock at its own last cascade event — past the barrier on busy
  // shards — which would force the next epoch's cross-shard deliveries into
  // their receivers' past. With the queue empty the clock can simply be set
  // to the common barrier time: the ladder is rebuilt (its pop floor is as
  // stale as the clock) and the executed-order bookkeeping restarts, while
  // the sequence counter and digest continue. Fails if events are pending.
  [[nodiscard]] Status ResyncAt(SimTime barrier);

 private:
  // Pops the front event, advances the clock (checking monotonicity and
  // (time, seq) ordering), and folds the event into the digest.
  SimEvent PopEvent();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t event_digest_ = kFnvOffsetBasis;
  // (time, seq) of the most recently executed event, for ordering checks.
  SimTime last_time_ = 0;
  uint64_t last_seq_ = 0;
  bool any_executed_ = false;
  LadderEventQueue queue_;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_SIM_SIMULATOR_H_
