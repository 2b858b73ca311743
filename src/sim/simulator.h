// Discrete-event simulation engine.
//
// The fleet substrate runs entirely on virtual time: events carry a callback
// and execute in (time, insertion-sequence) order, making every run
// deterministic for a fixed seed. The engine is single-threaded on purpose —
// concurrency in the modeled system (server worker pools, network links) is
// expressed as resources over virtual time, not as host threads.
//
// Hot-path design (docs/PERF.md): callbacks are SimCallback (inline storage,
// pooled arena for large captures) held in a slab of slots that never move,
// and the pending-event set is a ladder/calendar queue of 24-byte keys that
// name those slots, so steady-state Schedule/dispatch is allocation-free,
// moves each callback once and is mostly O(1). A binary heap serves only as a
// test oracle (tests/sim/binary_heap_event_queue.h) that the queue tests
// compare the ladder with, op by op. PopEvent CHECKs strict (time, seq) order
// on every event, so a run that executes every scheduled event once executes
// them in exactly the heap's order.
#ifndef RPCSCOPE_SRC_SIM_SIMULATOR_H_
#define RPCSCOPE_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/digest.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/sim/callback.h"
#include "src/sim/event_queue.h"

namespace rpcscope {

class CheckpointWriter;
class CheckpointReader;

// Stable storage for pending callbacks. Slots live in fixed blocks that never
// move, so a callback runs in place even while it schedules more events (which
// may add a block). A slot is constructed when an event is scheduled into it
// and destroyed after the event runs; a block's memory is only touched slot by
// slot. Freed slots form a LIFO list threaded through their own bytes, so the
// next schedule reuses the slot the last dispatch left in cache.
class CallbackSlab {
 public:
  // 512 slots of 64 bytes: a 32 KiB block.
  static constexpr uint32_t kBlockBits = 9;
  static constexpr uint32_t kSlotsPerBlock = uint32_t{1} << kBlockBits;

  CallbackSlab() = default;
  CallbackSlab(const CallbackSlab&) = delete;
  CallbackSlab& operator=(const CallbackSlab&) = delete;
  // Requires live() == 0: the owner destroys pending callbacks first.
  ~CallbackSlab();

  // Moves `fn` into a free slot and returns the slot's index.
  uint32_t Put(SimCallback&& fn) {
    uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      std::memcpy(&free_head_, Bytes(slot), sizeof(free_head_));
    } else {
      if (touched_ == blocks_.size() * kSlotsPerBlock) {
        blocks_.push_back(std::make_unique_for_overwrite<Block>());
      }
      slot = touched_++;
    }
    ::new (static_cast<void*>(Bytes(slot))) SimCallback(std::move(fn));
    ++live_;
    return slot;
  }

  // The callback in a live slot.
  SimCallback& At(uint32_t slot) {
    return *std::launder(reinterpret_cast<SimCallback*>(Bytes(slot)));
  }

  // Destroys the callback in a live slot and frees the slot.
  void Release(uint32_t slot) {
    At(slot).~SimCallback();
    std::memcpy(Bytes(slot), &free_head_, sizeof(free_head_));
    free_head_ = slot;
    --live_;
  }

  // Slots holding a callback.
  size_t live() const { return live_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr uint32_t kSlotMask = kSlotsPerBlock - 1;

  struct Block {
    alignas(SimCallback) unsigned char slots[kSlotsPerBlock][sizeof(SimCallback)];
  };

  unsigned char* Bytes(uint32_t slot) {
    return blocks_[slot >> kBlockBits]->slots[slot & kSlotMask];
  }

  std::vector<std::unique_ptr<Block>> blocks_;
  uint32_t touched_ = 0;  // Slots [0, touched_) have held a callback.
  uint32_t free_head_ = kNoSlot;
  size_t live_ = 0;
};

// RPCSCOPE_CHECKPOINTED(CheckpointTo, RestoreFrom)
class Simulator {
 public:
  using Callback = SimCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  // Destroys each pending event's callback once, without running it.
  ~Simulator();

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

  // Runs events with time strictly < until (events exactly at `until` do NOT
  // execute). Does not advance Now() past the last executed event: the
  // conservative-PDES round loop (src/sim/parallel/) needs the clock to stay
  // at the last local event so that messages arriving exactly at the round
  // boundary can still be scheduled without clamping.
  uint64_t RunBefore(SimTime until);

  // Timestamp of the earliest pending event, or kMaxSimTime when the queue is
  // empty. The shard executor uses this to size adaptive rounds.
  SimTime NextEventTime() { return queue_.Empty() ? kMaxSimTime : queue_.PeekTime(); }

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

  // Checkpoint support (src/checkpoint/). Pending events hold closures that
  // cannot be persisted, so both directions require a drained queue and no
  // live slab slot: the clock, sequence counter, and digest serialize, and
  // schedulers re-arm their own future events after Restore. Serialize fails
  // if any event is pending; Restore fails on a pre-populated queue. The
  // section keeps the byte that once named the queue kind; it is always 0
  // (the ladder).
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
  // The dispatch loop behind Run (kBounded false) and RunBefore: each step
  // positions the queue once, pops the front key while its time is before
  // `until`, runs the slot's callback in place and releases the slot.
  template <bool kBounded>
  uint64_t Dispatch(SimTime until);

  // Pops the key Front() positioned on, advances the clock (checking
  // monotonicity and (time, seq) ordering), and folds the event into the
  // digest.
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
  // Holds the callback of every key in queue_, and nothing else.
  CallbackSlab slab_;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_SIM_SIMULATOR_H_
