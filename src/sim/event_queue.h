// The discrete-event simulator's event queue.
//
// LadderEventQueue hands out event keys in exact (time, insertion-sequence)
// order — the order the determinism digest folds. It is a two-level
// ladder/calendar queue: a window of near-future buckets gives O(1) insertion
// and amortized O(1) extraction for the dominant case (events scheduled
// microseconds ahead); a min-heap overflow holds far-future events until the
// window advances over them. Bucket width adapts to the observed event
// density two ways: gradually at window rebuilds, and immediately
// (multiplicatively) when the cursor reaches a bucket crowded enough that
// per-bucket sorting would be doing the heap's job. Pushes that land at or
// behind the cursor go to a small side heap instead of re-sorting the drained
// bucket, so no push ever pays more than O(log side) regardless of bucket
// occupancy.
//
// It is the only production queue. A binary min-heap
// (tests/sim/binary_heap_event_queue.h) is the test oracle the queue tests
// compare the ladder with, op by op.
//
// The queue orders keys, not callbacks: a SimEvent names the Simulator slab
// slot that holds its callback, so buckets, heaps and sorts move 24 bytes
// per event and never run a callback's relocation. The queue does not
// allocate per event in steady state: bucket vectors retain their capacity
// across windows.
#ifndef RPCSCOPE_SRC_SIM_EVENT_QUEUE_H_
#define RPCSCOPE_SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"

namespace rpcscope {

// An event's key: when it runs, its insertion sequence, and the Simulator
// slab slot that holds its callback.
struct SimEvent {
  SimTime time = 0;
  uint64_t seq = 0;
  uint32_t slot = 0;
};
// Buckets, the side heap and the overflow heap all move whole keys: keep one
// at (time, seq) plus the slot index.
static_assert(sizeof(SimEvent) == 24, "SimEvent grew: every queued event costs more to move");

namespace event_queue_internal {

// "a executes after b": orders a max-heap whose front is the earliest event.
struct ExecutesAfter {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.seq > b.seq;
  }
};

// "(time, seq) of a before b": sort order within a ladder bucket.
struct ExecutesBefore {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  }
};

}  // namespace event_queue_internal

class LadderEventQueue {
 public:
  void Push(SimEvent ev) {
    // Every pushed event satisfies ev.time >= the simulator clock >= floor_,
    // but not necessarily >= win_start_: a rebalance may anchor the window at
    // a pending cluster ahead of the clock (Front() runs without a pop when
    // RunBefore stops at its bound), and a push can then land in the gap
    // before it.
    RPCSCOPE_DCHECK_GE(ev.time, floor_) << "event scheduled before the pop floor";
    const int64_t delta = ev.time - win_start_;
    ++size_;
    if (delta >= 0) {
      const uint64_t idx = static_cast<uint64_t>(delta) >> shift_;
      if (idx >= kNumBuckets) {
        overflow_.push_back(ev);
        std::push_heap(overflow_.begin(), overflow_.end(),
                       event_queue_internal::ExecutesAfter{});
        return;
      }
      if (idx > cur_ || (idx == cur_ && !cur_sorted_)) {
        buckets_[idx].push_back(ev);
        return;
      }
    }
    // Before the window, behind the drain position (the cursor peeked past
    // empty buckets and the clock advanced), or inside the bucket being
    // drained. The side heap keeps these ordered without re-sorting or
    // shifting the drained bucket; Front() merges the two streams.
    side_.push_back(ev);
    std::push_heap(side_.begin(), side_.end(), event_queue_internal::ExecutesAfter{});
  }

  bool Empty() const { return size_ == 0; }
  size_t Size() const { return size_; }

  // Earliest pending key; positions the cursor on it and records whether it
  // lives in the side heap or the current bucket (cheap and idempotent).
  // Requires !Empty().
  const SimEvent& Front();

  SimTime PeekTime() { return Front().time; }

  // Removes and returns the earliest key. Requires !Empty().
  SimEvent PopFront() {
    Front();
    return PopPositioned();
  }

  // Removes and returns the key the preceding Front() returned, without
  // positioning again: the dispatch loop reads the front's time and pops it
  // with one positioning. No Push may come between the two calls.
  SimEvent PopPositioned() {
    RPCSCOPE_DCHECK(size_ > 0) << "pop from an empty ladder queue";
    SimEvent ev;
    if (front_in_side_) {
      std::pop_heap(side_.begin(), side_.end(), event_queue_internal::ExecutesAfter{});
      ev = side_.back();
      side_.pop_back();
    } else {
      ev = buckets_[cur_][cur_pos_];
      ++cur_pos_;
    }
    --size_;
    ++drained_in_window_;
    floor_ = ev.time;
    return ev;
  }

  // Current bucket-width exponent (bucket spans 1 << shift ns); for tests.
  int width_shift() const { return shift_; }

 private:
  static constexpr size_t kBucketBits = 9;
  static constexpr size_t kNumBuckets = size_t{1} << kBucketBits;  // 512
  // Width starts at 4.1us (2 ms window): wide enough that typical RPC-stack
  // delays land in-window, and density adaptation takes it from there.
  static constexpr int kInitialShift = 12;
  // At shift 55 the window spans > 2^63 ns, so any representable event time
  // lands in-window and RebuildWindow always makes progress.
  static constexpr int kMaxShift = 55;
  // A bucket the cursor is about to sort that holds more than kSplitOccupancy
  // events triggers an immediate Rebalance targeting ~kTargetOccupancy per
  // bucket, so density spikes never degrade into one giant sorted bucket.
  static constexpr size_t kSplitOccupancy = 64;
  static constexpr size_t kTargetOccupancy = 8;

  // Narrows the bucket width and redistributes every in-window event so the
  // dense current bucket spreads to ~kTargetOccupancy events per bucket.
  // Returns false (no change) when the bucket is pure timestamp ties, which
  // no width can separate.
  bool TryRebalance();
  void RebuildWindow();

  std::array<std::vector<SimEvent>, kNumBuckets> buckets_;
  // Min-heap (via ExecutesAfter) of events beyond the current window.
  std::vector<SimEvent> overflow_;
  // Min-heap of events at or behind the cursor; merged with the current
  // bucket by Front(). Always drained before the cursor advances.
  std::vector<SimEvent> side_;
  // Reused gather buffer for Rebalance (capacity retained across calls).
  std::vector<SimEvent> rebalance_scratch_;
  SimTime win_start_ = 0;  // Inclusive start of the bucket window.
  SimTime floor_ = 0;      // Time of the most recently popped event.
  int shift_ = kInitialShift;
  size_t cur_ = 0;        // Bucket the cursor drains next.
  size_t cur_pos_ = 0;    // Next undrained element of buckets_[cur_].
  bool cur_sorted_ = false;
  bool front_in_side_ = false;  // Set by Front(): where the earliest event is.
  size_t size_ = 0;
  size_t drained_in_window_ = 0;  // Pops since the last window rebuild.
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_SIM_EVENT_QUEUE_H_
