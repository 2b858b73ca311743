#include "src/sim/event_queue.h"

namespace rpcscope {

const SimEvent& LadderEventQueue::Front() {
  RPCSCOPE_DCHECK(size_ > 0) << "Front() on an empty ladder queue";
  for (;;) {
    if (cur_ < kNumBuckets) {
      std::vector<SimEvent>& bucket = buckets_[cur_];
      if (!cur_sorted_) {
        if (bucket.size() > kSplitOccupancy && shift_ > 0 && TryRebalance()) {
          // Too dense to drain as one sorted run, and narrowing actually
          // separates the events: redistribute before committing to the
          // O(n log n) sort. The loop re-enters with the (much smaller) new
          // current bucket.
          continue;
        }
        // First visit to this bucket in the current window: sort once, then
        // drain front-to-back. cur_pos_ is 0 here (consumed prefixes only
        // exist after sorting). Buckets fill in seq order, so same-time
        // clusters — the common dense case — arrive already sorted and the
        // O(n) check skips the sort.
        if (!std::is_sorted(bucket.begin(), bucket.end(),
                            event_queue_internal::ExecutesBefore{})) {
          std::sort(bucket.begin(), bucket.end(), event_queue_internal::ExecutesBefore{});
        }
        cur_sorted_ = true;
      }
      const bool in_bucket = cur_pos_ < bucket.size();
      if (!side_.empty() &&
          (!in_bucket || event_queue_internal::ExecutesBefore{}(side_.front(),
                                                               bucket[cur_pos_]))) {
        front_in_side_ = true;
        return side_.front();
      }
      if (in_bucket) {
        front_in_side_ = false;
        return bucket[cur_pos_];
      }
      // Bucket exhausted and the side heap has nothing earlier (it only ever
      // holds events at or before the current bucket's span, so it is empty
      // here): release the consumed events — capacity is retained, so
      // steady-state windows never reallocate — and step forward.
      bucket.clear();
      cur_pos_ = 0;
      cur_sorted_ = false;
      ++cur_;
      continue;
    }
    // Window exhausted with events still pending: they are all in overflow.
    RPCSCOPE_DCHECK(side_.empty()) << "side events survived past the window";
    RebuildWindow();
  }
}

bool LadderEventQueue::TryRebalance() {
  std::vector<SimEvent>& dense = buckets_[cur_];
  // Narrowing only separates events with distinct times. A bucket of pure
  // ties (same timestamp, different seq) stays one bucket at any width — the
  // caller sorts it once instead, which is also what prevents a livelock of
  // narrow (rebalance) / widen (rebuild) cycles chasing an unsplittable tie.
  SimTime bmin = dense.front().time;
  SimTime bmax = bmin;
  for (const SimEvent& ev : dense) {
    bmin = std::min(bmin, ev.time);
    bmax = std::max(bmax, ev.time);
  }
  const uint64_t span = static_cast<uint64_t>(bmax - bmin);
  if (span == 0) {
    return false;
  }
  // Narrow until the observed span spreads to ~kTargetOccupancy events per
  // bucket (the span covers `occupancy` events, so it should cover
  // occupancy / kTargetOccupancy buckets at the new width).
  const size_t occupancy = dense.size();
  int new_shift = shift_ - 1;
  while (new_shift > 0 && (span >> new_shift) * kTargetOccupancy < occupancy) {
    --new_shift;
  }
  // Tie-heavy clusters make the occupancy target unreachable (a cluster stays
  // one bucket at any width), so the loop above can over-narrow. Keep the
  // window at least ~8x the observed span: the cluster's successor events are
  // scheduled a few spans ahead and must stay in-window, not round-trip
  // through the overflow heap.
  while (new_shift < shift_ - 1 &&
         (uint64_t{kNumBuckets} << new_shift) < 8 * span) {
    ++new_shift;
  }
  shift_ = new_shift;

  // Anchor the narrowed window at the earliest pending event, not at floor_:
  // after a long empty gap (a timer wave 5 ms out) the dense cluster sits far
  // from the last popped time, and a narrow window anchored at floor_ could
  // not contain it — every event would bounce back to overflow and the next
  // rebuild would widen again, forever. The side heap may hold events even
  // earlier than the dense bucket; they re-bucket with everything else.
  SimTime anchor = bmin;
  if (!side_.empty()) {
    anchor = std::min(anchor, side_.front().time);
  }

  // Gather every in-window event. The current bucket is unvisited here
  // (cur_pos_ == 0), and the side heap's events re-bucket like any other.
  rebalance_scratch_.clear();
  for (size_t i = cur_; i < kNumBuckets; ++i) {
    rebalance_scratch_.insert(rebalance_scratch_.end(), buckets_[i].begin(), buckets_[i].end());
    buckets_[i].clear();
  }
  rebalance_scratch_.insert(rebalance_scratch_.end(), side_.begin(), side_.end());
  side_.clear();

  win_start_ = anchor;
  cur_ = 0;
  cur_pos_ = 0;
  cur_sorted_ = false;
  drained_in_window_ = 0;
  for (const SimEvent& ev : rebalance_scratch_) {
    RPCSCOPE_DCHECK_GE(ev.time, win_start_) << "pending event before the pop floor";
    const uint64_t idx = static_cast<uint64_t>(ev.time - win_start_) >> shift_;
    if (idx >= kNumBuckets) {
      overflow_.push_back(ev);
      std::push_heap(overflow_.begin(), overflow_.end(),
                     event_queue_internal::ExecutesAfter{});
    } else {
      buckets_[idx].push_back(ev);
    }
  }
  rebalance_scratch_.clear();

  // The re-anchored window can extend past the *old* window's end (it starts
  // at the dense cluster, not at the old origin), into the range earlier
  // pushes sent to overflow. Pull every overflow event that now lands
  // in-window into its bucket — left in the heap it would only surface at the
  // next rebuild, after later in-window events: out of order.
  while (!overflow_.empty()) {
    const SimTime t = overflow_.front().time;
    RPCSCOPE_DCHECK_GE(t, win_start_) << "overflow event before the window start";
    const uint64_t idx = static_cast<uint64_t>(t - win_start_) >> shift_;
    if (idx >= kNumBuckets) {
      break;  // Heap order: everything behind the front is even later.
    }
    std::pop_heap(overflow_.begin(), overflow_.end(), event_queue_internal::ExecutesAfter{});
    buckets_[idx].push_back(overflow_.back());
    overflow_.pop_back();
  }
  return true;
}

void LadderEventQueue::RebuildWindow() {
  RPCSCOPE_DCHECK(!overflow_.empty()) << "rebuild with no pending events";

  // Widen when the finished window was mostly empty buckets: each rebuild
  // advanced virtual time too little for the cursor-scan cost it paid.
  // (Narrowing is TryRebalance's job — it sees actual bucket occupancy, which
  // distinguishes genuinely dense windows from tie clusters that no width can
  // split.)
  if (drained_in_window_ < kNumBuckets / 8 && shift_ < kMaxShift) {
    ++shift_;
  }
  drained_in_window_ = 0;

  // Re-anchor at the last popped time: every pending and future event is at
  // or after it, so bucket deltas stay non-negative. Widen until the earliest
  // pending event fits the window, guaranteeing progress.
  win_start_ = floor_;
  const SimTime min_time = overflow_.front().time;
  while ((static_cast<uint64_t>(min_time - win_start_) >> shift_) >= kNumBuckets &&
         shift_ < kMaxShift) {
    ++shift_;
  }
  cur_ = 0;
  cur_pos_ = 0;
  cur_sorted_ = false;

  // Pull every overflow event that now lands in the window into its bucket.
  while (!overflow_.empty()) {
    const uint64_t idx = static_cast<uint64_t>(overflow_.front().time - win_start_) >> shift_;
    if (idx >= kNumBuckets) {
      break;  // Heap order: everything behind the front is even later.
    }
    std::pop_heap(overflow_.begin(), overflow_.end(), event_queue_internal::ExecutesAfter{});
    buckets_[idx].push_back(overflow_.back());
    overflow_.pop_back();
  }
}

}  // namespace rpcscope
