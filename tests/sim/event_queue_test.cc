// Cross-validation of the ladder queue against the reference binary heap.
//
// The two queues must be observably identical: any interleaving of pushes and
// pops yields the same (time, seq) sequence from both. The randomized test
// drives both through the same op stream the way the simulator does (pushed
// times never precede the last popped time), mixing same-time ties, far-future
// jumps that land in the overflow heap, and full drain/refill cycles that
// force window rebuilds.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "tests/sim/binary_heap_event_queue.h"

namespace rpcscope {
namespace {

using TimeSeq = std::pair<SimTime, uint64_t>;

// The slot is arbitrary here: the queue orders keys by (time, seq) and only
// carries the slot through, which the comparisons below check as well.
SimEvent MakeEvent(SimTime time, uint64_t seq) {
  return SimEvent{time, seq, static_cast<uint32_t>(seq * 7 + 3)};
}

TEST(EventQueueTest, LadderMatchesHeapOnSequentialPops) {
  LadderEventQueue ladder;
  BinaryHeapEventQueue heap;
  uint64_t seq = 0;
  for (SimTime t : {Millis(3), Millis(1), Millis(2), Millis(1), SimTime{0}}) {
    ladder.Push(MakeEvent(t, seq));
    heap.Push(MakeEvent(t, seq));
    ++seq;
  }
  while (!heap.Empty()) {
    ASSERT_FALSE(ladder.Empty());
    EXPECT_EQ(ladder.PeekTime(), heap.PeekTime());
    const SimEvent a = ladder.PopFront();
    const SimEvent b = heap.PopFront();
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.slot, b.slot);
  }
  EXPECT_TRUE(ladder.Empty());
}

TEST(EventQueueTest, FarFutureEventsGoThroughOverflowIntact) {
  LadderEventQueue ladder;
  BinaryHeapEventQueue heap;
  // Events far beyond the initial 2 ms window, interleaved with near ones.
  uint64_t seq = 0;
  for (SimTime t : {Seconds(20), Micros(5), Seconds(3), Micros(9), Hours(1),
                    Seconds(3), Micros(5)}) {
    ladder.Push(MakeEvent(t, seq));
    heap.Push(MakeEvent(t, seq));
    ++seq;
  }
  std::vector<TimeSeq> from_ladder;
  std::vector<TimeSeq> from_heap;
  while (!ladder.Empty()) {
    const SimEvent ev = ladder.PopFront();
    from_ladder.emplace_back(ev.time, ev.seq);
  }
  while (!heap.Empty()) {
    const SimEvent ev = heap.PopFront();
    from_heap.emplace_back(ev.time, ev.seq);
  }
  EXPECT_EQ(from_ladder, from_heap);
}

TEST(EventQueueTest, PushBehindPeekedCursorStaysOrdered) {
  LadderEventQueue ladder;
  // Seed one event well into the window, peek so the cursor walks past the
  // empty buckets before it, then push earlier events into that skipped span.
  ladder.Push(MakeEvent(Micros(1000), 0));
  EXPECT_EQ(ladder.PeekTime(), Micros(1000));
  ladder.Push(MakeEvent(Micros(10), 1));
  ladder.Push(MakeEvent(Micros(500), 2));
  EXPECT_EQ(ladder.PeekTime(), Micros(10));

  std::vector<TimeSeq> order;
  while (!ladder.Empty()) {
    const SimEvent ev = ladder.PopFront();
    order.emplace_back(ev.time, ev.seq);
  }
  EXPECT_EQ(order, (std::vector<TimeSeq>{
                       {Micros(10), 1}, {Micros(500), 2}, {Micros(1000), 0}}));
}

TEST(EventQueueTest, RebalanceCoversFormerOverflowRange) {
  // Regression: a dense cluster late in the window triggers a rebalance that
  // re-anchors the (narrower) window at the cluster — which can extend PAST
  // the old window's end, into the range earlier pushes sent to overflow.
  // Those overflow events must be pulled into the new window, or they pop
  // only at the next rebuild, after later in-window events: out of order.
  LadderEventQueue ladder;
  uint64_t seq = 0;
  // Beyond the initial ~2.1 ms window: goes to overflow.
  const SimTime overflow_time = 2120000;
  ladder.Push(MakeEvent(overflow_time, seq++));
  // A >64-event cluster with distinct times inside one late bucket: the first
  // pop sorts that bucket and trips the density rebalance, whose re-anchored
  // window now covers overflow_time.
  const SimTime cluster_base = 1998900;
  for (int i = 0; i < 70; ++i) {
    ladder.Push(MakeEvent(cluster_base + i * 50, seq++));
  }
  std::vector<TimeSeq> order;
  order.emplace_back(ladder.PopFront().time, 0);
  order.back().second = 0;  // Only times matter below; seqs are all distinct.
  // Pushed after the rebalance, later than the former overflow event but
  // inside the new window: without the fix this pops before overflow_time.
  ladder.Push(MakeEvent(overflow_time + 5000, seq++));
  while (!ladder.Empty()) {
    order.emplace_back(ladder.PopFront().time, 0);
  }
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1].first, order[i].first) << "pop " << i << " out of order";
  }
  EXPECT_EQ(order.size(), 72u);
}

TEST(EventQueueTest, RandomizedInterleavedOpsMatchReferenceExactly) {
  Rng rng(0xbadf00d);
  LadderEventQueue ladder;
  BinaryHeapEventQueue heap;
  SimTime now = 0;  // Simulator invariant: pushes never precede the last pop.
  uint64_t seq = 0;
  uint64_t pops = 0;
  for (int op = 0; op < 200000; ++op) {
    const bool push = heap.Empty() || rng.NextDouble() < 0.55;
    if (push) {
      SimDuration delta;
      const double r = rng.NextDouble();
      if (r < 0.70) {
        delta = static_cast<SimDuration>(rng.NextBounded(Micros(50)));  // Dense.
      } else if (r < 0.95) {
        delta = static_cast<SimDuration>(rng.NextBounded(Millis(5)));   // Window edge.
      } else {
        delta = static_cast<SimDuration>(rng.NextBounded(Seconds(30))); // Overflow.
      }
      if (rng.NextDouble() < 0.05) {
        delta = 0;  // Same-time tie with the current floor.
      }
      ladder.Push(MakeEvent(now + delta, seq));
      heap.Push(MakeEvent(now + delta, seq));
      ++seq;
    } else {
      ASSERT_EQ(ladder.PeekTime(), heap.PeekTime()) << "op " << op;
      const SimEvent a = ladder.PopFront();
      const SimEvent b = heap.PopFront();
      ASSERT_EQ(a.time, b.time) << "op " << op;
      ASSERT_EQ(a.seq, b.seq) << "op " << op;
      ASSERT_EQ(a.slot, b.slot) << "op " << op;
      now = a.time;
      ++pops;
    }
    ASSERT_EQ(ladder.Size(), heap.Size());
  }
  // Full drain at the end exercises window rebuilds over the whole backlog.
  while (!heap.Empty()) {
    const SimEvent a = ladder.PopFront();
    const SimEvent b = heap.PopFront();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
    ASSERT_EQ(a.slot, b.slot);
    ++pops;
  }
  EXPECT_TRUE(ladder.Empty());
  EXPECT_EQ(pops, seq);
}

TEST(EventQueueTest, BucketWidthAdaptsToDensity) {
  LadderEventQueue sparse;
  const int initial = sparse.width_shift();
  // A long sparse phase (one event per ~50 ms) must widen the buckets.
  SimTime t = 0;
  uint64_t seq = 0;
  for (int i = 0; i < 64; ++i) {
    t += Millis(50);
    sparse.Push(MakeEvent(t, seq++));
    (void)sparse.PopFront();
  }
  EXPECT_GT(sparse.width_shift(), initial);
}

// Simulator-level check: every scheduled event executes exactly once. The
// Simulator CHECKs strict (time, seq) order on every pop, so together the two
// pin the run to exactly the order the reference heap would produce.
TEST(EventQueueTest, SimulatorExecutesEveryScheduledEvent) {
  Simulator sim;
  Rng rng(0x5eed);
  // Self-rescheduling chains with random fan-out: a workload whose event
  // interleaving covers ties, bursts, and long jumps.
  std::function<void(int)> spawn = [&](int depth) {
    if (depth >= 6) {
      return;
    }
    const int children = 1 + static_cast<int>(rng.NextBounded(3));
    for (int c = 0; c < children; ++c) {
      const SimDuration d = static_cast<SimDuration>(rng.NextBounded(Millis(20)));
      sim.Schedule(d, [&spawn, depth] { spawn(depth + 1); });
    }
  };
  for (int i = 0; i < 8; ++i) {
    sim.Schedule(static_cast<SimDuration>(rng.NextBounded(Micros(100))), [&spawn] { spawn(0); });
  }
  sim.Schedule(Hours(2), [] {});  // One far-future overflow resident.
  sim.Run();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.events_executed(), sim.events_scheduled());
  EXPECT_GT(sim.events_executed(), 100u);
}

}  // namespace
}  // namespace rpcscope
