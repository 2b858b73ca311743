#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/sim/callback.h"
#include "tests/sim/binary_heap_event_queue.h"

namespace rpcscope {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Millis(30), [&] { order.push_back(3); });
  sim.Schedule(Millis(10), [&] { order.push_back(1); });
  sim.Schedule(Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Millis(30));
}

TEST(SimulatorTest, FifoTieBreakAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Millis(1), [&, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, CallbacksCanScheduleMore) {
  Simulator sim;
  int hits = 0;
  std::function<void()> chain = [&] {
    ++hits;
    if (hits < 10) {
      sim.Schedule(Millis(1), chain);
    }
  };
  sim.Schedule(0, chain);
  sim.Run();
  EXPECT_EQ(hits, 10);
  EXPECT_EQ(sim.Now(), Millis(9));
}

TEST(SimulatorTest, NegativeDelayClampedInReleaseDiesInDebug) {
  if (kDCheckEnabled) {
    EXPECT_DEATH(
        {
          Simulator sim;
          sim.Schedule(-Millis(5), [] {});
        },
        "negative delay");
    return;
  }
  Simulator sim;
  sim.Schedule(Millis(10), [&] {
    sim.Schedule(-Millis(5), [&] { EXPECT_EQ(sim.Now(), Millis(10)); });
  });
  sim.Run();
}

TEST(SimulatorTest, ScheduleAtInThePastClampedInReleaseDiesInDebug) {
  if (kDCheckEnabled) {
    EXPECT_DEATH(
        {
          Simulator sim;
          ASSERT_TRUE(sim.ResyncAt(Millis(10)).ok());
          sim.ScheduleAt(Millis(5), [] {});
        },
        "scheduling in the past");
    return;
  }
  Simulator sim;
  ASSERT_TRUE(sim.ResyncAt(Millis(10)).ok());
  sim.ScheduleAt(Millis(5), [&] { EXPECT_EQ(sim.Now(), Millis(10)); });
  sim.Run();
}

TEST(SimulatorTest, ScheduleClampsAtMaxSimTimeInsteadOfOverflowing) {
  Simulator sim;
  ASSERT_TRUE(sim.ResyncAt(Seconds(1)).ok());
  SimTime seen = 0;
  // now_ + kMaxSimTime would overflow; the event must land at kMaxSimTime.
  sim.Schedule(kMaxSimTime, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, kMaxSimTime);
}

TEST(SimulatorTest, EventDigestIsOrderSensitive) {
  Simulator a;
  a.Schedule(Millis(1), [] {});
  a.Schedule(Millis(2), [] {});
  a.Run();

  Simulator b;  // Same events, scheduled in reverse: different seq pairing.
  b.Schedule(Millis(2), [] {});
  b.Schedule(Millis(1), [] {});
  b.Run();

  Simulator c;  // Identical schedule to `a` must reproduce its digest.
  c.Schedule(Millis(1), [] {});
  c.Schedule(Millis(2), [] {});
  c.Run();

  EXPECT_NE(a.event_digest(), b.event_digest());
  EXPECT_EQ(a.event_digest(), c.event_digest());
}

TEST(SimulatorTest, EventCountTracked) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(i, [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

// Schedules from inside running callbacks, past the end of a slab block,
// with nested schedules: each event runs once, in the heap oracle's order,
// with its capture intact (a slot reused while its event is pending would
// show here, where ASan cannot see it).
class SlabChurn {
 public:
  explicit SlabChurn(Simulator* sim) : sim_(sim) {}

  void ScheduleTracked(SimDuration delay, int depth) {
    const uint64_t seq = sim_->events_scheduled();
    oracle_.Push(SimEvent{sim_->Now() + delay, seq, 0});
    runs_.push_back(0);
    if (seq % 2 == 0) {
      sim_->Schedule(delay, [this, seq, depth, check = ~seq] { Ran(seq, depth, check); });
    } else {
      char pad[96] = {};
      pad[0] = static_cast<char>(seq);
      sim_->Schedule(delay, [this, seq, depth, check = ~seq, pad] {
        EXPECT_EQ(pad[0], static_cast<char>(seq));
        Ran(seq, depth, check);
      });
    }
  }

  void Ran(uint64_t seq, int depth, uint64_t check) {
    EXPECT_EQ(check, ~seq) << "capture of event " << seq << " corrupted";
    const SimEvent expected = oracle_.PopFront();
    EXPECT_EQ(sim_->Now(), expected.time);
    EXPECT_EQ(seq, expected.seq);
    ++runs_[seq];
    if (depth == 0) {
      // More than a block of events, scheduled while this callback's own slot
      // is live: the slab grows under a running callback.
      for (uint32_t i = 0; i < CallbackSlab::kSlotsPerBlock + 37; ++i) {
        ScheduleTracked(static_cast<SimDuration>(rng_.NextBounded(Micros(40))), 1);
      }
    } else if (depth < 3 && seq % 3 == 0) {
      ScheduleTracked(0, depth + 1);
      ScheduleTracked(static_cast<SimDuration>(rng_.NextBounded(Micros(10))), depth + 1);
    }
  }

  const std::vector<int>& runs() const { return runs_; }
  bool oracle_empty() const { return oracle_.Empty(); }

 private:
  Simulator* sim_;
  BinaryHeapEventQueue oracle_;
  std::vector<int> runs_;
  Rng rng_{0x51ab};
};

TEST(SimulatorTest, SlabGrowsUnderRunningCallbacksAndRunsEachEventOnceInOrder) {
  Simulator sim;
  SlabChurn churn(&sim);
  churn.ScheduleTracked(Micros(1), 0);
  churn.ScheduleTracked(Micros(2), 0);
  sim.Run();
  EXPECT_TRUE(churn.oracle_empty());
  EXPECT_GT(churn.runs().size(), 2 * size_t{CallbackSlab::kSlotsPerBlock});
  for (size_t seq = 0; seq < churn.runs().size(); ++seq) {
    ASSERT_EQ(churn.runs()[seq], 1) << "event " << seq;
  }
  EXPECT_EQ(sim.events_executed(), sim.events_scheduled());
}

// Counts its own destruction, moved-from husks excluded.
class CountingCapture {
 public:
  explicit CountingCapture(int* destroyed) : destroyed_(destroyed) {}
  CountingCapture(CountingCapture&& other) noexcept : destroyed_(other.destroyed_) {
    other.destroyed_ = nullptr;
  }
  CountingCapture(const CountingCapture&) = delete;
  CountingCapture& operator=(const CountingCapture&) = delete;
  CountingCapture& operator=(CountingCapture&&) = delete;
  ~CountingCapture() {
    if (destroyed_ != nullptr) {
      ++*destroyed_;
    }
  }

 private:
  int* destroyed_;
};

TEST(SimulatorTest, DestroyingASimulatorDestroysEachPendingCaptureOnce) {
  constexpr int kInline = 300;
  constexpr int kPooled = 40;
  std::vector<int> destroyed(kInline + kPooled, 0);
  std::vector<int> ran(kInline + kPooled, 0);
  char pad[96] = {};
  auto pooled = [&](int i) {
    return [&ran, i, pad, capture = CountingCapture(&destroyed[static_cast<size_t>(i)])] {
      ran[static_cast<size_t>(i)] += 1 + pad[0];
    };
  };
  // Park one block per pooled capture, so scheduling them takes blocks from
  // the free list and destroying them must give every one back.
  {
    std::vector<SimCallback> warm;
    for (int i = 0; i < kPooled; ++i) {
      warm.emplace_back([pad] { (void)pad; });
    }
  }
  const size_t parked = callback_internal::CapturePool::FreeListBlocks();
  {
    Simulator sim;
    for (int i = 0; i < kInline; ++i) {
      // Near buckets, the far overflow heap, and same-time ties.
      const SimDuration delay = i % 5 == 0 ? Seconds(10 + i) : Micros(i % 50);
      sim.Schedule(delay, [&ran, i, capture = CountingCapture(&destroyed[static_cast<size_t>(i)])] {
        ++ran[static_cast<size_t>(i)];
      });
    }
    for (int i = kInline; i < kInline + kPooled; ++i) {
      SimCallback fn = pooled(i);
      ASSERT_TRUE(fn.is_pooled());
      sim.Schedule(i % 2 == 0 ? Micros(i) : Hours(1), std::move(fn));
    }
    EXPECT_EQ(callback_internal::CapturePool::FreeListBlocks(), parked - kPooled);
    // Run part of it: executed captures are destroyed after they run.
    sim.RunBefore(Micros(25));
    EXPECT_FALSE(sim.empty());
  }
  for (size_t i = 0; i < destroyed.size(); ++i) {
    EXPECT_EQ(destroyed[i], 1) << "capture " << i;
    EXPECT_LE(ran[i], 1) << "capture " << i;
  }
  EXPECT_EQ(callback_internal::CapturePool::FreeListBlocks(), parked);
}

TEST(SimulatorTest, ResyncAtRefusesPendingEventsAndSetsTheClock) {
  Simulator sim;
  sim.Schedule(Millis(1), [] {});
  EXPECT_FALSE(sim.ResyncAt(Millis(2)).ok());
  sim.Run();
  EXPECT_TRUE(sim.ResyncAt(Millis(2)).ok());
  EXPECT_EQ(sim.Now(), Millis(2));
}

}  // namespace
}  // namespace rpcscope
