// Zero-allocation guarantee for the simulator hot path (docs/PERF.md).
//
// Lives in its own test executable because it replaces global operator
// new/delete with counting versions: after a warmup phase that grows every
// internal buffer (ladder buckets, callback capture pool), steady-state
// Schedule + dispatch must perform zero heap allocations — for small captures
// (inline SimCallback storage) and for large captures (recycled CapturePool
// blocks) alike.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/sim/callback.h"
#include "src/sim/simulator.h"

namespace {

uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rpcscope {
namespace {

// Self-rescheduling chain: each event schedules the next until `remaining`
// hits zero. The capture (one pointer) fits SimCallback's inline storage.
struct Chain {
  Simulator* sim;
  uint64_t remaining = 0;
  SimDuration step = Micros(1);

  void Step() {
    if (remaining == 0) {
      return;
    }
    --remaining;
    sim->Schedule(step, [this] { Step(); });
  }
};

// Large-capture chain: the padded lambda exceeds the inline budget, forcing
// the pooled-arena path on every schedule.
struct BigChain {
  Simulator* sim;
  uint64_t remaining = 0;

  void Step() {
    if (remaining == 0) {
      return;
    }
    --remaining;
    char pad[96] = {};
    pad[0] = 1;
    sim->Schedule(Micros(1), [this, pad] {
      (void)pad;
      Step();
    });
  }
};

// Runs `chain_count` parallel chains of `events_each` events and returns the
// number of heap allocations during the run (warmup excluded by the caller).
template <typename ChainT>
uint64_t RunPhase(Simulator& sim, ChainT* chains, int chain_count,
                  uint64_t events_each) {
  for (int i = 0; i < chain_count; ++i) {
    chains[i].remaining = events_each;
  }
  const uint64_t before = g_allocations;
  for (int i = 0; i < chain_count; ++i) {
    chains[i].Step();
  }
  sim.Run();
  return g_allocations - before;
}

TEST(AllocTest, SteadyStateDispatchIsAllocationFreeInlineCaptures) {
  Simulator sim;
  constexpr int kChains = 8;
  Chain chains[kChains];
  for (int i = 0; i < kChains; ++i) {
    chains[i].sim = &sim;
    // Mixed periods spread events across ladder buckets.
    chains[i].step = Micros(1 + i);
  }
  // Warmup: grow bucket vectors across several window rebuilds.
  (void)RunPhase(sim, chains, kChains, 20000);
  const uint64_t allocs = RunPhase(sim, chains, kChains, 20000);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocTest, SteadyStateDispatchIsAllocationFreePooledCaptures) {
  Simulator sim;
  constexpr int kChains = 4;
  BigChain chains[kChains];
  for (int i = 0; i < kChains; ++i) {
    chains[i].sim = &sim;
  }
  // Warmup primes the capture pool's per-size-class free lists.
  (void)RunPhase(sim, chains, kChains, 5000);
  EXPECT_GT(callback_internal::CapturePool::FreeListBlocks(), 0u);
  const uint64_t allocs = RunPhase(sim, chains, kChains, 5000);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocTest, LargeCapturesArePooledNotInline) {
  char pad[96] = {};
  SimCallback small([] {});
  SimCallback big([pad] { (void)pad; });
  EXPECT_FALSE(small.is_pooled());
  EXPECT_TRUE(big.is_pooled());
}

}  // namespace
}  // namespace rpcscope
