// Allocation guarantees for the simulator and the RPC path (docs/PERF.md).
//
// Lives in its own test executable because it replaces global operator
// new/delete with counting versions: after a warmup phase that grows every
// internal buffer (ladder buckets, callback capture pool), steady-state
// Schedule + dispatch must perform zero heap allocations — for small captures
// (inline SimCallback storage) and for large captures (recycled CapturePool
// blocks) alike. The capture pool takes its blocks from operator new, so a
// pool miss counts too. A whole single-domain mini-fleet must stay within a
// per-RPC allocation budget once warm.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "src/fleet/mini_fleet.h"
#include "src/fleet/service_catalog.h"
#include "src/rpc/call.h"
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

// --- SimFunction ------------------------------------------------------------

TEST(SimFunctionTest, ForwardsArgumentsAndReturnsTheResult) {
  SimFunction<int(int, const std::string&)> f = [](int a, const std::string& s) {
    return a + static_cast<int>(s.size());
  };
  EXPECT_EQ(f(2, "abc"), 5);
}

TEST(SimFunctionTest, MovesByValueArgumentsThrough) {
  // ServerResponder's shape: a by-value argument the target takes ownership
  // of. A move-only argument proves no copy happens on the way.
  SimFunction<int(std::unique_ptr<int>)> take = [](std::unique_ptr<int> p) { return *p; };
  EXPECT_EQ(take(std::make_unique<int>(7)), 7);

  ServerReply seen;
  ServerResponder respond = [&seen](ServerReply reply) { seen = std::move(reply); };
  ServerReply reply;
  reply.app_time = Micros(3);
  reply.local_response = Payload::Modeled(128);
  respond(std::move(reply));
  EXPECT_EQ(seen.app_time, Micros(3));
  EXPECT_EQ(seen.local_response.modeled_bytes(), 128);
}

TEST(SimFunctionTest, PlacesCapturesInlineOrPooledBySize) {
  char fits[SimCallback::kInlineBytes - sizeof(void*)] = {};
  char spills[SimCallback::kInlineBytes + 1] = {};
  int hits = 0;
  SimFunction<void(int)> inline_fn = [&hits, fits](int n) { hits += n + fits[0]; };
  SimFunction<void(int)> pooled_fn = [&hits, spills](int n) { hits += n + spills[0]; };
  EXPECT_FALSE(inline_fn.is_pooled());
  EXPECT_TRUE(pooled_fn.is_pooled());
  inline_fn(1);
  pooled_fn(2);
  EXPECT_EQ(hits, 3);
  // A SimFunction that captures another never fits the inline budget.
  SimCallback wrapped = [inner = std::move(inline_fn)]() mutable { inner(4); };
  EXPECT_TRUE(wrapped.is_pooled());
  wrapped();
  EXPECT_EQ(hits, 7);
}

TEST(SimFunctionTest, DroppedPooledCaptureReturnsItsBlock) {
  // Fabric::Send takes this path for a frame the interceptor drops: the
  // delivery is destroyed without ever being called.
  char pad[96] = {};
  auto payload = std::make_shared<int>(1);
  { SimCallback warm([pad] { (void)pad; }); }  // Parks one block of this class.
  const size_t parked = callback_internal::CapturePool::FreeListBlocks();
  {
    SimFunction<void(SimDuration)> delivery = [pad, payload](SimDuration) { (void)pad; };
    ASSERT_TRUE(delivery.is_pooled());
    EXPECT_EQ(callback_internal::CapturePool::FreeListBlocks(), parked - 1);
    EXPECT_EQ(payload.use_count(), 2);
  }
  EXPECT_EQ(payload.use_count(), 1);  // The capture was destroyed...
  EXPECT_EQ(callback_internal::CapturePool::FreeListBlocks(), parked);  // ...and recycled.
}

TEST(SimFunctionTest, MoveAssignmentTransfersAndSelfMoveKeepsTheTarget) {
  char pad[96] = {};
  int calls = 0;
  SimFunction<void()> a = [&calls] { ++calls; };
  SimFunction<void()> b = [&calls, pad] { calls += 10 + pad[0]; };
  a = std::move(b);  // Destroys a's inline target, takes b's pooled one.
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(a));
  EXPECT_TRUE(a.is_pooled());
  a();
  EXPECT_EQ(calls, 10);

  SimFunction<void()>& alias = a;
  a = std::move(alias);
  ASSERT_TRUE(static_cast<bool>(a));
  a();
  EXPECT_EQ(calls, 20);

  a = nullptr;
  EXPECT_FALSE(static_cast<bool>(a));
}

TEST(SimFunctionTest, EmptyConvertsToFalse) {
  SimFunction<void(SimDuration)> unset;
  SimFunction<void(SimDuration)> null = nullptr;
  CallCallback callback;
  EXPECT_FALSE(static_cast<bool>(unset));
  EXPECT_FALSE(static_cast<bool>(null));
  EXPECT_FALSE(static_cast<bool>(callback));
  EXPECT_FALSE(unset.is_pooled());
}

// --- Fleet budget -------------------------------------------------------------

uint64_t CompletedRpcs(MiniFleet& fleet) {
  const RpcSystem& system = fleet.system();
  return static_cast<uint64_t>(system.MergedCounter("client.completions_ok") +
                               system.MergedCounter("client.completions_err"));
}

// The whole RPC path once warm — client and server pipelines, the fabric,
// per-call state and the mini-fleet's handlers — recycles its storage: a
// single-domain fleet at fleet_dense's load allocates well under one block
// per completed RPC. What remains is amortized growth (span storage, hub
// windows), not per-call work.
TEST(AllocTest, FleetSteadyStateStaysWithinPerRpcBudget) {
  constexpr SimDuration kWarmEpoch = Seconds(1);
  MiniFleetOptions options;
  options.frontend_rps = 4000;
  options.duration = Seconds(4);
  options.warmup = 0;
  const ServiceCatalog services = ServiceCatalog::BuildDefault();
  MiniFleet fleet(services, options);

  // The first epoch warms every pool, ring and bucket; the rest is measured.
  ASSERT_TRUE(fleet.ArmThrough(kWarmEpoch).ok());
  fleet.RunSegment(kWarmEpoch);
  ASSERT_TRUE(fleet.ResyncAt(kWarmEpoch).ok());
  ASSERT_TRUE(fleet.ArmThrough(kMaxSimTime).ok());
  const uint64_t rpcs_before = CompletedRpcs(fleet);
  const uint64_t allocs_before = g_allocations;
  fleet.RunSegment(kMaxSimTime);
  const uint64_t allocs = g_allocations - allocs_before;
  const uint64_t rpcs = CompletedRpcs(fleet) - rpcs_before;

  ASSERT_GT(rpcs, 10000u);
  const double per_rpc = static_cast<double>(allocs) / static_cast<double>(rpcs);
  EXPECT_LE(per_rpc, 0.25) << allocs << " allocations over " << rpcs << " RPCs";
  std::printf("fleet budget: %llu allocations over %llu RPCs (%.4f per RPC)\n",
              static_cast<unsigned long long>(allocs), static_cast<unsigned long long>(rpcs),
              per_rpc);
}

}  // namespace
}  // namespace rpcscope
