// Determinism regression test: the observability results in this repo are
// only meaningful if a fixed seed reproduces the exact same fleet execution.
// Runs the mini-fleet twice with the same seed and asserts that the
// (time, seq) event digest, the event count, and the full span stream match
// bit-for-bit — then runs a different seed and asserts the digest moves, and
// checks that a single-domain run executes every event it schedules.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/fleet/mini_fleet.h"
#include "src/fleet/service_catalog.h"

namespace rpcscope {
namespace {

// FNV-1a over every determinism-relevant span field, in stream order.
uint64_t HashSpans(const std::vector<Span>& spans) {
  uint64_t digest = 14695981039346656037ull;
  auto mix = [&digest](uint64_t word) {
    constexpr uint64_t kPrime = 1099511628211ull;
    for (int i = 0; i < 8; ++i) {
      digest ^= (word >> (8 * i)) & 0xff;
      digest *= kPrime;
    }
  };
  for (const Span& s : spans) {
    mix(s.trace_id);
    mix(s.span_id);
    mix(s.parent_span_id);
    mix(static_cast<uint64_t>(s.method_id));
    mix(static_cast<uint64_t>(s.service_id));
    mix(static_cast<uint64_t>(s.start_time));
    mix(static_cast<uint64_t>(s.status));
    mix(static_cast<uint64_t>(s.request_wire_bytes));
    mix(static_cast<uint64_t>(s.response_wire_bytes));
    for (SimDuration component : s.latency.components) {
      mix(static_cast<uint64_t>(component));
    }
  }
  return digest;
}

MiniFleetOptions TestOptions(uint64_t seed) {
  MiniFleetOptions options;
  options.duration = Seconds(1);
  options.warmup = Millis(200);
  options.frontend_rps = 300;
  options.seed = seed;
  return options;
}

TEST(DeterminismTest, SameSeedReproducesIdenticalEventStreamAndSpans) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  const MiniFleetResult a = RunMiniFleet(catalog, TestOptions(0xf1ee7));
  const MiniFleetResult b = RunMiniFleet(catalog, TestOptions(0xf1ee7));

  EXPECT_GT(a.events_executed, 0u);
  EXPECT_GT(a.spans.size(), 0u);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.root_calls, b.root_calls);
  EXPECT_EQ(a.spans.size(), b.spans.size());
  EXPECT_EQ(HashSpans(a.spans), HashSpans(b.spans));
  EXPECT_EQ(a.spans_per_service, b.spans_per_service);
}

TEST(DeterminismTest, SingleDomainFleetExecutesEveryScheduledEvent) {
  // The ladder queue must lose no event and run none twice. The Simulator
  // CHECKs strict (time, seq) order on every pop, so a drained run in which
  // every scheduled event executed once ran them in exactly the order of the
  // reference binary heap (tests/sim/binary_heap_event_queue.h).
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  // Loaded enough to run well over 10^5 events, so a queue that loses even
  // one event in 10^5 is caught.
  MiniFleetOptions options = TestOptions(0xf1ee7);
  options.frontend_rps = 2000;
  MiniFleet fleet(catalog, options);
  ASSERT_TRUE(fleet.ArmThrough(kMaxSimTime).ok());
  fleet.RunSegment(kMaxSimTime);
  const Simulator& sim = fleet.system().sim();
  EXPECT_TRUE(sim.empty());
  EXPECT_GT(sim.events_executed(), 100000u);
  EXPECT_EQ(sim.events_executed(), sim.events_scheduled());
}

TEST(DeterminismTest, DifferentSeedProducesDifferentEventStream) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  const MiniFleetResult a = RunMiniFleet(catalog, TestOptions(0xf1ee7));
  const MiniFleetResult c = RunMiniFleet(catalog, TestOptions(0xbeef));
  EXPECT_NE(a.event_digest, c.event_digest);
}

}  // namespace
}  // namespace rpcscope
