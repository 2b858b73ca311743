#include "src/fleet/workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/sim/server_resource.h"

namespace rpcscope {
namespace {

TEST(EpochArrivalsTest, RateApproximatelyHonored) {
  Simulator sim;
  int64_t hits = 0;
  EpochArrivals arrivals(&sim, /*rate_per_second=*/1000.0, Seconds(20), 5,
                         [&hits]() { ++hits; });
  arrivals.ArmEpoch(kMaxSimTime);
  sim.Run();
  // 20s at 1000/s => ~20000 arrivals; Poisson sd ~141.
  EXPECT_NEAR(static_cast<double>(hits), 20000.0, 600.0);
  EXPECT_EQ(arrivals.arrivals(), hits);
}

TEST(EpochArrivalsTest, StopsAtDeadline) {
  Simulator sim;
  SimTime last = 0;
  EpochArrivals arrivals(&sim, 500.0, Seconds(2), 6, [&]() { last = sim.Now(); });
  arrivals.ArmEpoch(kMaxSimTime);
  sim.Run();
  EXPECT_LT(last, Seconds(2));
  EXPECT_GT(last, Millis(1900));
}

TEST(EpochArrivalsTest, GapsAreExponential) {
  Simulator sim;
  std::vector<double> gaps;
  SimTime prev = 0;
  EpochArrivals arrivals(&sim, 10000.0, Seconds(5), 7, [&]() {
    gaps.push_back(ToMicros(sim.Now() - prev));
    prev = sim.Now();
  });
  arrivals.ArmEpoch(kMaxSimTime);
  sim.Run();
  ASSERT_GT(gaps.size(), 10000u);
  // Mean gap ~100us; CV of an exponential is 1.
  double sum = 0, sumsq = 0;
  for (double g : gaps) {
    sum += g;
    sumsq += g * g;
  }
  const double n = static_cast<double>(gaps.size());
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 100.0, 5.0);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(EpochArrivalsTest, DrivesResourceToTargetUtilization) {
  Simulator sim;
  ServerResource res(&sim, {.workers = 4});
  Rng service_rng(8);
  // 4 workers with 1 ms mean service at 60% utilization: 0.6 * 4 / 1 ms.
  const double rate = 2400.0;
  EpochArrivals arrivals(&sim, rate, Seconds(30), 9, [&]() {
    res.Submit(DurationFromMicros(service_rng.NextExponential(1000.0)),
               [](SimDuration, SimDuration) {});
  });
  arrivals.ArmEpoch(kMaxSimTime);
  sim.Run();
  const double utilization =
      static_cast<double>(res.busy_time()) / (static_cast<double>(sim.Now()) * 4);
  EXPECT_NEAR(utilization, 0.6, 0.06);
}

// The epoch-gating contract checkpointed runs rest on: arming in epochs and
// running the simulator dry between them yields exactly the arrivals (and
// the event stream) of one ArmEpoch(kMaxSimTime), and no arrival is ever
// queued at or past the armed end, so the queue is empty at every boundary.
TEST(EpochArrivalsTest, EpochArmingMatchesOneArmedRun) {
  constexpr double kRate = 2000.0;
  constexpr SimTime kUntil = Seconds(2);
  constexpr uint64_t kSeed = 11;

  Simulator whole_sim;
  std::vector<SimTime> whole;
  EpochArrivals whole_arrivals(&whole_sim, kRate, kUntil, kSeed,
                               [&]() { whole.push_back(whole_sim.Now()); });
  whole_arrivals.ArmEpoch(kMaxSimTime);
  whole_sim.Run();

  Simulator sim;
  std::vector<SimTime> epoched;
  EpochArrivals arrivals(&sim, kRate, kUntil, kSeed, [&]() { epoched.push_back(sim.Now()); });
  const SimDuration epoch = Millis(250);
  for (SimTime end = epoch; end <= kUntil + epoch; end += epoch) {
    arrivals.ArmEpoch(end);
    sim.RunBefore(end);
    ASSERT_TRUE(sim.empty()) << "an arrival was queued at or past the armed end " << end;
  }
  arrivals.ArmEpoch(kMaxSimTime);
  sim.Run();

  ASSERT_GT(whole.size(), 3000u);
  EXPECT_EQ(epoched, whole);
  EXPECT_EQ(arrivals.arrivals(), whole_arrivals.arrivals());
  EXPECT_EQ(sim.events_executed(), whole_sim.events_executed());
  EXPECT_EQ(sim.event_digest(), whole_sim.event_digest());
}

}  // namespace
}  // namespace rpcscope
