#include "src/sim/server_resource.h"

#include <gtest/gtest.h>

#include <vector>

namespace rpcscope {
namespace {

TEST(ServerResourceTest, NoQueueingUnderCapacity) {
  Simulator sim;
  ServerResource res(&sim, {.workers = 2});
  std::vector<SimDuration> delays;
  res.Submit(Millis(10), [&](SimDuration qd, SimDuration) { delays.push_back(qd); });
  res.Submit(Millis(10), [&](SimDuration qd, SimDuration) { delays.push_back(qd); });
  sim.Run();
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_EQ(delays[0], 0);
  EXPECT_EQ(delays[1], 0);
}

TEST(ServerResourceTest, QueueingDelayEmergesWhenSaturated) {
  Simulator sim;
  ServerResource res(&sim, {.workers = 1});
  std::vector<SimDuration> delays;
  for (int i = 0; i < 3; ++i) {
    res.Submit(Millis(10), [&](SimDuration qd, SimDuration) { delays.push_back(qd); });
  }
  sim.Run();
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_EQ(delays[0], 0);
  EXPECT_EQ(delays[1], Millis(10));
  EXPECT_EQ(delays[2], Millis(20));
}

TEST(ServerResourceTest, RejectsBeyondQueueDepth) {
  Simulator sim;
  ServerResource res(&sim, {.workers = 1, .max_queue_depth = 1});
  int rejected = 0, completed = 0;
  for (int i = 0; i < 4; ++i) {
    res.Submit(Millis(5), [&](SimDuration qd, SimDuration) {
      if (qd == ServerResource::kRejected) {
        ++rejected;
      } else {
        ++completed;
      }
    });
  }
  sim.Run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(res.jobs_rejected(), 2u);
}

TEST(ServerResourceTest, SpeedFactorScalesService) {
  Simulator sim;
  ServerResource res(&sim, {.workers = 1});
  res.set_speed_factor(2.0);
  SimDuration service = 0;
  res.Submit(Millis(10), [&](SimDuration, SimDuration svc) { service = svc; });
  sim.Run();
  EXPECT_EQ(service, Millis(20));
}

TEST(ServerResourceTest, BusyTimeTracksUtilization) {
  Simulator sim;
  ServerResource res(&sim, {.workers = 2});
  for (int i = 0; i < 4; ++i) {
    res.Submit(Millis(10), [](SimDuration, SimDuration) {});
  }
  sim.Run();
  // 4 jobs x 10ms on 2 workers => 40ms of busy worker-time over 20ms elapsed.
  EXPECT_EQ(res.busy_time(), Millis(40));
  EXPECT_EQ(sim.Now(), Millis(20));
}

TEST(ServerResourceTest, AcquireReleaseManualOccupancy) {
  Simulator sim;
  ServerResource res(&sim, {.workers = 1});
  std::vector<SimDuration> grants;
  res.Acquire([&](SimDuration qd) {
    grants.push_back(qd);
    // Hold the worker for 30ms of "handler work".
    sim.Schedule(Millis(30), [&] { res.Release(); });
  });
  res.Acquire([&](SimDuration qd) {
    grants.push_back(qd);
    res.Release();
  });
  sim.Run();
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0], 0);
  EXPECT_EQ(grants[1], Millis(30));
  EXPECT_EQ(res.jobs_completed(), 2u);
}

TEST(ServerResourceTest, UtilizationWithIdleGaps) {
  Simulator sim;
  ServerResource res(&sim, {.workers = 1});
  res.Submit(Millis(10), [](SimDuration, SimDuration) {});
  sim.Run();
  ASSERT_TRUE(sim.ResyncAt(Millis(100)).ok());
  EXPECT_EQ(res.busy_time(), Millis(10));
}

}  // namespace
}  // namespace rpcscope
