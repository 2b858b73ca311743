// Ordering regression test for the determinism sweep shipped with
// rpcscope_detan: the report-facing paths that used to iterate hash maps
// (TraceForest's per-trace shapes, ProfileCollector's per-service map) now
// iterate ordered containers, so every digest of their output must be
// bit-for-bit identical across worker-thread counts. Runs the
// sharded mini-fleet under worker_threads 1/2/8 for three seeds and asserts
// one combined FNV-1a digest over all of those surfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "src/fleet/mini_fleet.h"
#include "src/fleet/service_catalog.h"
#include "src/profile/profile.h"
#include "src/rpc/cost_model.h"
#include "src/trace/tree.h"

namespace rpcscope {
namespace {

struct Fnv1a {
  uint64_t value = 14695981039346656037ull;

  void Mix(uint64_t word) {
    constexpr uint64_t kPrime = 1099511628211ull;
    for (int i = 0; i < 8; ++i) {
      value ^= (word >> (8 * i)) & 0xff;
      value *= kPrime;
    }
  }
  void MixDouble(double d) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
};

// Digest over every container-iteration-ordered report surface.
uint64_t ReportDigest(const MiniFleetResult& result) {
  Fnv1a digest;

  // Trace shapes, in the exact order TraceForest emits them.
  const TraceForest forest(result.spans);
  for (const TraceShape& shape : forest.trace_shapes()) {
    digest.Mix(shape.trace_id);
    digest.Mix(static_cast<uint64_t>(shape.total_spans));
    digest.Mix(static_cast<uint64_t>(shape.max_depth));
    digest.Mix(static_cast<uint64_t>(shape.max_width));
  }

  // Profile map: feed a collector deterministically from the span stream
  // (synthetic cycle splits derived from the latency breakdown), then fold
  // the map in its iteration order — key sequence and FP accumulation order
  // both enter the digest.
  ProfileCollector profile;
  for (const Span& s : result.spans) {
    CycleBreakdown cycles;
    for (size_t c = 0; c < cycles.cycles.size(); ++c) {
      cycles.cycles[c] =
          static_cast<double>(s.latency.components[c % kNumRpcComponents]) * 1e-3;
    }
    profile.AddRpcSample(s.service_id, cycles, 1.0);
  }
  for (const auto& [service_id, cycles] : profile.per_service_cycles()) {
    digest.Mix(static_cast<uint64_t>(service_id));
    digest.MixDouble(cycles);
  }
  return digest.value;
}

MiniFleetOptions ShardedOptions(uint64_t seed, int workers, int shards = 8) {
  MiniFleetOptions options;
  options.duration = Seconds(1);
  options.warmup = Millis(200);
  options.frontend_rps = 300;
  options.seed = seed;
  options.num_shards = shards;
  options.worker_threads = workers;
  return options;
}

TEST(OrderingRegressionTest, ReportDigestInvariantAcrossWorkerCounts) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  for (const uint64_t seed : {0xf1ee7ull, 0xbeefull, 0x5eedull}) {
    uint64_t reference = 0;
    for (const int workers : {1, 2, 8}) {
      const MiniFleetResult result = RunMiniFleet(catalog, ShardedOptions(seed, workers));
      ASSERT_GT(result.spans.size(), 0u) << "seed=" << seed;
      const uint64_t digest = ReportDigest(result);
      if (workers == 1) {
        reference = digest;
      } else {
        EXPECT_EQ(digest, reference) << "seed=" << seed << " workers=" << workers;
      }
    }
  }
}

TEST(OrderingRegressionTest, ReportDigestInvariantUnderBatchedRounds) {
  // The batched-round path: per-pair lookahead horizons let one barrier cover
  // what the legacy global-min scheme split into many short rounds, so the
  // number of rounds is orders of magnitude below the event count. The report
  // surfaces must stay bit-for-bit worker-count invariant on that path too,
  // at more than one shard count (different counts exercise different
  // lookahead matrices and different active-domain skip patterns).
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  for (const int shards : {4, 8}) {
    uint64_t reference = 0;
    for (const int workers : {1, 2, 8}) {
      const MiniFleetResult result =
          RunMiniFleet(catalog, ShardedOptions(0xba7c4ull, workers, shards));
      ASSERT_GT(result.spans.size(), 0u) << "shards=" << shards;
      // Prove the batched path actually engaged: many events per barrier, and
      // the run was genuinely multi-round and cross-shard.
      ASSERT_GT(result.rounds, 1u) << "shards=" << shards;
      ASSERT_GT(result.cross_domain_events, 0u) << "shards=" << shards;
      ASSERT_GT(result.events_executed / result.rounds, 10u)
          << "rounds are not batched: " << result.rounds << " rounds for "
          << result.events_executed << " events (shards=" << shards << ")";
      const uint64_t digest = ReportDigest(result);
      if (workers == 1) {
        reference = digest;
      } else {
        EXPECT_EQ(digest, reference) << "shards=" << shards << " workers=" << workers;
      }
    }
  }
}

TEST(OrderingRegressionTest, TraceShapesAreEmittedInTraceIdOrder) {
  // The shapes vector is the user-visible order of every per-trace report;
  // since the hash-map fix it is sorted by trace id by construction.
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  const MiniFleetResult result = RunMiniFleet(catalog, ShardedOptions(0xf1ee7, 2));
  const TraceForest forest(result.spans);
  const auto& shapes = forest.trace_shapes();
  ASSERT_GT(shapes.size(), 1u);
  EXPECT_TRUE(std::is_sorted(
      shapes.begin(), shapes.end(),
      [](const TraceShape& a, const TraceShape& b) { return a.trace_id < b.trace_id; }));
}

}  // namespace
}  // namespace rpcscope
