// PolicyEngine unit tests (docs/POLICY.md): tri-state resolution precedence,
// timeline validation and barrier application, and the engine's checkpoint
// cursor round trip (including the restore-under-a-different-plan rejection).
#include "src/policy/policy.h"

#include <gtest/gtest.h>

#include "src/checkpoint/checkpoint.h"

namespace rpcscope {
namespace {

// Every field at its -1 inherit sentinel.
void ExpectAllInherit(const MethodPolicy& p) {
  EXPECT_EQ(p.max_retries, -1);
  EXPECT_EQ(p.retry_backoff, -1);
  EXPECT_EQ(p.retry_backoff_cap, -1);
  EXPECT_EQ(p.attempt_timeout, -1);
}

TEST(MethodPolicyTest, DefaultIsAllInherit) { ExpectAllInherit(MethodPolicy{}); }

TEST(MethodPolicyTest, MergeFromOverlaysOnlySetFields) {
  MethodPolicy base;
  base.max_retries = 2;
  base.retry_backoff = Micros(500);
  MethodPolicy over;
  over.max_retries = 5;
  base.MergeFrom(over);
  EXPECT_EQ(base.max_retries, 5);
  EXPECT_EQ(base.retry_backoff, Micros(500));  // Inherit sentinel didn't clobber.
}

TEST(PolicySnapshotTest, ResolvePrecedenceNarrowestWins) {
  PolicySnapshot snap;
  snap.defaults.max_retries = 1;
  snap.defaults.attempt_timeout = Millis(4);
  MethodPolicy service;
  service.max_retries = 2;
  snap.SetOverride(7, service);

  // Unknown service: fleet defaults only.
  EXPECT_EQ(snap.Resolve(9).max_retries, 1);
  // The service's entry wins over the defaults.
  EXPECT_EQ(snap.Resolve(7).max_retries, 2);
  // Fields the entry left unset inherit the defaults; fields no layer set
  // stay at the sentinel.
  EXPECT_EQ(snap.Resolve(7).attempt_timeout, Millis(4));
  EXPECT_EQ(snap.Resolve(7).retry_backoff, -1);
}

TEST(PolicySnapshotTest, ContentHashSeesEveryLayer) {
  PolicySnapshot a;
  PolicySnapshot b;
  EXPECT_EQ(a.ContentHash(0xfeed), b.ContentHash(0xfeed));
  MethodPolicy p;
  p.retry_backoff_cap = Millis(1);
  b.SetOverride(3, p);
  EXPECT_NE(a.ContentHash(0xfeed), b.ContentHash(0xfeed));
}

TEST(PolicyTimelineTest, ValidateRejectsNonIncreasingStages) {
  PolicyTimeline t;
  EXPECT_TRUE(t.Validate().ok());
  t.AddStage(Millis(10), PolicySnapshot{});
  t.AddStage(Millis(20), PolicySnapshot{});
  EXPECT_TRUE(t.Validate().ok());
  t.AddStage(Millis(20), PolicySnapshot{});  // Not strictly increasing.
  EXPECT_EQ(t.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(PolicyTimelineTest, AddStageAutoVersions) {
  PolicyTimeline t;
  t.AddStage(Millis(10), PolicySnapshot{});
  t.AddStage(Millis(20), PolicySnapshot{});
  EXPECT_EQ(t.stages[0].snapshot.version, 1u);
  EXPECT_EQ(t.stages[1].snapshot.version, 2u);
}

TEST(PolicyEngineTest, UnboundEngineServesEmptySnapshot) {
  PolicyEngine engine;
  EXPECT_EQ(engine.version(), 0u);
  ExpectAllInherit(engine.current().Resolve(1));
  engine.ApplyThrough(Seconds(100));  // No timeline: a no-op.
  EXPECT_EQ(engine.version(), 0u);
}

TEST(PolicyEngineTest, ApplyThroughWalksStagesByWatermark) {
  PolicyTimeline t;
  PolicySnapshot s1;
  s1.defaults.max_retries = 7;
  t.AddStage(Millis(10), s1);
  PolicySnapshot s2;
  s2.defaults.max_retries = 9;
  t.AddStage(Millis(30), s2);

  PolicyEngine engine(&t);
  EXPECT_EQ(engine.version(), 0u);
  engine.ApplyThrough(Millis(9));
  EXPECT_EQ(engine.version(), 0u);
  engine.ApplyThrough(Millis(10));
  EXPECT_EQ(engine.version(), 1u);
  EXPECT_EQ(engine.current().Resolve(-1).max_retries, 7);
  // A watermark past every stage applies them all; re-applying is idempotent.
  engine.ApplyThrough(Seconds(5));
  engine.ApplyThrough(Seconds(5));
  EXPECT_EQ(engine.version(), 2u);
  EXPECT_EQ(engine.current().Resolve(-1).max_retries, 9);
}

TEST(PolicyEngineTest, CheckpointRoundTripsCursor) {
  PolicyTimeline t;
  t.AddStage(Millis(10), PolicySnapshot{});
  t.AddStage(Millis(30), PolicySnapshot{});

  PolicyEngine engine(&t);
  engine.ApplyThrough(Millis(15));
  ASSERT_EQ(engine.stages_applied(), 1u);

  CheckpointWriter w;
  ASSERT_TRUE(engine.CheckpointTo(w).ok());
  Result<CheckpointReader> r = CheckpointReader::FromBytes(w.buffer());
  ASSERT_TRUE(r.ok());

  PolicyEngine restored(&t);
  ASSERT_TRUE(restored.RestoreFrom(*r).ok());
  EXPECT_EQ(restored.stages_applied(), 1u);
  EXPECT_EQ(restored.version(), 1u);
  // The resumed walk continues exactly where the checkpointed one stopped.
  restored.ApplyThrough(Millis(30));
  EXPECT_EQ(restored.version(), 2u);
}

TEST(PolicyEngineTest, RestoreUnderDifferentTimelineRejected) {
  PolicyTimeline t;
  t.AddStage(Millis(10), PolicySnapshot{});
  PolicyEngine engine(&t);
  engine.ApplyThrough(Millis(10));

  CheckpointWriter w;
  ASSERT_TRUE(engine.CheckpointTo(w).ok());
  Result<CheckpointReader> r = CheckpointReader::FromBytes(w.buffer());
  ASSERT_TRUE(r.ok());

  PolicyTimeline other;
  PolicySnapshot changed;
  changed.defaults.max_retries = 3;
  other.AddStage(Millis(10), changed);
  PolicyEngine restored(&other);
  EXPECT_EQ(restored.RestoreFrom(*r).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace rpcscope
