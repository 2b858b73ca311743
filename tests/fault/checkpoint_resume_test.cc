// Kill-and-resume digest equality (docs/ROBUSTNESS.md#checkpointrestore):
// a Table-1 mini-fleet run interrupted at an epoch barrier and resumed from
// the on-disk checkpoint must be bit-for-bit identical to the uninterrupted
// cadenced run — same event digest, same streamed AggregateDigest — across
// worker counts and seeds, with an active chaos FaultPlan, and even when the
// newest checkpoint has been corrupted (resume falls back one barrier and
// replays from there). The checkpoints a resumed run writes are byte-identical
// to the uninterrupted run's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/fault/fault_plan.h"
#include "src/fleet/mini_fleet.h"

namespace rpcscope {
namespace {

namespace fs = std::filesystem;

constexpr SimDuration kDuration = Millis(800);
constexpr SimDuration kEvery = Millis(200);  // 4 epoch barriers.

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

// Crash + gray slowdown + lossy link on the first network-disk replicas
// (deployed first, so machines 1..4 always exist), windows sized to span
// several epoch barriers so injector state is live at checkpoint time.
FaultPlan ChaosPlan() {
  FaultPlan plan;
  plan.crashes.push_back({.machine = 1, .at = Millis(250), .restart_at = Millis(500)});
  plan.gray_slowdowns.push_back(
      {.machine = 2, .factor = 40.0, .start = Millis(300), .end = Millis(650)});
  plan.losses.push_back({.src = 3,
                         .dst = 4,
                         .loss_probability = 0.2,
                         .start = Millis(350),
                         .end = Millis(700)});
  return plan;
}

MiniFleetOptions FleetOptions(uint64_t seed, int workers, const FaultPlan* plan) {
  MiniFleetOptions options;
  options.duration = kDuration;
  options.warmup = Millis(100);
  options.frontend_rps = 400;
  options.seed = seed;
  options.num_shards = 8;
  options.worker_threads = workers;
  options.fault_plan = plan;
  return options;
}

MiniFleetResult MustRun(const MiniFleetOptions& options, const CheckpointRunOptions& ckpt) {
  const ServiceCatalog services = ServiceCatalog::BuildDefault();
  Result<MiniFleetResult> run = RunMiniFleetCheckpointed(services, options, ckpt);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return run.ok() ? *run : MiniFleetResult{};
}

void ExpectSameRun(const MiniFleetResult& resumed, const MiniFleetResult& reference) {
  EXPECT_EQ(resumed.event_digest, reference.event_digest);
  EXPECT_EQ(resumed.events_executed, reference.events_executed);
  EXPECT_EQ(resumed.streamed_aggregate_digest, reference.streamed_aggregate_digest);
  EXPECT_EQ(resumed.replayed_aggregate_digest, reference.replayed_aggregate_digest);
  EXPECT_EQ(resumed.exemplar_digest, reference.exemplar_digest);
  EXPECT_EQ(resumed.spans_streamed, reference.spans_streamed);
  EXPECT_EQ(resumed.root_calls, reference.root_calls);
  EXPECT_EQ(resumed.spans.size(), reference.spans.size());
  EXPECT_EQ(resumed.rounds, reference.rounds);
  EXPECT_EQ(resumed.cross_domain_events, reference.cross_domain_events);
  // The streaming pipeline's own invariant must survive the restart too.
  EXPECT_EQ(resumed.streamed_aggregate_digest, resumed.replayed_aggregate_digest);
}

// A checkpointed run reports whole-run executor stats: the sums of
// last_rounds() and last_cross_domain_events() over a fleet driven segment by
// segment (as perfbench drives it), whether the run goes through
// uninterrupted or is killed and resumed from a checkpoint.
TEST(CheckpointResume, ExecutorStatsCoverEverySegment) {
  const MiniFleetOptions options = FleetOptions(7, 2, nullptr);
  const ServiceCatalog services = ServiceCatalog::BuildDefault();
  const uint64_t epochs = static_cast<uint64_t>(kDuration / kEvery);
  uint64_t rounds = 0;
  uint64_t cross = 0;
  {
    MiniFleet fleet(services, options);
    for (uint64_t k = 0; k < epochs; ++k) {
      const bool final_epoch = k + 1 == epochs;
      const SimTime end = final_epoch ? kMaxSimTime : static_cast<SimTime>(k + 1) * kEvery;
      ASSERT_TRUE(fleet.ArmThrough(end).ok());
      fleet.RunSegment(end);
      rounds += fleet.system().last_rounds();
      cross += fleet.system().last_cross_domain_events();
      if (!final_epoch) {
        ASSERT_TRUE(fleet.ResyncAt(end).ok());
      }
    }
  }
  ASSERT_GT(cross, 0u);

  const MiniFleetResult whole = MustRun(options, {.dir = {}, .every = kEvery});
  EXPECT_EQ(whole.rounds, rounds);
  EXPECT_EQ(whole.cross_domain_events, cross);

  const std::string dir = FreshDir("executor_stats");
  const MiniFleetResult killed =
      MustRun(options, {.dir = dir, .every = kEvery, .stop_after_epochs = 2});
  ASSERT_TRUE(killed.interrupted);
  const MiniFleetResult resumed = MustRun(options, {.dir = dir, .every = kEvery, .resume = true});
  ASSERT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.rounds, rounds);
  EXPECT_EQ(resumed.cross_domain_events, cross);
}

TEST(CheckpointResume, MatchesUninterruptedAcrossWorkersAndSeeds) {
  const FaultPlan plan = ChaosPlan();
  // Worker count and seed vary together: resume invariance must hold at
  // every point, and the uninterrupted reference itself is worker-invariant
  // (parallel_test), so pairing keeps the matrix affordable in-process. The
  // CI checkpoint-soak job runs the full cross product through fleet_study.
  struct Combo {
    int workers;
    uint64_t seed;
  };
  for (const Combo combo : {Combo{1, 5}, Combo{2, 11}, Combo{8, 23}}) {
    SCOPED_TRACE("workers=" + std::to_string(combo.workers) +
                 " seed=" + std::to_string(combo.seed));
    const MiniFleetOptions options = FleetOptions(combo.seed, combo.workers, &plan);
    const std::string dir =
        FreshDir("resume_w" + std::to_string(combo.workers) + "_s" +
                 std::to_string(combo.seed));

    const MiniFleetResult reference = MustRun(options, {.dir = {}, .every = kEvery});
    ASSERT_NE(reference.event_digest, 0u);

    CheckpointRunOptions interrupt{.dir = dir, .every = kEvery, .stop_after_epochs = 2};
    const MiniFleetResult killed = MustRun(options, interrupt);
    EXPECT_TRUE(killed.interrupted);
    EXPECT_EQ(killed.checkpoints_written, 2u);

    CheckpointRunOptions resume{.dir = dir, .every = kEvery, .resume = true};
    const MiniFleetResult resumed = MustRun(options, resume);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.resumed_epoch, 2u);
    EXPECT_FALSE(resumed.interrupted);
    ExpectSameRun(resumed, reference);
  }
}

TEST(CheckpointResume, EveryBarrierIsAValidKillPoint) {
  const FaultPlan plan = ChaosPlan();
  const MiniFleetOptions options = FleetOptions(/*seed=*/7, /*workers=*/2, &plan);
  const MiniFleetResult reference = MustRun(options, {.dir = {}, .every = kEvery});
  for (int kill_after = 1; kill_after <= 3; ++kill_after) {
    SCOPED_TRACE("killed after epoch " + std::to_string(kill_after));
    const std::string dir = FreshDir("barrier_k" + std::to_string(kill_after));
    CheckpointRunOptions interrupt{
        .dir = dir, .every = kEvery, .stop_after_epochs = kill_after};
    const MiniFleetResult killed = MustRun(options, interrupt);
    EXPECT_TRUE(killed.interrupted);

    CheckpointRunOptions resume{.dir = dir, .every = kEvery, .resume = true};
    const MiniFleetResult resumed = MustRun(options, resume);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.resumed_epoch, static_cast<uint64_t>(kill_after));
    ExpectSameRun(resumed, reference);
  }
}

TEST(CheckpointResume, NoChaosRunAlsoResumesBitForBit) {
  const MiniFleetOptions options = FleetOptions(/*seed=*/13, /*workers=*/2, nullptr);
  const std::string dir = FreshDir("resume_nochaos");
  const MiniFleetResult reference = MustRun(options, {.dir = {}, .every = kEvery});
  const MiniFleetResult killed =
      MustRun(options, {.dir = dir, .every = kEvery, .stop_after_epochs = 1});
  EXPECT_TRUE(killed.interrupted);
  const MiniFleetResult resumed =
      MustRun(options, {.dir = dir, .every = kEvery, .resume = true});
  EXPECT_TRUE(resumed.resumed);
  ExpectSameRun(resumed, reference);
}

TEST(CheckpointResume, CorruptNewestFallsBackOneBarrierAndStillMatches) {
  const FaultPlan plan = ChaosPlan();
  const MiniFleetOptions options = FleetOptions(/*seed=*/29, /*workers=*/2, &plan);
  const std::string dir = FreshDir("resume_corrupt");
  const MiniFleetResult reference = MustRun(options, {.dir = {}, .every = kEvery});
  const MiniFleetResult killed =
      MustRun(options, {.dir = dir, .every = kEvery, .stop_after_epochs = 2});
  EXPECT_EQ(killed.checkpoints_written, 2u);

  // Flip one byte in the newest snapshot's first shard file. Resume must
  // reject it on CRC, fall back to the epoch-1 checkpoint, and still land on
  // the uninterrupted digests.
  const std::vector<std::string> checkpoints = ListCheckpoints(dir);
  ASSERT_EQ(checkpoints.size(), 2u);
  const std::string victim = checkpoints.back() + "/shard-0000.ckpt";
  {
    std::fstream file(victim, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekp(64);
    char byte = 0;
    file.seekg(64);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(64);
    file.write(&byte, 1);
  }

  const MiniFleetResult resumed =
      MustRun(options, {.dir = dir, .every = kEvery, .resume = true});
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_epoch, 1u);
  ExpectSameRun(resumed, reference);
}

TEST(CheckpointResume, DifferentCadenceIsRejectedAndStartsFresh) {
  const MiniFleetOptions options = FleetOptions(/*seed=*/31, /*workers=*/2, nullptr);
  const std::string dir = FreshDir("resume_cadence");
  const MiniFleetResult killed =
      MustRun(options, {.dir = dir, .every = kEvery, .stop_after_epochs = 1});
  EXPECT_TRUE(killed.interrupted);

  // Same options, different epoch cadence: the config hash differs, so the
  // snapshot is stale. The run must start fresh and match the uninterrupted
  // run at the NEW cadence — never splice epochs across cadences.
  const SimDuration other = Millis(400);
  const MiniFleetResult reference = MustRun(options, {.dir = {}, .every = other});
  const MiniFleetResult resumed =
      MustRun(options, {.dir = dir, .every = other, .resume = true});
  EXPECT_FALSE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_epoch, 0u);
  ExpectSameRun(resumed, reference);
}

TEST(CheckpointResume, PolicyRolloutSurvivesKillAndResume) {
  // A staged policy hot-swap (docs/POLICY.md) in a chaos run, interrupted at
  // barriers on BOTH sides of the swap time (500ms, inside epoch 3 of 4):
  // resume must replay the rollout bit-for-bit — the restored PolicyEngine
  // cursor picks the walk up exactly where the checkpoint left it.
  const FaultPlan plan = ChaosPlan();
  MiniFleetOptions options = FleetOptions(/*seed=*/17, /*workers=*/2, &plan);
  PolicySnapshot stage;
  stage.defaults.attempt_timeout = Millis(50);  // Client-level knob: mini-fleet has no Channels.
  stage.defaults.max_retries = 1;
  options.policy.AddStage(Millis(500), stage);

  const MiniFleetResult reference = MustRun(options, {.dir = {}, .every = kEvery});
  EXPECT_EQ(reference.policy_stages_applied, 1u);
  EXPECT_EQ(reference.policy_version, 1u);

  for (int kill_after : {2, 3}) {  // Before the swap epoch, and after it.
    SCOPED_TRACE("killed after epoch " + std::to_string(kill_after));
    const std::string dir = FreshDir("resume_rollout_k" + std::to_string(kill_after));
    const MiniFleetResult killed = MustRun(
        options, {.dir = dir, .every = kEvery, .stop_after_epochs = kill_after});
    EXPECT_TRUE(killed.interrupted);

    const MiniFleetResult resumed =
        MustRun(options, {.dir = dir, .every = kEvery, .resume = true});
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.policy_stages_applied, 1u);
    ExpectSameRun(resumed, reference);
  }

  // A checkpoint taken under one rollout plan must not restore under another:
  // the config hash folds the timeline's content hash, so the run starts
  // fresh instead of silently diverging.
  const std::string dir = FreshDir("resume_rollout_mismatch");
  const MiniFleetResult killed =
      MustRun(options, {.dir = dir, .every = kEvery, .stop_after_epochs = 2});
  EXPECT_TRUE(killed.interrupted);
  MiniFleetOptions other = options;
  other.policy = PolicyTimeline{};
  PolicySnapshot changed = stage;
  changed.defaults.max_retries = 4;
  other.policy.AddStage(Millis(500), changed);
  const MiniFleetResult fresh =
      MustRun(other, {.dir = dir, .every = kEvery, .resume = true});
  EXPECT_FALSE(fresh.resumed);
}

// Every file of every committed checkpoint under `dir` as ("<ckpt-dir>/<file>",
// bytes), sorted by name so two stores compare file by file.
std::vector<std::pair<std::string, std::string>> StoreFiles(const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const std::string& ckpt : ListCheckpoints(dir)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(ckpt)) {
      std::ifstream in(entry.path(), std::ios::binary);
      files.emplace_back(fs::path(ckpt).filename().string() + "/" +
                             entry.path().filename().string(),
                         std::string(std::istreambuf_iterator<char>(in), {}));
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CheckpointResume, ResumedRunWritesTheUninterruptedCheckpointBytes) {
  // The checkpoints a resumed run writes after its restore barrier must be
  // byte-identical to the uninterrupted run's, not only its digests: an idle
  // resource's busy-accounting timestamp may sit past the barrier, and a
  // restore that rewrote it showed up in every later shard file.
  MiniFleetOptions options = FleetOptions(/*seed=*/5, /*workers=*/2, nullptr);
  options.duration = Millis(2000);
  PolicySnapshot stage;
  stage.defaults.attempt_timeout = Millis(50);
  stage.defaults.max_retries = 1;
  options.policy.AddStage(options.duration / 2, stage);
  const SimDuration every = Millis(250);  // 7 barrier checkpoints.

  const std::string reference_dir = FreshDir("bytes_reference");
  const MiniFleetResult reference = MustRun(options, {.dir = reference_dir, .every = every});
  ASSERT_EQ(reference.checkpoints_written, 7u);

  const std::string dir = FreshDir("bytes_resumed");
  const MiniFleetResult killed =
      MustRun(options, {.dir = dir, .every = every, .stop_after_epochs = 4});
  EXPECT_TRUE(killed.interrupted);
  const MiniFleetResult resumed = MustRun(options, {.dir = dir, .every = every, .resume = true});
  EXPECT_EQ(resumed.resumed_epoch, 4u);
  ExpectSameRun(resumed, reference);

  const auto expected = StoreFiles(reference_dir);
  const auto got = StoreFiles(dir);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, expected[i].first);
    EXPECT_TRUE(got[i].second == expected[i].second) << got[i].first << " differs";
  }
}

TEST(CheckpointResume, RetentionBoundsTheStore) {
  const MiniFleetOptions options = FleetOptions(/*seed=*/37, /*workers=*/2, nullptr);
  const std::string dir = FreshDir("resume_retention");
  const MiniFleetResult result =
      MustRun(options, {.dir = dir, .every = Millis(100), .keep = 2});
  // 8 epochs -> 7 barrier snapshots written, but never more than `keep` on
  // disk at once.
  EXPECT_EQ(result.checkpoints_written, 7u);
  EXPECT_LE(ListCheckpoints(dir).size(), 2u);
}

}  // namespace
}  // namespace rpcscope
