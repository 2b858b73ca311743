// PolicyEngine: versioned, hot-swappable managed RPC policy.
//
// "Remote Procedure Call as a Managed System Service" (arXiv 2304.07349)
// argues that retry policy belongs to a fleet-operated policy plane, not to
// per-application library config. This module is that plane for rpcscope: a
// PolicySnapshot is an immutable, versioned bundle of the client's retry
// knobs (retry count, backoff pacing, the attempt watchdog) keyed by service
// with fleet-wide defaults; a PolicyTimeline is an authored sequence of
// snapshots at virtual times (a staged rollout, a canary, an A/B flip); a
// per-shard PolicyEngine walks the timeline at conservative-round barriers so
// every shard — and every worker-thread count — observes exactly the same
// snapshot for exactly the same events (docs/POLICY.md). Client::Call is the
// plane's only reader.
//
// Every MethodPolicy field is tri-state: the negative sentinel means
// "inherit" — from the service entry, then the fleet defaults, then the
// call's own CallOptions. An empty snapshot therefore reproduces the
// pre-policy stack bit-for-bit: no extra RNG draws, no extra events,
// identical digests.
#ifndef RPCSCOPE_SRC_POLICY_POLICY_H_
#define RPCSCOPE_SRC_POLICY_POLICY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"

namespace rpcscope {

class CheckpointWriter;
class CheckpointReader;

// One scope's policy overrides (fleet defaults or one service). Sentinels:
// every field < 0 inherits from the next-wider scope (and finally from the
// call's CallOptions). Non-negative values use CallOptions' own conventions
// (attempt_timeout 0 = watchdog off).
struct MethodPolicy {
  int32_t max_retries = -1;
  SimDuration retry_backoff = -1;
  SimDuration retry_backoff_cap = -1;
  SimDuration attempt_timeout = -1;  // 0 = watchdog off.

  // Overlays `over` onto *this: fields `over` sets (>= 0) win.
  void MergeFrom(const MethodPolicy& over);
  // Folds every field into `digest` (FNV-1a).
  uint64_t ContentHash(uint64_t digest) const;
};

// An immutable, versioned policy bundle. Resolution precedence: a service's
// entry over the fleet defaults. The ordered map keeps ContentHash and
// checkpoint layouts canonical.
struct PolicySnapshot {
  uint64_t version = 0;
  MethodPolicy defaults;
  // Key: service_id.
  std::map<int32_t, MethodPolicy> overrides;

  void SetOverride(int32_t service_id, const MethodPolicy& policy);
  // Merged view for one service: defaults, then the service's entry.
  MethodPolicy Resolve(int32_t service_id) const;
  uint64_t ContentHash(uint64_t digest) const;
};

// One timeline step: `snapshot` becomes current at the first barrier whose
// watermark is >= `at`.
struct PolicyStage {
  SimTime at = 0;
  PolicySnapshot snapshot;
};

// The authored rollout plan: the initial snapshot (version 0) plus staged
// swaps at strictly increasing virtual times. Owned by RpcSystemOptions and
// immutable once the system is constructed; per-shard PolicyEngines only hold
// a pointer plus a cursor, which is what makes the swap deterministic and the
// engine trivially checkpointable.
struct PolicyTimeline {
  PolicySnapshot initial;
  std::vector<PolicyStage> stages;

  // Appends a stage; assigns version stages.size() + 1 when the snapshot's
  // version is 0 (the common authoring path).
  void AddStage(SimTime at, PolicySnapshot snapshot);
  bool has_stages() const { return !stages.empty(); }
  // Checks stage times are positive and strictly increasing.
  [[nodiscard]] Status Validate() const;
  // Identity of the whole plan (folds every snapshot + time). Used by
  // checkpoint config hashes: resuming under a different timeline must be
  // rejected, it would silently diverge.
  uint64_t ContentHash() const;
};

// Per-shard view onto a timeline. ApplyThrough is called only at
// conservative-round barriers (coordinator thread, workers parked) and at
// segment/final flushes, with the same watermark sequence for every
// worker-thread count — so current() is identical across shards and workers
// for every event. The engine's mutable state is one cursor; CheckpointTo/
// RestoreFrom carry it across kill-and-resume so a rollout in flight picks up
// exactly where it stopped.
// RPCSCOPE_CHECKPOINTED(PolicyEngine::CheckpointTo, PolicyEngine::RestoreFrom)
class PolicyEngine {
 public:
  PolicyEngine() = default;
  // `timeline` must outlive the engine (RpcSystem owns it in its options).
  explicit PolicyEngine(const PolicyTimeline* timeline) : timeline_(timeline) {}

  // The snapshot in force. With no timeline bound (or none applied yet) this
  // is the timeline's initial snapshot — or an empty all-inherit snapshot
  // when unbound.
  const PolicySnapshot& current() const;
  uint64_t version() const { return current().version; }
  size_t stages_applied() const { return applied_; }

  // Applies every not-yet-applied stage with at <= watermark. Watermarks must
  // be non-decreasing (barrier watermarks are).
  void ApplyThrough(SimTime watermark);

  // Checkpoint support: the cursor plus the timeline's content hash so a
  // restore under a different plan fails cleanly instead of diverging.
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  const PolicyTimeline* timeline_ = nullptr;
  size_t applied_ = 0;  // Stages applied so far; current() is stages[applied_-1].
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_POLICY_POLICY_H_
