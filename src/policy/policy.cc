#include "src/policy/policy.h"

#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/digest.h"

namespace rpcscope {
namespace {

const PolicySnapshot& EmptySnapshot() {
  static const PolicySnapshot empty;
  return empty;
}

}  // namespace

void MethodPolicy::MergeFrom(const MethodPolicy& over) {
  if (over.max_retries >= 0) max_retries = over.max_retries;
  if (over.retry_backoff >= 0) retry_backoff = over.retry_backoff;
  if (over.retry_backoff_cap >= 0) retry_backoff_cap = over.retry_backoff_cap;
  if (over.attempt_timeout >= 0) attempt_timeout = over.attempt_timeout;
}

uint64_t MethodPolicy::ContentHash(uint64_t digest) const {
  digest = FnvMix(digest, static_cast<uint64_t>(static_cast<int64_t>(max_retries)));
  digest = FnvMix(digest, static_cast<uint64_t>(retry_backoff));
  digest = FnvMix(digest, static_cast<uint64_t>(retry_backoff_cap));
  digest = FnvMix(digest, static_cast<uint64_t>(attempt_timeout));
  return digest;
}

void PolicySnapshot::SetOverride(int32_t service_id, const MethodPolicy& policy) {
  overrides[service_id] = policy;
}

MethodPolicy PolicySnapshot::Resolve(int32_t service_id) const {
  MethodPolicy merged = defaults;
  auto entry = overrides.find(service_id);
  if (entry != overrides.end()) merged.MergeFrom(entry->second);
  return merged;
}

uint64_t PolicySnapshot::ContentHash(uint64_t digest) const {
  digest = FnvMix(digest, version);
  digest = defaults.ContentHash(digest);
  digest = FnvMix(digest, overrides.size());
  // std::map iterates in key order, so the fold is canonical.
  for (const auto& [service_id, policy] : overrides) {
    digest = FnvMix(digest, static_cast<uint64_t>(static_cast<int64_t>(service_id)));
    digest = policy.ContentHash(digest);
  }
  return digest;
}

void PolicyTimeline::AddStage(SimTime at, PolicySnapshot snapshot) {
  if (snapshot.version == 0) snapshot.version = stages.size() + 1;
  stages.push_back(PolicyStage{at, std::move(snapshot)});
}

Status PolicyTimeline::Validate() const {
  SimTime prev = 0;
  for (const PolicyStage& stage : stages) {
    if (stage.at <= prev) {
      return InvalidArgumentError("policy stage times must be positive and strictly increasing");
    }
    prev = stage.at;
  }
  return Status::Ok();
}

uint64_t PolicyTimeline::ContentHash() const {
  uint64_t digest = kFnvOffsetBasis;
  digest = initial.ContentHash(digest);
  digest = FnvMix(digest, stages.size());
  for (const PolicyStage& stage : stages) {
    digest = FnvMix(digest, static_cast<uint64_t>(stage.at));
    digest = stage.snapshot.ContentHash(digest);
  }
  return digest;
}

const PolicySnapshot& PolicyEngine::current() const {
  if (timeline_ == nullptr) return EmptySnapshot();
  if (applied_ == 0) return timeline_->initial;
  return timeline_->stages[applied_ - 1].snapshot;
}

void PolicyEngine::ApplyThrough(SimTime watermark) {
  if (timeline_ == nullptr) return;
  while (applied_ < timeline_->stages.size() && timeline_->stages[applied_].at <= watermark) {
    ++applied_;
  }
}

Status PolicyEngine::CheckpointTo(CheckpointWriter& w) const {
  w.BeginSection("policy_engine");
  uint64_t timeline_hash = timeline_ != nullptr ? timeline_->ContentHash() : 0;
  w.WriteU64(timeline_hash);
  w.WriteU64(static_cast<uint64_t>(applied_));
  w.WriteU64(version());
  w.EndSection();
  return Status::Ok();
}

Status PolicyEngine::RestoreFrom(CheckpointReader& r) {
  if (Status s = r.EnterSection("policy_engine"); !s.ok()) return s;
  uint64_t timeline_hash = r.ReadU64();
  uint64_t applied = r.ReadU64();
  uint64_t saved_version = r.ReadU64();
  if (Status s = r.LeaveSection(); !s.ok()) return s;
  uint64_t expected_hash = timeline_ != nullptr ? timeline_->ContentHash() : 0;
  if (timeline_hash != expected_hash) {
    return FailedPreconditionError("policy engine restore under a different policy timeline");
  }
  size_t stage_count = timeline_ != nullptr ? timeline_->stages.size() : 0;
  if (applied > stage_count) {
    return DataLossError("policy engine checkpoint cursor exceeds timeline stage count");
  }
  applied_ = static_cast<size_t>(applied);
  if (saved_version != version()) {
    return DataLossError("policy engine checkpoint version mismatch after cursor restore");
  }
  return Status::Ok();
}

}  // namespace rpcscope
