#include "src/rpc/channel.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/checkpoint/checkpoint.h"
#include "src/common/check.h"
#include "src/rpc/rpc_system.h"

namespace rpcscope {

Channel::Channel(Client* client, std::string service_name, std::vector<MachineId> backends,
                 const ChannelOptions& options)
    : client_(client),
      service_name_(std::move(service_name)),
      all_backends_(std::move(backends)),
      options_(options),
      rng_(options.seed),
      outstanding_(all_backends_.size(), 0),
      health_(all_backends_.size()) {
  RPCSCOPE_CHECK(client != nullptr);
  RPCSCOPE_CHECK(!all_backends_.empty());
  eligible_.reserve(all_backends_.size());
  ApplyCurrentPolicy();
}

void Channel::RefreshPolicy() {
  if (client_->shard_context().policy.version() == policy_version_seen_) {
    return;
  }
  ApplyCurrentPolicy();
}

void Channel::ApplyCurrentPolicy() {
  const PolicyEngine& engine = client_->shard_context().policy;
  const MethodPolicy p = engine.current().Resolve(options_.service_id, /*method_id=*/-1);
  policy_version_seen_ = engine.version();
  effective_policy_ =
      p.pick_policy >= 0 ? static_cast<PickPolicy>(p.pick_policy) : options_.policy;
  const int subset =
      p.subset_size >= 0 ? static_cast<int>(p.subset_size) : options_.subset_size;
  effective_deadline_ =
      p.default_deadline >= 0 ? p.default_deadline : options_.default_deadline;
  effective_max_retries_ =
      p.max_retries >= 0 ? static_cast<int>(p.max_retries) : options_.default_max_retries;
  effective_hedge_delay_ = p.hedge_delay >= 0 ? p.hedge_delay : options_.hedge_delay;
  effective_outlier_enabled_ =
      p.outlier_enabled >= 0 ? p.outlier_enabled != 0 : options_.outlier.enabled;
  if (subset != effective_subset_size_ || backends_.empty()) {
    effective_subset_size_ = subset;
    RebuildActiveSet();
  }
}

void Channel::RebuildActiveSet() {
  const size_t n = all_backends_.size();
  active_.resize(n);
  std::iota(active_.begin(), active_.end(), size_t{0});
  // Deterministic subsetting: shuffle the backend indexes with a
  // client-derived seed and keep the first subset_size entries. Distinct
  // clients land on distinct-but-evenly-spread subsets; the same client
  // always gets the same subset — including after a checkpoint restore or a
  // policy swap back to the same subset size.
  if (effective_subset_size_ > 0 && effective_subset_size_ < static_cast<int>(n)) {
    Rng shuffle_rng(Mix64(options_.seed ^ static_cast<uint64_t>(client_->machine())));
    for (size_t i = n; i > 1; --i) {
      std::swap(active_[i - 1], active_[shuffle_rng.NextBounded(i)]);
    }
    active_.resize(static_cast<size_t>(effective_subset_size_));
  }
  backends_.clear();
  backends_.reserve(active_.size());
  for (size_t full : active_) {
    backends_.push_back(all_backends_[full]);
  }
  // Precompute the latency-aware order for the active view: base RTTs are
  // static, the view changes only on a policy swap.
  nearest_order_.resize(backends_.size());
  std::iota(nearest_order_.begin(), nearest_order_.end(), size_t{0});
  const Topology& topo = client_->system().topology();
  const MachineId self = client_->machine();
  std::stable_sort(nearest_order_.begin(), nearest_order_.end(),
                   [&](size_t a, size_t b) {
                     return topo.BaseRtt(self, backends_[a]) < topo.BaseRtt(self, backends_[b]);
                   });
}

size_t Channel::PickAmongAll() {
  switch (effective_policy_) {
    case PickPolicy::kRoundRobin:
      return round_robin_next_++ % backends_.size();
    case PickPolicy::kRandom:
      return rng_.NextBounded(backends_.size());
    case PickPolicy::kLeastLoaded: {
      const size_t a = rng_.NextBounded(backends_.size());
      const size_t b = rng_.NextBounded(backends_.size());
      return outstanding_[active_[a]] <= outstanding_[active_[b]] ? a : b;
    }
    case PickPolicy::kNearest:
      // Prefer the closest backend; spill to the next-closest when it has
      // twice the outstanding calls of the runner-up (coarse overload guard).
      for (size_t i = 0; i + 1 < nearest_order_.size(); ++i) {
        const size_t here = nearest_order_[i];
        const size_t next = nearest_order_[i + 1];
        if (outstanding_[active_[here]] <= 2 * outstanding_[active_[next]] + 4) {
          return here;
        }
      }
      return nearest_order_.back();
  }
  return 0;
}

size_t Channel::PickAmongEligible() {
  switch (effective_policy_) {
    case PickPolicy::kRoundRobin:
      return eligible_[round_robin_next_++ % eligible_.size()];
    case PickPolicy::kRandom:
      return eligible_[rng_.NextBounded(eligible_.size())];
    case PickPolicy::kLeastLoaded: {
      const size_t a = eligible_[rng_.NextBounded(eligible_.size())];
      const size_t b = eligible_[rng_.NextBounded(eligible_.size())];
      return outstanding_[active_[a]] <= outstanding_[active_[b]] ? a : b;
    }
    case PickPolicy::kNearest: {
      // Same spill rule, over the nearest ordering restricted to eligible
      // backends: compare each eligible backend against the next eligible one.
      size_t prev = backends_.size();  // Sentinel: no eligible seen yet.
      for (size_t i = 0; i < nearest_order_.size(); ++i) {
        const size_t pos = nearest_order_[i];
        if (health_[active_[pos]].health != BackendHealth::kHealthy) {
          continue;
        }
        if (prev != backends_.size() &&
            outstanding_[active_[prev]] <= 2 * outstanding_[active_[pos]] + 4) {
          return prev;
        }
        prev = pos;
      }
      return prev;
    }
  }
  return eligible_.front();
}

size_t Channel::PickIndex(bool allow_canary) {
  picked_canary_ = false;
  if (!effective_outlier_enabled_) {
    return PickAmongAll();
  }
  const SimTime now = client_->shard_context().sim().Now();
  // Expired ejection windows turn into canary probes: the lowest-position
  // candidate gets exactly one probe call (it is kProbing — ineligible for
  // normal picks — until the canary's outcome arrives).
  if (allow_canary) {
    for (size_t i = 0; i < backends_.size(); ++i) {
      BackendState& bs = health_[active_[i]];
      if (bs.health == BackendHealth::kEjected && now >= bs.ejected_until) {
        bs.health = BackendHealth::kProbing;
        ++bs.canary_probes;
        picked_canary_ = true;
        return i;
      }
    }
  }
  eligible_.clear();
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (health_[active_[i]].health == BackendHealth::kHealthy) {
      eligible_.push_back(i);
    }
  }
  if (eligible_.size() == backends_.size()) {
    return PickAmongAll();
  }
  if (eligible_.empty()) {
    // Fail open: with every backend ejected, picking an ejected backend
    // still beats failing every call locally (matches Envoy's max-ejection
    // escape hatch).
    return PickAmongAll();
  }
  return PickAmongEligible();
}

bool Channel::IsBadAttempt(StatusCode code, SimDuration latency) const {
  switch (code) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
    case StatusCode::kUnknown:
    case StatusCode::kDataLoss:
      return true;
    default:
      break;
  }
  // Gray-failure detection: an answer that took too long is as bad as an
  // error for the caller's tail latency.
  return code == StatusCode::kOk && options_.outlier.latency_threshold > 0 &&
         latency > options_.outlier.latency_threshold;
}

void Channel::Eject(size_t index, SimTime now) {
  BackendState& bs = health_[index];
  bs.health = BackendHealth::kEjected;
  ++bs.ejections;
  const OutlierEjectionOptions& opts = options_.outlier;
  double duration = static_cast<double>(opts.base_ejection) *
                    std::pow(opts.ejection_backoff, bs.consecutive_ejections);
  duration = std::min(duration, static_cast<double>(opts.max_ejection));
  ++bs.consecutive_ejections;
  bs.ejected_until = now + static_cast<SimDuration>(duration);
  // The window that triggered the ejection has served its purpose; the
  // backend re-earns trust from scratch after readmission.
  bs.cur_total = bs.cur_bad = bs.prev_total = bs.prev_bad = 0;
}

void Channel::OnAttemptOutcome(size_t index, bool canary, StatusCode code,
                               SimDuration latency) {
  if (!effective_outlier_enabled_) {
    return;
  }
  BackendState& bs = health_[index];
  const SimTime now = client_->shard_context().sim().Now();
  const bool bad = IsBadAttempt(code, latency);
  if (canary) {
    // The single probe decides: healthy again, or back in the penalty box
    // with a longer window.
    if (bs.health != BackendHealth::kProbing) {
      return;  // A crash of this channel's bookkeeping path; be conservative.
    }
    if (bad) {
      Eject(index, now);
    } else {
      bs.health = BackendHealth::kHealthy;
      bs.consecutive_ejections = 0;
      bs.cur_total = bs.cur_bad = bs.prev_total = bs.prev_bad = 0;
      bs.half_window_start = now;
      ++bs.readmissions;
    }
    return;
  }
  if (bs.health != BackendHealth::kHealthy) {
    // Outcome of a call issued before the ejection (or during fail-open);
    // it must not perturb the probe protocol.
    return;
  }
  const SimDuration half = options_.outlier.stats_window / 2;
  if (now - bs.half_window_start >= half) {
    if (now - bs.half_window_start >= 2 * half) {
      bs.prev_total = bs.prev_bad = 0;  // Everything in the window is stale.
    } else {
      bs.prev_total = bs.cur_total;
      bs.prev_bad = bs.cur_bad;
    }
    bs.cur_total = bs.cur_bad = 0;
    bs.half_window_start = now;
  }
  ++bs.cur_total;
  if (bad) {
    ++bs.cur_bad;
  }
  const int64_t total = bs.cur_total + bs.prev_total;
  const int64_t bad_count = bs.cur_bad + bs.prev_bad;
  if (total >= options_.outlier.min_samples &&
      static_cast<double>(bad_count) >=
          options_.outlier.failure_rate_threshold * static_cast<double>(total)) {
    Eject(index, now);
  }
}

MachineId Channel::PeekTarget() {
  RefreshPolicy();
  if (effective_policy_ == PickPolicy::kRoundRobin) {
    return backends_[round_robin_next_ % backends_.size()];
  }
  if (effective_policy_ == PickPolicy::kNearest) {
    return backends_[nearest_order_.front()];
  }
  return backends_[0];
}

void Channel::Call(MethodId method, Payload request, CallOptions options, CallCallback done) {
  RefreshPolicy();
  const size_t index = PickIndex(/*allow_canary=*/true);
  const size_t full = active_[index];
  const bool canary = picked_canary_;
  ++health_[full].picks;
  if (options.service_id < 0) {
    options.service_id = options_.service_id;
  }
  if (options.deadline == 0) {
    options.deadline = effective_deadline_;
  }
  if (options.max_retries == 0) {
    options.max_retries = effective_max_retries_;
  }
  // A canary probe is never hedged: the probe exists to measure the probed
  // backend, and a hedge rescue would finish the call elsewhere, leaving the
  // probe outcome (kCancelled) unable to resolve the probing state.
  if (effective_hedge_delay_ > 0 && options.hedge_delay == 0 && backends_.size() > 1 &&
      !canary) {
    options.hedge_delay = effective_hedge_delay_;
    // The hedge alternate must not consume a canary slot: its outcome is not
    // attributed per-backend, so a probe launched here could never resolve.
    size_t alt = PickIndex(/*allow_canary=*/false);
    if (alt == index) {
      alt = (index + 1) % backends_.size();
    }
    options.hedge_target = backends_[alt];
  }
  ++outstanding_[full];
  // Health samples come from per-attempt outcomes, not the call outcome: a
  // hedge that rescues a call must still charge the primary backend for its
  // failure (and the hedge's own backend for its result). Attribution is by
  // the attempt's target machine so it survives subset reshapes mid-flight.
  options.attempt_observer = [this, canary, primary = backends_[index]](
                                 MachineId target, StatusCode code, SimDuration latency) {
    if (code == StatusCode::kCancelled) {
      return;  // An abandoned hedge loser was never answered: no signal.
    }
    for (size_t f = 0; f < all_backends_.size(); ++f) {
      if (all_backends_[f] == target) {
        OnAttemptOutcome(f, canary && target == primary, code, latency);
        return;
      }
    }
  };
  client_->Call(backends_[index], method, std::move(request), options,
                [this, full, done = std::move(done)](const CallResult& result,
                                                     Payload response) {
                  --outstanding_[full];
                  done(result, std::move(response));
                });
}

Status Channel::CheckpointTo(CheckpointWriter& w) const {
  for (int64_t n : outstanding_) {
    if (n != 0) {
      return FailedPreconditionError("channel has outstanding calls at checkpoint");
    }
  }
  if (picked_canary_) {
    return FailedPreconditionError("channel mid-pick at checkpoint");
  }
  w.BeginSection("channel");
  w.WriteString(service_name_);
  w.WriteU64(options_.seed);
  w.WriteU32(static_cast<uint32_t>(all_backends_.size()));
  for (MachineId backend : all_backends_) {
    w.WriteI64(backend);
  }
  // Active-view shape, for validation only: the view itself is derived by
  // re-resolving the restored PolicyEngine, never deserialized.
  w.WriteU32(static_cast<uint32_t>(active_.size()));
  w.WriteU32(static_cast<uint32_t>(nearest_order_.size()));
  w.WriteU64(policy_version_seen_);
  WriteRngState(w, rng_);
  w.WriteU64(round_robin_next_);
  for (const BackendState& b : health_) {
    w.WriteU32(static_cast<uint32_t>(b.health));
    w.WriteI64(b.ejected_until);
    w.WriteU32(static_cast<uint32_t>(b.consecutive_ejections));
    w.WriteI64(b.cur_total);
    w.WriteI64(b.cur_bad);
    w.WriteI64(b.prev_total);
    w.WriteI64(b.prev_bad);
    w.WriteI64(b.half_window_start);
    w.WriteU64(b.picks);
    w.WriteU64(b.ejections);
    w.WriteU64(b.canary_probes);
    w.WriteU64(b.readmissions);
  }
  w.EndSection();
  return Status::Ok();
}

Status Channel::RestoreFrom(CheckpointReader& r) {
  for (int64_t n : outstanding_) {
    if (n != 0) {
      return FailedPreconditionError("restore into a channel with outstanding calls");
    }
  }
  if (Status s = r.EnterSection("channel"); !s.ok()) {
    return s;
  }
  const std::string service_name = r.ReadString();
  const uint64_t seed = r.ReadU64();
  const uint32_t num_backends = r.ReadU32();
  std::vector<MachineId> backends;
  backends.reserve(num_backends);
  for (uint32_t i = 0; i < num_backends && r.status().ok(); ++i) {
    backends.push_back(r.ReadI64());
  }
  const uint32_t active_size = r.ReadU32();
  const uint32_t nearest_order_size = r.ReadU32();
  const uint64_t policy_version = r.ReadU64();
  Rng rng(0);
  ReadRngState(r, rng);
  const uint64_t round_robin_next = r.ReadU64();
  std::vector<BackendState> health(backends.size());
  for (BackendState& b : health) {
    const uint32_t h = r.ReadU32();
    if (r.status().ok() && h > static_cast<uint32_t>(BackendHealth::kProbing)) {
      (void)r.LeaveSection();
      return DataLossError("channel: invalid backend health state");
    }
    b.health = static_cast<BackendHealth>(h);
    b.ejected_until = r.ReadI64();
    b.consecutive_ejections = static_cast<int>(r.ReadU32());
    b.cur_total = r.ReadI64();
    b.cur_bad = r.ReadI64();
    b.prev_total = r.ReadI64();
    b.prev_bad = r.ReadI64();
    b.half_window_start = r.ReadI64();
    b.picks = r.ReadU64();
    b.ejections = r.ReadU64();
    b.canary_probes = r.ReadU64();
    b.readmissions = r.ReadU64();
  }
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (service_name != service_name_ || seed != options_.seed || backends != all_backends_ ||
      health.size() != health_.size()) {
    return FailedPreconditionError("channel: checkpoint is for a different channel configuration");
  }
  rng_ = rng;
  round_robin_next_ = static_cast<size_t>(round_robin_next);
  health_ = std::move(health);
  eligible_.clear();
  picked_canary_ = false;
  // The shard's PolicyEngine is restored before its components, so
  // re-resolving here lands on the engine's current snapshot. The checkpoint
  // may have been taken while this channel was still *stale* (no call since
  // the barrier swap, so it never re-resolved): in that case the eager
  // rebuild here is behaviorally identical to the lazy rebuild the
  // uninterrupted run performs on the next Call — the subset shuffle draws
  // from a constructor-seeded local RNG, not shard state. Only when the
  // checkpoint saw the same version must the recomputed shape match.
  ApplyCurrentPolicy();
  if (policy_version == policy_version_seen_ &&
      (active_size != active_.size() || nearest_order_size != nearest_order_.size())) {
    return FailedPreconditionError("channel: restored active view differs from checkpoint");
  }
  return Status::Ok();
}

}  // namespace rpcscope
