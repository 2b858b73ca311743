#include "src/rpc/channel.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/check.h"
#include "src/rpc/rpc_system.h"

namespace rpcscope {

Channel::Channel(Client* client, std::string service_name, std::vector<MachineId> backends,
                 const ChannelOptions& options)
    : client_(client),
      service_name_(std::move(service_name)),
      backends_(std::move(backends)),
      options_(options),
      rng_(options.seed) {
  RPCSCOPE_CHECK(client != nullptr);
  RPCSCOPE_CHECK(!backends_.empty());
  // Deterministic subsetting: shuffle the backends with a client-derived
  // seed and keep the first subset_size. Distinct clients land on
  // distinct-but-evenly-spread subsets; the same client always gets the
  // same subset.
  if (options_.subset_size > 0 && options_.subset_size < static_cast<int>(backends_.size())) {
    Rng shuffle_rng(Mix64(options_.seed ^ static_cast<uint64_t>(client_->machine())));
    for (size_t i = backends_.size(); i > 1; --i) {
      std::swap(backends_[i - 1], backends_[shuffle_rng.NextBounded(i)]);
    }
    backends_.resize(static_cast<size_t>(options_.subset_size));
  }
  outstanding_.assign(backends_.size(), 0);
  health_.resize(backends_.size());
  eligible_.reserve(backends_.size());
  // Precompute the latency-aware order: base RTTs are static.
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
  switch (options_.policy) {
    case PickPolicy::kRoundRobin:
      return round_robin_next_++ % backends_.size();
    case PickPolicy::kRandom:
      return rng_.NextBounded(backends_.size());
    case PickPolicy::kLeastLoaded: {
      const size_t a = rng_.NextBounded(backends_.size());
      const size_t b = rng_.NextBounded(backends_.size());
      return outstanding_[a] <= outstanding_[b] ? a : b;
    }
    case PickPolicy::kNearest:
      // Prefer the closest backend; spill to the next-closest when it has
      // twice the outstanding calls of the runner-up (coarse overload guard).
      for (size_t i = 0; i + 1 < nearest_order_.size(); ++i) {
        const size_t here = nearest_order_[i];
        const size_t next = nearest_order_[i + 1];
        if (outstanding_[here] <= 2 * outstanding_[next] + 4) {
          return here;
        }
      }
      return nearest_order_.back();
  }
  return 0;
}

size_t Channel::PickAmongEligible() {
  switch (options_.policy) {
    case PickPolicy::kRoundRobin:
      return eligible_[round_robin_next_++ % eligible_.size()];
    case PickPolicy::kRandom:
      return eligible_[rng_.NextBounded(eligible_.size())];
    case PickPolicy::kLeastLoaded: {
      const size_t a = eligible_[rng_.NextBounded(eligible_.size())];
      const size_t b = eligible_[rng_.NextBounded(eligible_.size())];
      return outstanding_[a] <= outstanding_[b] ? a : b;
    }
    case PickPolicy::kNearest: {
      // Same spill rule, over the nearest ordering restricted to eligible
      // backends: compare each eligible backend against the next eligible one.
      size_t prev = backends_.size();  // Sentinel: no eligible seen yet.
      for (size_t i = 0; i < nearest_order_.size(); ++i) {
        const size_t pos = nearest_order_[i];
        if (health_[pos].health != BackendHealth::kHealthy) {
          continue;
        }
        if (prev != backends_.size() &&
            outstanding_[prev] <= 2 * outstanding_[pos] + 4) {
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
  if (!options_.outlier.enabled) {
    return PickAmongAll();
  }
  const SimTime now = client_->shard_context().sim().Now();
  // Expired ejection windows turn into canary probes: the lowest-position
  // candidate gets exactly one probe call (it is kProbing — ineligible for
  // normal picks — until the canary's outcome arrives).
  if (allow_canary) {
    for (size_t i = 0; i < backends_.size(); ++i) {
      BackendState& bs = health_[i];
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
    if (health_[i].health == BackendHealth::kHealthy) {
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
  if (!options_.outlier.enabled) {
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
  if (options_.policy == PickPolicy::kRoundRobin) {
    return backends_[round_robin_next_ % backends_.size()];
  }
  if (options_.policy == PickPolicy::kNearest) {
    return backends_[nearest_order_.front()];
  }
  return backends_[0];
}

void Channel::Call(MethodId method, Payload request, CallOptions options, CallCallback done) {
  const size_t index = PickIndex(/*allow_canary=*/true);
  const bool canary = picked_canary_;
  ++health_[index].picks;
  if (options.service_id < 0) {
    options.service_id = options_.service_id;
  }
  if (options.deadline == 0) {
    options.deadline = options_.default_deadline;
  }
  if (options.max_retries == 0) {
    options.max_retries = options_.default_max_retries;
  }
  // A canary probe is never hedged: the probe exists to measure the probed
  // backend, and a hedge rescue would finish the call elsewhere, leaving the
  // probe outcome (kCancelled) unable to resolve the probing state.
  if (options_.hedge_delay > 0 && options.hedge_delay == 0 && backends_.size() > 1 &&
      !canary) {
    options.hedge_delay = options_.hedge_delay;
    // The hedge alternate must not consume a canary slot: its outcome is not
    // attributed per-backend, so a probe launched here could never resolve.
    size_t alt = PickIndex(/*allow_canary=*/false);
    if (alt == index) {
      alt = (index + 1) % backends_.size();
    }
    options.hedge_target = backends_[alt];
  }
  ++outstanding_[index];
  // Health samples come from per-attempt outcomes, not the call outcome: a
  // hedge that rescues a call must still charge the primary backend for its
  // failure (and the hedge's own backend for its result). Attribution is by
  // the attempt's target machine, since a hedge touches another backend.
  options.attempt_observer = [this, canary, primary = backends_[index]](
                                 MachineId target, StatusCode code, SimDuration latency) {
    if (code == StatusCode::kCancelled) {
      return;  // An abandoned hedge loser was never answered: no signal.
    }
    for (size_t i = 0; i < backends_.size(); ++i) {
      if (backends_[i] == target) {
        OnAttemptOutcome(i, canary && target == primary, code, latency);
        return;
      }
    }
  };
  client_->Call(backends_[index], method, std::move(request), options,
                [this, index, done = std::move(done)](const CallResult& result,
                                                      Payload response) mutable {
                  --outstanding_[index];
                  done(result, std::move(response));
                });
}

}  // namespace rpcscope
