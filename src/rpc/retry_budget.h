// RetryBudget: a token bucket that keeps retries from becoming a storm.
//
// Retries amplify load exactly when the fleet can least afford it: a backend
// that starts failing makes every client send *more* traffic. The classic
// defense (gRPC's retry throttling, "RPC as a Managed System Service") is a
// per-client token bucket refilled by a fraction of *successful* calls:
// healthy traffic earns the right to retry, sustained failure drains it and
// retries stop, capping the amplification factor at ~1 + refill ratio.
#ifndef RPCSCOPE_SRC_RPC_RETRY_BUDGET_H_
#define RPCSCOPE_SRC_RPC_RETRY_BUDGET_H_

#include <cstdint>

namespace rpcscope {

// RPCSCOPE_CHECKPOINTED(SaveState, RestoreState)
class RetryBudget {
 public:
  // Configuration, not checkpointed state: RestoreState only validates the
  // enablement against a saved snapshot.
  struct Options {
    // Disabled by default: TryConsume() always succeeds (legacy unbudgeted
    // behavior). Enable per client via ClientOptions::retry_budget.
    bool enabled = false;
    // Tokens available before any call has succeeded (allows a burst of
    // retries at startup / after a quiet period).
    double initial_tokens = 10.0;
    double max_tokens = 100.0;
    // Tokens earned per successful call (~10% of successes fund retries).
    double refill_per_success = 0.1;
  };

  RetryBudget() = default;
  explicit RetryBudget(const Options& options)
      : options_(options), tokens_(options.initial_tokens) {}

  // A call completed successfully: refill the bucket.
  void OnSuccess() {
    if (!options_.enabled) {
      return;
    }
    tokens_ += options_.refill_per_success;
    if (tokens_ > options_.max_tokens) {
      tokens_ = options_.max_tokens;
    }
  }

  // Attempts to withdraw one token for a retry. Returns false (and counts an
  // exhaustion) when the bucket is empty; the caller must then fail the call
  // with the underlying error instead of retrying.
  bool TryConsume() {
    if (!options_.enabled) {
      return true;
    }
    if (tokens_ < 1.0) {
      ++exhausted_;
      return false;
    }
    tokens_ -= 1.0;
    return true;
  }

  bool enabled() const { return options_.enabled; }
  double tokens() const { return tokens_; }
  // Number of retries suppressed because the bucket was empty — the
  // "retry budget exhausted" metric of the resilience layer.
  uint64_t exhausted() const { return exhausted_; }

  // Checkpoint state: the mutable bucket level and exhaustion tally. The
  // `enabled` bit rides along purely so restore can confirm it lands on a
  // budget configured the same way.
  struct State {
    bool enabled = false;
    double tokens = 0;
    uint64_t exhausted = 0;
  };
  State SaveState() const { return State{options_.enabled, tokens_, exhausted_}; }
  bool RestoreState(const State& state) {
    if (state.enabled != options_.enabled) {
      return false;
    }
    tokens_ = state.tokens;
    exhausted_ = state.exhausted;
    return true;
  }

 private:
  Options options_;
  double tokens_ = 0;
  uint64_t exhausted_ = 0;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_RPC_RETRY_BUDGET_H_
