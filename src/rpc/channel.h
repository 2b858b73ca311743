// Channel: a client-side view of a replicated service.
//
// Production RPC stacks do not call machines, they call *services*: a channel
// owns the backend set, picks a target per call (the paper's §4.3 notes the
// fleet balancer is latency-aware, not CPU-aware), applies the service's
// default call policy (deadline, retries, hedging against a second backend),
// and keeps per-backend outstanding-call counts for least-loaded picking.
//
// Outlier ejection (docs/ROBUSTNESS.md): with ChannelOptions::outlier enabled
// the channel tracks per-backend success/latency over a rolling window,
// ejects backends whose failure (or slow-success) rate crosses the threshold
// for an exponentially backed-off window, then readmits them only after a
// single successful canary probe. This is what turns a crashed, partitioned,
// or gray-slow backend from a per-call tax into a one-time detection cost.
#ifndef RPCSCOPE_SRC_RPC_CHANNEL_H_
#define RPCSCOPE_SRC_RPC_CHANNEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/rpc/client.h"

namespace rpcscope {

enum class PickPolicy : int32_t {
  kRoundRobin = 0,
  kRandom = 1,
  // Least outstanding calls among two random backends (power of two choices).
  kLeastLoaded = 2,
  // Lowest base RTT from the client; ties broken round-robin. This is the
  // latency-aware policy the paper's fleet uses across clusters.
  kNearest = 3,
};

// Per-backend circuit breaking. A backend is kHealthy (picked normally),
// kEjected (receives no picks until its window expires), or kProbing (its
// ejection window expired and exactly one canary call is in flight; the
// canary's outcome decides readmission vs. re-ejection with longer backoff).
enum class BackendHealth : int32_t {
  kHealthy = 0,
  kEjected = 1,
  kProbing = 2,
};

struct OutlierEjectionOptions {
  bool enabled = false;
  // Rolling stats window (two half-windows) over which failure rates are
  // measured; samples older than a full window are forgotten.
  SimDuration stats_window = Seconds(1);
  // Minimum outcomes in the window before the ejection rule may fire (a
  // single failed call must not eject a backend).
  int64_t min_samples = 8;
  // Eject when bad outcomes / total outcomes reaches this fraction.
  double failure_rate_threshold = 0.5;
  // If > 0, a *successful* call slower than this counts as a bad outcome —
  // the gray-failure detector: a backend that answers, but 20x slower,
  // should be ejected just like one that errors.
  SimDuration latency_threshold = 0;
  // First ejection lasts base_ejection; each consecutive re-ejection
  // multiplies the window by ejection_backoff, capped at max_ejection.
  SimDuration base_ejection = Seconds(1);
  double ejection_backoff = 2.0;
  SimDuration max_ejection = Seconds(30);
};

struct ChannelOptions {
  PickPolicy policy = PickPolicy::kLeastLoaded;
  // Deterministic subsetting: each client deterministically restricts itself
  // to `subset_size` of the backends (0 = use all). Keeps per-server
  // connection counts bounded at fleet scale while spreading clients evenly
  // across backends.
  int subset_size = 0;
  // Defaults merged into every call (explicit CallOptions fields win).
  SimDuration default_deadline = 0;
  int default_max_retries = 0;
  // If > 0, hedge each call after this delay against a second pick.
  SimDuration hedge_delay = 0;
  OutlierEjectionOptions outlier;
  uint64_t seed = 0xc4a77e1;
  // Service this channel fronts, stamped on each call whose CallOptions leave
  // service_id unset: spans record it, and the client resolves that service's
  // policy-plane entry (docs/POLICY.md). The channel itself reads only the
  // options above. -1 = unknown (fleet-wide policy defaults only).
  int32_t service_id = -1;
};

class Channel {
 public:
  // `backends` must be non-empty; the channel keeps a reference to `client`.
  Channel(Client* client, std::string service_name, std::vector<MachineId> backends,
          const ChannelOptions& options);

  // Issues a call to a picked backend with the channel's defaults applied.
  void Call(MethodId method, Payload request, CallOptions options, CallCallback done);
  void Call(MethodId method, Payload request, CallCallback done) {
    Call(method, std::move(request), CallOptions{}, std::move(done));
  }

  // The backend the next kRoundRobin/kNearest pick would use (for tests).
  MachineId PeekTarget();

  const std::string& service_name() const { return service_name_; }
  // The backend list after subsetting, fixed at construction.
  const std::vector<MachineId>& backends() const { return backends_; }
  int64_t outstanding(size_t backend_index) const { return outstanding_[backend_index]; }

  // Ejection introspection (per backend index, post-subsetting).
  BackendHealth health(size_t backend_index) const { return health_[backend_index].health; }
  uint64_t picks(size_t backend_index) const { return health_[backend_index].picks; }
  uint64_t ejections(size_t backend_index) const { return health_[backend_index].ejections; }
  uint64_t canary_probes(size_t backend_index) const {
    return health_[backend_index].canary_probes;
  }
  uint64_t readmissions(size_t backend_index) const {
    return health_[backend_index].readmissions;
  }

 private:
  struct BackendState {
    BackendHealth health = BackendHealth::kHealthy;
    SimTime ejected_until = 0;
    int consecutive_ejections = 0;
    // Two half-window failure stats; rotated lazily on outcome arrival.
    int64_t cur_total = 0;
    int64_t cur_bad = 0;
    int64_t prev_total = 0;
    int64_t prev_bad = 0;
    SimTime half_window_start = 0;
    uint64_t picks = 0;
    uint64_t ejections = 0;
    uint64_t canary_probes = 0;
    uint64_t readmissions = 0;
  };

  // Picks return positions into backends_, which also index outstanding_
  // and health_.
  size_t PickIndex(bool allow_canary);
  // The pre-ejection pick policies, unchanged (also the fast path when the
  // ejector is disabled or every backend is healthy).
  size_t PickAmongAll();
  size_t PickAmongEligible();
  bool IsBadAttempt(StatusCode code, SimDuration latency) const;
  // Invoked once per attempt (via CallOptions::attempt_observer), so a
  // hedged call contributes a sample for each backend it actually touched.
  void OnAttemptOutcome(size_t index, bool canary, StatusCode code, SimDuration latency);
  void Eject(size_t index, SimTime now);

  Client* client_;
  std::string service_name_;
  std::vector<MachineId> backends_;
  ChannelOptions options_;
  Rng rng_;
  size_t round_robin_next_ = 0;
  std::vector<int64_t> outstanding_;
  std::vector<size_t> nearest_order_;  // Positions sorted by base RTT.
  std::vector<BackendState> health_;
  // Healthy positions, rebuilt per pick when ejections are active (capacity
  // reused across picks; no steady-state allocation).
  std::vector<size_t> eligible_;
  // Set by PickIndex when the returned pick is a canary probe.
  bool picked_canary_ = false;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_RPC_CHANNEL_H_
