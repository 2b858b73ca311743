// ServiceStudy: discrete-event experiments on individual services (§3.3).
//
// Unlike the model-driven fleet sampler, these experiments run real client
// and server endpoints through the full RPC stack over the simulated fabric:
// queueing emerges from worker occupancy under open-loop Poisson load,
// proc+stack time from the cycle cost model, and wire time from the
// topology. The eight studied services (Table 1) have presets that land them
// in the paper's three bottleneck categories; exogenous knobs (application
// slowdown, scheduler wake-up latency) plug in the cluster-state model for
// the Figs. 16–18 sweeps, and placing clients in a remote cluster reproduces
// the Fig. 19 cross-cluster staircase.
//
// MakeStudyConfig is the one description of a Table-1 service's server and
// ServeStudyCall its one handler; MiniFleet (src/fleet/mini_fleet.h) deploys
// both, taking the compute mixture, error rate, payload sizes and worker
// counts. The other fields stay study-only: num_servers, num_clients,
// client_rx_*, target_utilization, duration, warmup and seed configure this
// harness, not the service (the mini-fleet sizes replicas for its own load);
// hedging belongs to the caller's channel, and hedging the mini-fleet's
// KV-Store callers would make it a different workload; cost_scale multiplies
// a whole RpcSystem's cost model, which the mini-fleet shares among nine
// services, so honoring it there would need per-endpoint pricing.
#ifndef RPCSCOPE_SRC_FLEET_SERVICE_STUDY_H_
#define RPCSCOPE_SRC_FLEET_SERVICE_STUDY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/service_catalog.h"
#include "src/rpc/rpc_system.h"
#include "src/sim/callback.h"
#include "src/trace/span.h"

namespace rpcscope {

class ServerCall;

struct ServiceStudyConfig {
  int32_t service_id = -1;
  std::string service_name;
  ServiceCategory category = ServiceCategory::kMixed;

  // Handler compute model (mixture of a fast path and a lognormal body).
  double app_median_us = 500;
  double app_sigma = 0.8;
  double fast_weight = 0.04;
  double fast_median_us = 80;

  // Payload sizes (Table 1).
  int64_t request_bytes = 1024;
  int64_t response_bytes = 1024;

  // Deployment and load.
  int num_servers = 4;
  int app_workers = 8;
  int io_workers = 2;
  int num_clients = 8;
  int client_rx_workers = 2;
  double client_rx_overhead_us = 0;  // Per-response client-side handling.
  double target_utilization = 0.55;

  // Stack-cost multiplier for this service's channel configuration (a
  // latency-sensitive service running the full auth/validation stack pays
  // more per message than a bulk pipe).
  double cost_scale = 1.0;

  bool hedged = false;
  double hedge_delay_multiplier = 4.0;  // x app median.
  double error_prob = 0.004;

  SimDuration duration = Seconds(8);
  SimDuration warmup = Seconds(1);
  uint64_t seed = 12345;
};

// Per-run environment: which cluster serves, exogenous state knobs, and where
// the clients sit (defaults to the serving cluster).
struct ServiceStudyRun {
  ClusterId server_cluster = 0;
  ClusterId client_cluster = -1;  // -1 => same as server_cluster.
  double app_slowdown = 1.0;
  SimDuration wakeup_latency = 0;
  uint64_t seed_salt = 0;
};

struct ServiceStudyResult {
  std::vector<Span> spans;  // Post-warmup spans, client-observed.
  double server_app_utilization = 0;
  uint64_t calls_issued = 0;
  double wasted_cycles = 0;
};

// Preset configs for the studied services (Table 1 + §3.3.1 categories).
ServiceStudyConfig MakeStudyConfig(const ServiceCatalog& catalog, int32_t service_id);

// All eight Table-1 services in the paper's figure order:
// Bigtable, Network Disk, F1, SSD cache, KV-Store, ML Inference, Spanner,
// Video Metadata.
std::vector<ServiceStudyConfig> MakeAllStudyConfigs(const ServiceCatalog& catalog);

ServiceStudyResult RunServiceStudy(const ServiceStudyConfig& config,
                                   const ServiceStudyRun& run);

// Serves one call of `config`'s service. Draws from `rng` in a fixed order:
// the fast-path coin (only when fast_weight > 0), the lognormal app time,
// the error coin. A failing call computes 0.3x the app time and finishes
// NOT_FOUND with 64 bytes. A successful one computes the app time, then runs
// `then`, which must finish the call (default: OK with response_bytes).
void ServeStudyCall(const ServiceStudyConfig& config, Rng& rng,
                    const std::shared_ptr<ServerCall>& call, SimCallback then = nullptr);

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_FLEET_SERVICE_STUDY_H_
