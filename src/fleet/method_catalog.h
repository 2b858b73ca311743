// MethodCatalog: the generative model of the ~10,000-method population.
//
// This is the substitute for Google's proprietary workload. Every per-method
// generative parameter is a function of the method's latency-rank quantile
// u in [0,1) (methods sorted by median completion time, as in the paper's
// per-method figures) plus its service's workload category. The calibration
// anchors come straight from §2–§4 (see DESIGN.md §4); tests assert them.
//
// Popularity is built constructively so the paper's skew anchors hold:
//   - Network Disk "Write" alone is 28% of all calls (§2.3);
//   - the 10 / 100 most popular methods are ~58% / ~91% of calls;
//   - the 100 lowest-latency methods are ~40% of calls;
//   - the slowest 1000 methods are ~1.1% of calls.
// Per-service sums are then rescaled so service invocation shares match the
// ServiceCatalog exactly (Fig. 8a).
#ifndef RPCSCOPE_SRC_FLEET_METHOD_CATALOG_H_
#define RPCSCOPE_SRC_FLEET_METHOD_CATALOG_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/distributions.h"
#include "src/common/rng.h"
#include "src/fleet/service_catalog.h"
#include "src/net/topology.h"

namespace rpcscope {

struct MethodModel {
  int32_t method_id = -1;
  int32_t service_id = -1;
  std::string name;
  double popularity_weight = 0;
  double u = 0;  // Latency-rank quantile; drives all correlated parameters.

  // Server application time per RPC: a mixture of a fast path (cache hits,
  // trivially-served requests — this is what produces sub-millisecond P1
  // latencies on methods whose medians are tens of milliseconds) and a main
  // lognormal body.
  double app_median_us = 0;
  double app_sigma = 1.0;
  double fast_weight = 0;  // Probability an RPC takes the fast path.
  double fast_median_us = 200;
  double fast_sigma = 0.5;

  // Total queueing time (client send + server recv + server send + client
  // recv). Modeled as a mixture: most calls see a modest lognormal body, but
  // with a small probability the call lands in a congestion episode whose
  // scale is queue_tail_ratio x the median. This is the only shape that
  // satisfies both Fig. 13 (P99 queueing ~300x the median for many methods)
  // and Fig. 10 (queuing is only ~0.4% of invocation-weighted completion
  // time) simultaneously — a pure lognormal with that P99 would have a mean
  // ~50x the median and blow up the aggregate. Split across the four queue
  // components by fixed weights.
  double queue_median_us = 0;
  double queue_body_sigma = 0.8;
  double queue_tail_prob = 0.02;
  double queue_tail_ratio = 100;  // Episode median / body median.
  double queue_tail_sigma = 0.9;
  std::array<double, 4> queue_split{};  // csq, srq, ssq, crq; sums to 1.

  // Payload sizes (uncompressed serialized bytes), lognormal (Fig. 6).
  double req_median_bytes = 0;
  double req_sigma = 1.2;
  double resp_median_bytes = 0;
  double resp_sigma = 1.4;
  double redundancy = 0.5;          // Payload compressibility.
  bool compression_enabled = true;  // Bulk/block services skip compression.
  // Per-byte stack cost discount for blob-style channels (see
  // CycleCostModel::Stage).
  double byte_cost_scale = 1.0;

  // Client->server distance mix: probabilities over the five non-trivial
  // DistanceClass values {same-cluster, same-dc, same-metro, same-continent,
  // intercontinental}. Popular low-latency methods are overwhelmingly local.
  std::array<double, 5> locality{};

  // Per-method congestion profile (WAN congestion drives the Fig. 12 tail).
  double congestion_prob = 0.02;
  double lan_congestion_mean_us = 150;
  double wan_congestion_mean_us = 60000;

  // Lognormal sigma of the multiplicative jitter on proc+stack time.
  double proc_jitter_sigma = 0.35;

  // The method's own CPU work per call (excluding stack tax), in cycles.
  // Deliberately only loosely coupled to latency: §4.2 finds neither size nor
  // latency correlates with CPU cost.
  double cpu_median_cycles = 0;
  double cpu_sigma = 1.0;

  // Call-tree shape: a node of this method either stops (leaf), branches into
  // a small number of children, or — with probability burst_prob — fans out
  // partition/aggregate style into tens..hundreds of children (§2.4).
  double leaf_prob = 0.6;
  double branch_mean = 2.0;
  double burst_prob = 0.01;
  int burst_min = 40;
  int burst_max = 400;
  int tier = 1;

  // Error injection (Fig. 23): per-call probability of a server-side error.
  double error_prob = 0.01;
  // Whether callers hedge this method (hedging produces cancellations).
  bool hedged = false;
};

struct MethodCatalogOptions {
  int num_methods = 10000;
  uint64_t seed = 2023;
};

class MethodCatalog {
 public:
  // Generates the population against a service catalog.
  static MethodCatalog Generate(const ServiceCatalog& services,
                                const MethodCatalogOptions& options);

  const std::vector<MethodModel>& methods() const { return methods_; }
  const MethodModel& method(int32_t id) const { return methods_[static_cast<size_t>(id)]; }
  int32_t size() const { return static_cast<int32_t>(methods_.size()); }

  // Popularity-weighted sampling of method ids (O(1) per draw).
  const DiscreteDist& popularity() const { return *popularity_; }
  int32_t SampleMethod(Rng& rng) const { return static_cast<int32_t>(popularity_->Sample(rng)); }

  // The planted Network Disk "Write" method (28% of all calls).
  int32_t network_disk_write_id() const { return network_disk_write_id_; }

  // Methods of a given service, sorted by popularity (most popular first).
  std::vector<int32_t> MethodsOfService(int32_t service_id) const;

  // CSV dump of the generative parameters (one row per method) for external
  // tooling and inspection of the calibrated population.
  std::string ExportCsv(const ServiceCatalog& services) const;

 private:
  std::vector<MethodModel> methods_;
  std::unique_ptr<DiscreteDist> popularity_;
  int32_t network_disk_write_id_ = -1;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_FLEET_METHOD_CATALOG_H_
