// FleetSampler: the model-driven path that emits Dapper-style spans at fleet
// scale.
//
// The real study consumed ~722 billion sampled traces; our equivalent draws
// per-RPC component latencies, sizes, cycles, and statuses from each method's
// generative model (MethodCatalog) and materializes them as the same Span
// records the DES stack produces. All fleet-wide per-method figures
// (Figs. 2, 3, 6, 7, 8, 10–13, 21, 23) are computed from these spans.
#ifndef RPCSCOPE_SRC_FLEET_FLEET_SAMPLER_H_
#define RPCSCOPE_SRC_FLEET_FLEET_SAMPLER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/fleet/method_catalog.h"
#include "src/fleet/service_catalog.h"
#include "src/net/topology.h"
#include "src/rpc/cost_model.h"
#include "src/trace/span.h"

namespace rpcscope {

// A sampled RPC: the span plus its cycle breakdown (the span only carries the
// scalar normalized total; profiling wants the full split).
struct SampledRpc {
  Span span;
  CycleBreakdown cycles;
  double machine_speed = 1.0;
};

struct FleetSamplerOptions {
  uint64_t seed = 7;
  double cpu_annotation_probability = 0.5;
  double machine_speed_spread = 0.15;
  // Wall-time per stack cycle exceeds pure execution (cache misses, context
  // switches); proc+stack *latency* is cycles-derived time times this factor,
  // while the *cycle* accounting stays at the raw cost-model value.
  double proc_time_multiplier = 6.0;
};

class FleetSampler {
 public:
  // The catalogs, topology and cost model must outlive the sampler. The
  // method catalog is read once here for its per-method terms, so it must not
  // change while the sampler is in use.
  FleetSampler(const ServiceCatalog* services, const MethodCatalog* methods,
               const Topology* topology, const CycleCostModel* costs,
               const FleetSamplerOptions& options);

  // Samples one RPC of a popularity-weighted random method.
  SampledRpc Sample();

  // Samples one RPC of the given method.
  SampledRpc SampleMethod(int32_t method_id);

  // Effective compression ratio the model assumes for a method's payloads.
  static double AssumedCompressionRatio(const MethodModel& m);

  Rng& rng() { return rng_; }

 private:
  // The draw-independent terms of one method's model, evaluated once by the
  // constructor. Each uses the exact expression (operands and order) a draw
  // would evaluate, so every sampled value keeps its bits.
  struct MethodTerms {
    // std::log of the model's lognormal medians; the queue tail's median is
    // queue_median_us * queue_tail_ratio.
    double log_req_median = 0;
    double log_resp_median = 0;
    double log_fast_median = 0;
    double log_app_median = 0;
    double log_queue_median = 0;
    double log_queue_tail_median = 0;
    double log_cpu_median = 0;
    std::array<double, 5> locality_cdf{};  // Running sums of `locality`.
    double local_fast_prob = 0;            // Fast-path probability of a same-cluster call.
    double compression_ratio = 1.0;        // AssumedCompressionRatio().
  };

  // Picks a server cluster at the drawn distance class from the client.
  ClusterId PickServerCluster(ClusterId client, DistanceClass dc);

  const ServiceCatalog* services_;
  const MethodCatalog* methods_;
  const Topology* topology_;
  const CycleCostModel* costs_;
  FleetSamplerOptions options_;
  Rng rng_;
  uint64_t next_trace_ = 1;
  // clusters_by_class_[client][class] -> candidate server clusters.
  std::vector<std::array<std::vector<ClusterId>, 5>> clusters_by_class_;
  // terms_[method_id] -> that method's draw-independent terms.
  std::vector<MethodTerms> terms_;
};

// Error taxonomy mix (Fig. 23): relative frequency of each error type among
// failed RPCs, and the wasted-cycle multiplier applied when an RPC fails with
// that status (cancellations abort late, wasting an outsized share).
struct ErrorMixEntry {
  StatusCode code;
  double frequency;         // Fraction of all errors.
  double cycle_multiplier;  // Scales the call's cycles when it fails this way.
};
const std::vector<ErrorMixEntry>& FleetErrorMix();

// Draws an error status from the mix.
StatusCode SampleErrorStatus(Rng& rng);

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_FLEET_FLEET_SAMPLER_H_
