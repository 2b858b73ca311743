#include "src/fleet/fleet_sampler.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/rpc/stage_model.h"

namespace rpcscope {

namespace {

// RTT band per distance class (mirrors src/net/topology.cc; the sampler draws
// log-uniformly within the band per call instead of fixing per-pair RTTs).
struct Band {
  double lo_us;
  double hi_us;
};

Band RttBandFor(int class_index) {
  switch (class_index) {
    case 0:
      return {20, 80};  // same-cluster
    case 1:
      return {100, 500};  // same-datacenter
    case 2:
      return {600, 4000};  // same-metro (different campus)
    case 3:
      return {5000, 60000};  // same-continent
    default:
      return {60000, 200000};  // intercontinental
  }
}

}  // namespace

const std::vector<ErrorMixEntry>& FleetErrorMix() {
  // Frequencies sum to 1 over errors; overall error rate is per-method.
  // Cancelled dominates both count (45%) and — via its multiplier — wasted
  // cycles (55%), matching §4.4.
  static const std::vector<ErrorMixEntry> mix = {
      {StatusCode::kCancelled, 0.45, 1.65},
      {StatusCode::kNotFound, 0.20, 1.05},
      {StatusCode::kDeadlineExceeded, 0.09, 1.3},
      {StatusCode::kResourceExhausted, 0.08, 0.9},
      {StatusCode::kPermissionDenied, 0.07, 0.7},
      {StatusCode::kUnavailable, 0.06, 0.8},
      {StatusCode::kAborted, 0.03, 1.0},
      {StatusCode::kInternal, 0.02, 1.0},
  };
  return mix;
}

StatusCode SampleErrorStatus(Rng& rng) {
  const auto& mix = FleetErrorMix();
  double u = rng.NextDouble();
  for (const ErrorMixEntry& e : mix) {
    if (u < e.frequency) {
      return e.code;
    }
    u -= e.frequency;
  }
  return mix.back().code;
}

FleetSampler::FleetSampler(const ServiceCatalog* services, const MethodCatalog* methods,
                           const Topology* topology, const CycleCostModel* costs,
                           const FleetSamplerOptions& options)
    : services_(services),
      methods_(methods),
      topology_(topology),
      costs_(costs),
      options_(options),
      rng_(options.seed) {
  RPCSCOPE_CHECK(services && methods && topology && costs);
  // Precompute per-cluster candidate lists per distance class.
  const int nc = topology_->num_clusters();
  clusters_by_class_.resize(static_cast<size_t>(nc));
  for (ClusterId a = 0; a < nc; ++a) {
    for (ClusterId b = 0; b < nc; ++b) {
      const DistanceClass dc = topology_->ClusterDistance(a, b);
      const int idx = static_cast<int>(dc) - 1;  // kSameCluster==1 -> 0.
      if (idx >= 0 && idx < 5) {
        clusters_by_class_[static_cast<size_t>(a)][static_cast<size_t>(idx)].push_back(b);
      }
    }
  }
  terms_.reserve(static_cast<size_t>(methods_->size()));
  for (const MethodModel& m : methods_->methods()) {
    MethodTerms& t = terms_.emplace_back();
    t.log_req_median = std::log(m.req_median_bytes);
    t.log_resp_median = std::log(m.resp_median_bytes);
    t.log_fast_median = std::log(m.fast_median_us);
    t.log_app_median = std::log(m.app_median_us);
    t.log_queue_median = std::log(m.queue_median_us);
    t.log_queue_tail_median = std::log(m.queue_median_us * m.queue_tail_ratio);
    t.log_cpu_median = std::log(m.cpu_median_cycles);
    double acc = 0;
    for (size_t k = 0; k < 5; ++k) {
      acc += m.locality[k];
      t.locality_cdf[k] = acc;
    }
    // Conditioning on locality preserves the method's marginal fast-path rate.
    t.local_fast_prob = std::min(1.0, m.fast_weight / std::max(m.locality[0], 1e-3));
    t.compression_ratio = AssumedCompressionRatio(m);
  }
}

ClusterId FleetSampler::PickServerCluster(ClusterId client, DistanceClass dc) {
  const int idx = static_cast<int>(dc) - 1;
  const auto& candidates =
      clusters_by_class_[static_cast<size_t>(client)][static_cast<size_t>(idx)];
  if (candidates.empty()) {
    return client;
  }
  return candidates[rng_.NextBounded(candidates.size())];
}

double FleetSampler::AssumedCompressionRatio(const MethodModel& m) {
  if (!m.compression_enabled) {
    return 1.0;
  }
  return std::clamp(1.05 - 0.75 * m.redundancy, 0.25, 1.0);
}

SampledRpc FleetSampler::Sample() { return SampleMethod(methods_->SampleMethod(rng_)); }

SampledRpc FleetSampler::SampleMethod(int32_t method_id) {
  const MethodModel& m = methods_->method(method_id);
  const MethodTerms& t = terms_[static_cast<size_t>(method_id)];
  SampledRpc out;
  Span& span = out.span;
  span.trace_id = Mix64(next_trace_++) | 1;
  span.span_id = Mix64(0xabcd ^ next_trace_) | 1;
  span.method_id = m.method_id;
  span.service_id = m.service_id;
  span.start_time = static_cast<SimTime>(rng_.NextBounded(static_cast<uint64_t>(kDay)));

  // Every method serves a slice of trivial requests (validation failures,
  // empty results, cache hits) that cost almost nothing and carry almost no
  // payload — this shared cheap floor is why the cheapest decile of calls
  // costs nearly the same across the entire method population (Fig. 21).
  const bool cheap_call = rng_.NextBool(0.12);

  // --- Sizes (serialized payload bytes) and wire bytes.
  const double size_scale = cheap_call ? 0.1 : 1.0;
  const double req_bytes =
      std::max(64.0, size_scale * rng_.NextLognormal(t.log_req_median, m.req_sigma));
  const double resp_bytes =
      std::max(64.0, size_scale * rng_.NextLognormal(t.log_resp_median, m.resp_sigma));
  const int64_t req_wire = static_cast<int64_t>(req_bytes * t.compression_ratio) + 24;
  const int64_t resp_wire = static_cast<int64_t>(resp_bytes * t.compression_ratio) + 24;
  span.request_payload_bytes = static_cast<int64_t>(req_bytes);
  span.response_payload_bytes = static_cast<int64_t>(resp_bytes);
  span.request_wire_bytes = req_wire;
  span.response_wire_bytes = resp_wire;

  // --- Machines: client/server clusters by the method's locality mix.
  const double loc_draw = rng_.NextDouble() * t.locality_cdf[4];
  size_t class_idx = 0;
  while (class_idx < 4 && loc_draw > t.locality_cdf[class_idx]) {
    ++class_idx;
  }
  const ClusterId client_cluster =
      static_cast<ClusterId>(rng_.NextBounded(static_cast<uint64_t>(topology_->num_clusters())));
  const DistanceClass dc = static_cast<DistanceClass>(class_idx + 1);
  const ClusterId server_cluster = PickServerCluster(client_cluster, dc);
  span.client_cluster = client_cluster;
  span.server_cluster = server_cluster;

  // Per-machine CPU generation heterogeneity.
  const double spread = options_.machine_speed_spread;
  out.machine_speed = 1.0 - spread + 2.0 * spread * rng_.NextDouble();

  // --- Application time (mixture with fast path). Fast paths are cache hits
  // served to co-located clients: they occur (almost) only on same-cluster
  // calls — where they are ~3x likelier than the method's base rate — and
  // they bypass most of the server pipeline, so they also see far less
  // queueing. This coupling is what gives slow methods sub-millisecond P1
  // latencies (Fig. 2) without touching their medians.
  double app_us;
  double queue_scale = 1.0;
  const double fast_prob = class_idx == 0 ? t.local_fast_prob : 0.0;
  if (fast_prob > 0 && rng_.NextBool(fast_prob)) {
    app_us = rng_.NextLognormal(t.log_fast_median, m.fast_sigma);
    queue_scale = 0.15;
  } else {
    app_us = rng_.NextLognormal(t.log_app_median, m.app_sigma);
  }
  span.latency[RpcComponent::kServerApp] = DurationFromMicros(app_us);

  // --- Queueing: lognormal body with rare congestion episodes (see the
  // MethodModel field comments for why this mixture shape is required).
  double queue_us;
  if (rng_.NextBool(m.queue_tail_prob)) {
    queue_us = rng_.NextLognormal(t.log_queue_tail_median, m.queue_tail_sigma);
  } else {
    queue_us = rng_.NextLognormal(t.log_queue_median, m.queue_body_sigma);
  }
  queue_us *= queue_scale;
  span.latency[RpcComponent::kClientSendQueue] = DurationFromMicros(queue_us * m.queue_split[0]);
  span.latency[RpcComponent::kServerRecvQueue] = DurationFromMicros(queue_us * m.queue_split[1]);
  span.latency[RpcComponent::kServerSendQueue] = DurationFromMicros(queue_us * m.queue_split[2]);
  span.latency[RpcComponent::kClientRecvQueue] = DurationFromMicros(queue_us * m.queue_split[3]);

  // --- Proc + network stack: cycle-model time with per-call jitter, priced
  // on the host pipeline.
  const TaxProfile& host = BaselineProfile();
  auto side = [&](int64_t payload_bytes, int64_t wire_bytes, bool send) {
    return host
        .MessageCost(*costs_, {.payload_bytes = payload_bytes,
                               .wire_bytes = wire_bytes,
                               .byte_cost_scale = m.byte_cost_scale,
                               .send = send})
        .host;
  };
  CycleBreakdown req_send = side(span.request_payload_bytes, req_wire, true);
  CycleBreakdown req_recv = side(span.request_payload_bytes, req_wire, false);
  CycleBreakdown resp_send = side(span.response_payload_bytes, resp_wire, true);
  CycleBreakdown resp_recv = side(span.response_payload_bytes, resp_wire, false);
  if (!m.compression_enabled) {
    // Bulk/block services ship pre-compressed or raw data and disable the
    // compressor on their channels (this is what keeps Network Disk under 2%
    // of fleet cycles despite carrying 35% of calls, Fig. 8c).
    for (CycleBreakdown* b : {&req_send, &req_recv, &resp_send, &resp_recv}) {
      (*b)[CycleCategory::kCompression] = 0;
    }
  }
  const double jitter_req =
      options_.proc_time_multiplier * std::exp(m.proc_jitter_sigma * rng_.NextGaussian());
  const double jitter_resp =
      options_.proc_time_multiplier * std::exp(m.proc_jitter_sigma * rng_.NextGaussian());
  span.latency[RpcComponent::kRequestProcStack] = static_cast<SimDuration>(
      static_cast<double>(costs_->CyclesToDuration(req_send.TaxTotal() + req_recv.TaxTotal(),
                                                   out.machine_speed)) *
      jitter_req);
  span.latency[RpcComponent::kResponseProcStack] = static_cast<SimDuration>(
      static_cast<double>(costs_->CyclesToDuration(resp_send.TaxTotal() + resp_recv.TaxTotal(),
                                                   out.machine_speed)) *
      jitter_resp);

  // --- Network wire, per direction: propagation + serialization + congestion.
  const Band band = RttBandFor(static_cast<int>(class_idx));
  const double rtt_us =
      band.lo_us * std::pow(band.hi_us / band.lo_us, rng_.NextDouble());
  const bool wan = class_idx >= 3;
  const double bytes_per_us = wan ? 1250.0 : 12500.0;  // 10 / 100 Gbps.
  auto wire_one_way = [&](int64_t wire_bytes) {
    double us = rtt_us / 2 + static_cast<double>(wire_bytes) / bytes_per_us;
    if (rng_.NextBool(m.congestion_prob)) {
      const double mean = wan ? m.wan_congestion_mean_us : m.lan_congestion_mean_us;
      us += rng_.NextExponential(mean);
    }
    return DurationFromMicros(us);
  };
  span.latency[RpcComponent::kRequestWire] = wire_one_way(req_wire);
  span.latency[RpcComponent::kResponseWire] = wire_one_way(resp_wire);

  // --- Cycles: full stack tax on both sides plus the method's own compute.
  out.cycles.Accumulate(req_send);
  out.cycles.Accumulate(req_recv);
  out.cycles.Accumulate(resp_send);
  out.cycles.Accumulate(resp_recv);
  if (cheap_call) {
    out.cycles[CycleCategory::kApplication] +=
        rng_.NextLognormal(std::log(3000.0), 0.3);
  } else {
    // Clamped at ~0.7s of CPU: no single RPC burns more (OS/deadline limits).
    out.cycles[CycleCategory::kApplication] +=
        std::min(2e9, rng_.NextLognormal(t.log_cpu_median, m.cpu_sigma));
  }

  // --- Status (Fig. 23): errors scale the cycles they waste.
  if (rng_.NextBool(m.error_prob)) {
    span.status = SampleErrorStatus(rng_);
    for (const ErrorMixEntry& e : FleetErrorMix()) {
      if (e.code == span.status) {
        for (double& c : out.cycles.cycles) {
          c *= e.cycle_multiplier;
        }
        break;
      }
    }
  }

  span.has_cpu_annotation =
      static_cast<double>(Mix64(span.span_id ^ 0x9c9c) >> 11) * 0x1.0p-53 <
      options_.cpu_annotation_probability;
  span.normalized_cpu_cycles =
      out.cycles.Total() / out.machine_speed / costs_->normalization_cycles;
  return out;
}

}  // namespace rpcscope
