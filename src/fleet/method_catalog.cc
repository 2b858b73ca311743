#include "src/fleet/method_catalog.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "src/common/check.h"

namespace rpcscope {

namespace {

// --- Calibration curves (anchors from the paper; see DESIGN.md §4). ---

// Per-method median RPC completion time in microseconds, as a function of the
// latency-rank quantile u (§2.3): 90% of methods have medians >= 10.7 ms; the
// slowest 5% reach seconds.
const QuantileCurve& RctMedianCurve() {
  static const QuantileCurve curve({{0.005, 700.0},
                                    {0.02, 1200.0},
                                    {0.10, 10700.0},
                                    {0.50, 45000.0},
                                    {0.90, 300000.0},
                                    {0.95, 2.6e6},
                                    {0.995, 1.5e7}},
                                   100.0, 8.0e7);
  return curve;
}

// Per-method median total queueing time in microseconds (Fig. 13): half of
// methods <= 360 us, the worst decile >= 1.1 ms.
const QuantileCurve& QueueMedianCurve() {
  static const QuantileCurve curve(
      {{0.02, 20.0}, {0.10, 60.0}, {0.50, 360.0}, {0.90, 1100.0}, {0.99, 3000.0}}, 10.0, 1.0e5);
  return curve;
}

// Per-method median request size in bytes (Fig. 6; Q10 adjusted to keep the
// anchor set monotone — see DESIGN.md).
const QuantileCurve& RequestSizeCurve() {
  static const QuantileCurve curve(
      {{0.10, 200.0}, {0.50, 1530.0}, {0.90, 11800.0}, {0.99, 196000.0}}, 64.0, 1.0e7);
  return curve;
}

// Per-method median response size in bytes (Fig. 6).
const QuantileCurve& ResponseSizeCurve() {
  static const QuantileCurve curve(
      {{0.10, 188.0}, {0.50, 315.0}, {0.90, 10000.0}, {0.99, 563000.0}}, 64.0, 1.0e7);
  return curve;
}

double HashUnit(uint64_t seed, uint64_t a, uint64_t b) {
  return static_cast<double>(Mix64(seed ^ Mix64(a * 0x1009 + b)) >> 11) * 0x1.0p-53;
}

}  // namespace

MethodCatalog MethodCatalog::Generate(const ServiceCatalog& services,
                                      const MethodCatalogOptions& options) {
  const int n = options.num_methods;
  RPCSCOPE_CHECK_GE(n, 200);
  MethodCatalog catalog;
  const auto& specs = services.services();
  const int32_t nd = services.studied().network_disk;

  // ---- 1. Methods per service: sub-linear in call share (popular services
  // have more methods, but not proportionally more).
  const size_t num_services = specs.size();
  std::vector<int> methods_per_service(num_services);
  {
    double total_alloc = 0;
    std::vector<double> alloc(num_services);
    for (size_t s = 0; s < num_services; ++s) {
      alloc[s] = std::pow(specs[s].call_share, 0.35);
      total_alloc += alloc[s];
    }
    int assigned = 0;
    for (size_t s = 0; s < num_services; ++s) {
      methods_per_service[s] = std::max(8, static_cast<int>(alloc[s] / total_alloc * n));
      assigned += methods_per_service[s];
    }
    // Trim or pad the largest service so counts sum exactly to n.
    const size_t biggest =
        static_cast<size_t>(std::max_element(methods_per_service.begin(),
                                             methods_per_service.end()) -
                            methods_per_service.begin());
    methods_per_service[biggest] += n - assigned;
    RPCSCOPE_CHECK_GT(methods_per_service[biggest], 0);
  }

  // ---- 2. Per-service in-service popularity: one dominant "primary" method
  // (Network Disk's is the famous Write at 80% of the service's traffic,
  // i.e. 28% of the fleet) plus a zipf tail. This construction makes the
  // paper's global skew anchors (top-10 ~58%, top-100 ~91%) structural:
  // the ten most popular methods are the primaries of the largest services.
  struct ProtoMethod {
    int32_t service_id;
    int in_rank;  // 1 = the service's primary method.
    double weight;
    double target_u;
    uint64_t hash;
  };
  std::vector<ProtoMethod> protos;
  protos.reserve(static_cast<size_t>(n));
  for (size_t s = 0; s < num_services; ++s) {
    const ServiceSpec& spec = specs[s];
    const int ns = methods_per_service[s];
    const double f_top = static_cast<int32_t>(s) == nd ? 0.80
                         : spec.call_share >= 0.02    ? 0.80
                                                      : 0.62;
    // Zipf tail over ranks 2..ns.
    double tail_norm = 0;
    for (int r = 2; r <= ns; ++r) {
      tail_norm += 1.0 / std::pow(static_cast<double>(r - 1), 1.45);
    }
    // The primary methods of the two fastest storage substrates (Network
    // Disk, KV-Store) anchor the "100 lowest-latency methods carry 40% of
    // calls" skew; other services' primaries sit near half their band.
    const bool ultra_fast = spec.latency_band <= 0.06;
    const double low_u = ultra_fast ? 0.003 : std::max(0.012, 0.45 * spec.latency_band);
    const double high_u = std::min(0.97, spec.latency_band + 0.50);
    for (int r = 1; r <= ns; ++r) {
      ProtoMethod p;
      p.service_id = static_cast<int32_t>(s);
      p.in_rank = r;
      const double w_in =
          r == 1 ? f_top
                 : (1.0 - f_top) / std::pow(static_cast<double>(r - 1), 1.45) / tail_norm;
      p.weight = spec.call_share * w_in;
      p.hash = Mix64(options.seed ^ Mix64((s << 20) + static_cast<uint64_t>(r)));
      const double t = ns > 1 ? static_cast<double>(r - 1) / (ns - 1) : 0.0;
      const double jitter =
          (static_cast<double>(p.hash >> 11) * 0x1.0p-53 - 0.5) * 0.06;
      p.target_u = std::clamp(low_u + (high_u - low_u) * std::pow(t, 0.75) + jitter,
                              0.0005, 0.9995);
      protos.push_back(p);
    }
  }

  // ---- 3. Latency ranking: methods sorted by target u; method id == rank.
  std::stable_sort(protos.begin(), protos.end(),
                   [](const ProtoMethod& a, const ProtoMethod& b) {
                     return a.target_u < b.target_u;
                   });

  // ---- 4. Pin the slow band at 1.1% of calls (§2.3), preserving service
  // sums by returning the removed mass to each service's faster methods.
  const int slow_band_start = n - std::max(1000 * n / 10000, 50);
  {
    double slow_mass = 0;
    for (int i = slow_band_start; i < n; ++i) {
      slow_mass += protos[static_cast<size_t>(i)].weight;
    }
    const double slow_target = 0.011;
    if (slow_mass > 0 && std::abs(slow_mass - slow_target) > 1e-6) {
      const double alpha = slow_target / slow_mass;
      std::vector<double> service_slow(num_services, 0.0);
      std::vector<double> service_fast(num_services, 0.0);
      for (int i = 0; i < n; ++i) {
        const ProtoMethod& p = protos[static_cast<size_t>(i)];
        (i >= slow_band_start ? service_slow : service_fast)[static_cast<size_t>(p.service_id)] +=
            p.weight;
      }
      for (int i = 0; i < n; ++i) {
        ProtoMethod& p = protos[static_cast<size_t>(i)];
        const size_t s = static_cast<size_t>(p.service_id);
        if (i >= slow_band_start) {
          p.weight *= alpha;
        } else if (service_fast[s] > 0) {
          p.weight *= 1.0 + service_slow[s] * (1.0 - alpha) / service_fast[s];
        }
      }
    }
  }

  // ---- 5. Materialize per-method models.
  catalog.methods_.resize(static_cast<size_t>(n));
  std::vector<double> weight(static_cast<size_t>(n));
  std::vector<int> per_service_counter(num_services, 0);
  for (int i = 0; i < n; ++i) {
    const ProtoMethod& p = protos[static_cast<size_t>(i)];
    MethodModel& m = catalog.methods_[static_cast<size_t>(i)];
    const double u = (static_cast<double>(i) + 0.5) / n;
    const ServiceSpec& spec = specs[static_cast<size_t>(p.service_id)];
    m.method_id = i;
    m.service_id = p.service_id;
    m.u = u;
    m.popularity_weight = p.weight;
    weight[static_cast<size_t>(i)] = p.weight;
    m.tier = spec.tier;
    if (p.service_id == nd && p.in_rank == 1) {
      m.name = spec.name + "/Write";
      catalog.network_disk_write_id_ = i;
    } else if (p.in_rank == 1) {
      m.name = spec.name + "/Primary";
      ++per_service_counter[static_cast<size_t>(p.service_id)];
    } else {
      m.name = spec.name + "/Method" +
               std::to_string(per_service_counter[static_cast<size_t>(p.service_id)]++);
    }

    const uint64_t h = p.hash;

    // Application time: the dominant RCT component for most RPCs. Sigma
    // shrinks with rank: slow batch methods are more predictable per call.
    m.app_median_us = RctMedianCurve().Quantile(u) * 1.05;
    m.app_sigma = std::clamp(1.30 - 0.85 * u, 0.45, 1.35);
    const bool has_fast_path = u < 0.95 && HashUnit(h, 1, 0) < 0.98;
    if (has_fast_path) {
      m.fast_weight = 0.05 + 0.10 * HashUnit(h, 1, 1);
      m.fast_median_us = 80.0 + 420.0 * HashUnit(h, 1, 2);
      m.fast_sigma = 0.5;
    } else {
      m.fast_weight = 0;
    }

    // Queueing: medians from the Fig. 13 curve; tails grow with latency rank
    // so that the popular fast methods keep modest queue tails (which is what
    // keeps the invocation-weighted latency tax small, Fig. 10) while the
    // long tail of methods shows the extreme P99s of Fig. 13.
    const double queue_boost = spec.category == ServiceCategory::kQueueHeavy ? 3.0 : 1.0;
    m.queue_median_us =
        QueueMedianCurve().Quantile(std::clamp(0.85 * u + 0.15 * HashUnit(h, 2, 0), 0.0, 1.0)) *
        queue_boost;
    m.queue_body_sigma = 0.7 + 0.3 * HashUnit(h, 2, 5);
    m.queue_tail_prob = 0.015 + 0.015 * HashUnit(h, 2, 6);
    m.queue_tail_ratio = 60.0 + 800.0 * u * u;
    m.queue_tail_sigma = 0.9;
    {
      double csq = 0.08 + 0.08 * HashUnit(h, 2, 1);
      double srq = 0.50 + 0.20 * HashUnit(h, 2, 2);
      double ssq = 0.08 + 0.10 * HashUnit(h, 2, 3);
      double crq = 0.08 + 0.10 * HashUnit(h, 2, 4);
      const double total = csq + srq + ssq + crq;
      m.queue_split = {csq / total, srq / total, ssq / total, crq / total};
    }

    // Sizes: blend the fleet-wide size curves with the service's typical
    // sizes (Table 1 pins the studied services).
    // Ranks stay uniform (a mixture of uniforms is uniform), so the size
    // curves' tails are reproduced exactly; correlation between request and
    // response size comes from reusing the request's rank for a fraction of
    // methods.
    // Primaries carry most of the fleet's calls, so their payloads sit in the
    // unexceptional middle of the size distribution (huge-payload primaries
    // would blow up fleet-wide byte and compression budgets); the method long
    // tail samples the full curve, which is what gives Fig. 6 its heavy tail.
    const double size_rank = std::clamp(
        p.in_rank <= 50 ? 0.15 + 0.55 * HashUnit(h, 3, 0) : HashUnit(h, 3, 0), 0.001, 0.999);
    const double resp_raw =
        p.in_rank <= 50 ? 0.15 + 0.55 * HashUnit(h, 3, 1) : HashUnit(h, 3, 1);
    const double resp_rank =
        std::clamp(HashUnit(h, 3, 5) < 0.3 ? size_rank : resp_raw, 0.001, 0.999);
    const double blend = spec.studied ? 0.65 : 0.10;
    m.req_median_bytes =
        std::max(64.0, std::exp((1 - blend) * std::log(RequestSizeCurve().Quantile(size_rank)) +
                                blend * std::log(spec.typical_request_bytes)));
    m.resp_median_bytes =
        std::max(64.0, std::exp((1 - blend) * std::log(ResponseSizeCurve().Quantile(resp_rank)) +
                                blend * std::log(spec.typical_response_bytes)));
    m.req_sigma = 1.0 + 0.5 * HashUnit(h, 3, 2);
    m.resp_sigma = 1.1 + 0.6 * HashUnit(h, 3, 3);
    m.redundancy = 0.3 + 0.5 * HashUnit(h, 3, 4);
    // Block/bulk storage ships pre-compressed or raw device data over
    // blob-style channels with zero-copy per-byte paths.
    const bool bulk_channel =
        p.service_id == nd || spec.name == "Video Metadata" || spec.name == "Photos Backend";
    m.compression_enabled = !bulk_channel;
    m.byte_cost_scale = bulk_channel ? 0.02 : 1.0;

    // Locality. Three regimes: deep storage substrates (tier 3) serve their
    // co-located clients almost exclusively; a ~12% slice of higher-tier
    // methods are inherently cross-site (replication, sync, federation);
    // everything else drifts outward with latency rank. This is what lets
    // Network Disk (28% of calls) stay LAN-local while mid-latency methods
    // still pay real WAN time (Fig. 12's tail, Fig. 11's tax ratios).
    {
      double cluster, dc, metro, cont, inter;
      // Popular primaries are never inherently cross-site (their clients
      // co-locate with them); the cross-site slice lives in the long tail.
      const bool cross_site = spec.tier != 3 && p.in_rank > 3 && HashUnit(h, 8, 0) < 0.22;
      if (cross_site) {
        cluster = 0.10;
        dc = 0.10;
        metro = 0.35;
        cont = 0.30;
        inter = 0.15 * std::min(1.0, 3.0 * u + 0.2);
      } else {
        cluster = std::max(0.06, 0.88 - 1.60 * u);
        dc = 0.06;
        metro = 0.03 + 0.45 * u;
        cont = 0.012 + 0.60 * u * u * u;
        inter = 0.0005 + 0.22 * u * u * u;
        if (spec.tier == 3) {
          // Storage substrates mostly serve co-located clients, but cross-DC
          // replica reads do happen.
          metro *= 0.5;
          cont *= 0.5;
          inter *= 0.05;
        }
      }
      const double total = cluster + dc + metro + cont + inter;
      m.locality = {cluster / total, dc / total, metro / total, cont / total, inter / total};
    }
    m.congestion_prob = 0.02 + 0.08 * u;
    m.lan_congestion_mean_us = 400.0 + 1500.0 * u;
    m.wan_congestion_mean_us = 30000.0 + 260000.0 * u;
    m.proc_jitter_sigma = 0.25 + 0.3 * HashUnit(h, 4, 0);

    // CPU cost: scaled by the service's cycles-per-call, scattered widely per
    // method (log-symmetric, so service-level means stay pinned for Fig. 8c)
    // and deliberately decoupled from latency rank (§4.2).
    // Calibrated so the fleet-wide RPC cycle tax lands near the paper's 7.1%
    // (application cycles are CPU work only — IO-bound storage handlers burn
    // few cycles even when their latency is large). Primary methods define a
    // service's typical per-call cost (their traffic dominates the service's
    // Fig. 8c share); the long tail of rare methods scatters widely, which is
    // what decouples cost from latency rank (§4.2).
    const double cpu_base = spec.cycles_per_call_scale * 520000.0;
    const double scatter_sigma = p.in_rank <= 2 ? 0.4 : 1.7;
    m.cpu_median_cycles = cpu_base * std::exp(scatter_sigma * (HashUnit(h, 5, 0) * 2 - 1));
    // Per-call sigma is capped at 1.7: beyond that the fleet-wide mean is
    // dominated by a handful of draws and Fig. 20's tax fraction stops
    // converging at realistic sample counts.
    m.cpu_sigma = m.cpu_median_cycles < 20000.0 ? 0.25 + 0.2 * HashUnit(h, 5, 1)
                                                : 1.0 + 0.4 * HashUnit(h, 5, 1);

    // Call-tree shape by tier: frontends branch a lot; storage mostly leafs
    // but still replicates/journals, and partition/aggregate bursts exist at
    // every level (§2.4's wide-not-deep finding).
    switch (spec.tier) {
      case 0:
        m.leaf_prob = 0.12;
        m.branch_mean = 2.2;
        m.burst_prob = 0.04;
        break;
      case 1:
        m.leaf_prob = 0.20;
        m.branch_mean = 1.8;
        m.burst_prob = 0.02;
        break;
      case 2:
        m.leaf_prob = 0.28;
        m.branch_mean = 1.6;
        m.burst_prob = 0.03;
        break;
      default:
        // Even storage substrates replicate and journal: they branch often
        // enough that nearly every method sometimes presides over a large
        // subtree (Fig. 4's "90% of methods have P90 descendants >= 105").
        m.leaf_prob = 0.34;
        m.branch_mean = 1.52;
        m.burst_prob = 0.02;
        break;
    }
    m.burst_min = 40;
    m.burst_max = 150 + static_cast<int>(250 * HashUnit(h, 6, 0));

    // Errors and hedging.
    m.error_prob = 0.008 + 0.04 * HashUnit(h, 7, 0) * HashUnit(h, 7, 1);
    m.hedged = spec.category == ServiceCategory::kStackHeavy || HashUnit(h, 7, 2) < 0.25;
  }

  // Popularity sampler.
  catalog.popularity_ = std::make_unique<DiscreteDist>(weight);
  return catalog;
}

std::vector<int32_t> MethodCatalog::MethodsOfService(int32_t service_id) const {
  std::vector<int32_t> out;
  for (const MethodModel& m : methods_) {
    if (m.service_id == service_id) {
      out.push_back(m.method_id);
    }
  }
  std::sort(out.begin(), out.end(), [this](int32_t a, int32_t b) {
    return methods_[static_cast<size_t>(a)].popularity_weight >
           methods_[static_cast<size_t>(b)].popularity_weight;
  });
  return out;
}

std::string MethodCatalog::ExportCsv(const ServiceCatalog& services) const {
  std::string out =
      "method_id,name,service,popularity_weight,latency_rank_u,app_median_us,app_sigma,"
      "fast_weight,queue_median_us,req_median_bytes,resp_median_bytes,compression,"
      "cpu_median_cycles,error_prob,hedged,tier\n";
  char row[512];
  for (const MethodModel& m : methods_) {
    std::snprintf(row, sizeof(row),
                  "%d,%s,%s,%.9g,%.4f,%.6g,%.3f,%.3f,%.6g,%.6g,%.6g,%d,%.6g,%.5f,%d,%d\n",
                  m.method_id, m.name.c_str(),
                  services.service(m.service_id).name.c_str(), m.popularity_weight, m.u,
                  m.app_median_us, m.app_sigma, m.fast_weight, m.queue_median_us,
                  m.req_median_bytes, m.resp_median_bytes, m.compression_enabled ? 1 : 0,
                  m.cpu_median_cycles, m.error_prob, m.hedged ? 1 : 0, m.tier);
    out += row;
  }
  return out;
}

}  // namespace rpcscope
