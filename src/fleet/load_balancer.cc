#include "src/fleet/load_balancer.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/check.h"
#include "src/common/distributions.h"

namespace rpcscope {

LoadBalanceStudy::LoadBalanceStudy(const Topology* topology,
                                   const LoadBalanceStudyOptions& options)
    : topology_(topology), options_(options), rng_(options.seed) {
  RPCSCOPE_CHECK(topology != nullptr);
}

LoadBalanceResult LoadBalanceStudy::Run() {
  const IntraClusterPolicy policy =
      options_.data_dependent ? IntraClusterPolicy::kKeyAffinity : options_.policy;
  const int total_clusters = topology_->num_clusters();
  const int k = std::min(options_.clusters_with_service, total_clusters);

  // Deployment: every k-th cluster hosts the service.
  std::vector<ClusterId> hosting;
  for (int i = 0; i < k; ++i) {
    hosting.push_back(static_cast<ClusterId>(i * total_clusters / k));
  }

  // Demand originates from every cluster with a skewed "population" weight
  // (some metros simply have more users/data).
  std::vector<double> origin_weight(static_cast<size_t>(total_clusters));
  for (int c = 0; c < total_clusters; ++c) {
    const double unit =
        static_cast<double>(Mix64(options_.seed ^ static_cast<uint64_t>(c * 977 + 5)) >> 11) *
        0x1.0p-53;
    origin_weight[static_cast<size_t>(c)] = std::exp(1.1 * (unit * 2 - 1));
  }
  DiscreteDist origin_dist(origin_weight);

  // Latency-aware routing: each origin sends all demand to its nearest
  // hosting cluster (by base RTT). CPU balance is not an objective.
  std::vector<size_t> nearest(static_cast<size_t>(total_clusters));
  for (int c = 0; c < total_clusters; ++c) {
    SimDuration best = INT64_MAX;
    size_t best_idx = 0;
    for (size_t h = 0; h < hosting.size(); ++h) {
      const SimDuration rtt =
          hosting[h] == c ? 0 : topology_->ClusterBaseRtt(static_cast<ClusterId>(c), hosting[h]);
      if (rtt < best) {
        best = rtt;
        best_idx = h;
      }
    }
    nearest[static_cast<size_t>(c)] = best_idx;
  }

  // Intra-cluster routing setup.
  const int machines = options_.machines_per_cluster;
  std::vector<std::vector<double>> machine_load(
      hosting.size(), std::vector<double>(static_cast<size_t>(machines), 0.0));
  std::vector<double> cluster_load(hosting.size(), 0.0);

  // Key -> machine affinity map for data-dependent services.
  std::vector<double> key_weights;
  std::vector<int> key_machine;
  if (policy == IntraClusterPolicy::kKeyAffinity) {
    key_weights = ZipfWeights(static_cast<size_t>(options_.num_keys),
                              options_.key_zipf_exponent, 1.0);
    key_machine.resize(static_cast<size_t>(options_.num_keys));
    for (int key = 0; key < options_.num_keys; ++key) {
      key_machine[static_cast<size_t>(key)] =
          static_cast<int>(Mix64(options_.seed ^ static_cast<uint64_t>(key * 31 + 7)) %
                           static_cast<uint64_t>(machines));
    }
  }
  std::unique_ptr<DiscreteDist> key_dist;
  if (policy == IntraClusterPolicy::kKeyAffinity) {
    key_dist = std::make_unique<DiscreteDist>(key_weights);
  }

  for (int64_t unit = 0; unit < options_.demand_units; ++unit) {
    const ClusterId origin = static_cast<ClusterId>(origin_dist.Sample(rng_));
    const size_t host = nearest[static_cast<size_t>(origin)];
    cluster_load[host] += 1.0;
    auto& loads = machine_load[host];
    switch (policy) {
      case IntraClusterPolicy::kKeyAffinity:
        loads[static_cast<size_t>(
            key_machine[static_cast<size_t>(key_dist->Sample(rng_))])] += 1.0;
        break;
      case IntraClusterPolicy::kRandom:
        loads[rng_.NextBounded(static_cast<uint64_t>(machines))] += 1.0;
        break;
      case IntraClusterPolicy::kPowerOfTwoChoices: {
        const size_t a = rng_.NextBounded(static_cast<uint64_t>(machines));
        const size_t b = rng_.NextBounded(static_cast<uint64_t>(machines));
        loads[loads[a] <= loads[b] ? a : b] += 1.0;
        break;
      }
    }
  }

  // Capacity: clusters are provisioned for the MEAN per-cluster demand times
  // a headroom factor (the balancer does not see actual placement skew).
  const double cluster_capacity =
      static_cast<double>(options_.demand_units) / static_cast<double>(hosting.size()) *
      options_.capacity_headroom;
  const double machine_capacity = cluster_capacity / machines;

  LoadBalanceResult result;
  // Median-loaded cluster for the within-cluster machine view.
  std::vector<size_t> order(hosting.size());
  for (size_t h = 0; h < order.size(); ++h) {
    order[h] = h;
  }
  std::sort(order.begin(), order.end(),
            [&cluster_load](size_t a2, size_t b2) {
              return cluster_load[a2] < cluster_load[b2];
            });
  const size_t median_cluster = order[order.size() / 2];
  for (double load : machine_load[median_cluster]) {
    result.median_cluster_machine_usage.push_back(std::min(1.0, load / machine_capacity));
  }
  std::sort(result.median_cluster_machine_usage.begin(),
            result.median_cluster_machine_usage.end());
  for (size_t h = 0; h < hosting.size(); ++h) {
    const double cluster_ratio = cluster_load[h] / cluster_capacity;
    result.cluster_usage.push_back(std::min(1.0, cluster_ratio));
    result.cluster_usage_raw.push_back(cluster_ratio);
    for (double load : machine_load[h]) {
      const double machine_ratio = load / machine_capacity;
      result.machine_usage.push_back(std::min(1.0, machine_ratio));
      result.machine_usage_raw.push_back(machine_ratio);
    }
  }
  std::sort(result.cluster_usage.begin(), result.cluster_usage.end());
  std::sort(result.machine_usage.begin(), result.machine_usage.end());
  std::sort(result.cluster_usage_raw.begin(), result.cluster_usage_raw.end());
  std::sort(result.machine_usage_raw.begin(), result.machine_usage_raw.end());
  return result;
}

}  // namespace rpcscope
