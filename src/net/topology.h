// Fleet topology: continents → metros → datacenters → clusters → machines.
//
// The study's geographic effects (Fig. 19's staircase of cross-cluster
// latencies, the ~200 ms max WAN RTT in §3.2) are driven entirely by where the
// client and server sit in this hierarchy. Pairwise base RTTs are derived
// deterministically from the pair's distance class plus a hash of the pair, so
// a given topology always yields the same wire latencies.
#ifndef RPCSCOPE_SRC_NET_TOPOLOGY_H_
#define RPCSCOPE_SRC_NET_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace rpcscope {

using ClusterId = int32_t;
using MachineId = int64_t;  // Globally unique; cluster-local index recoverable.

enum class DistanceClass : int32_t {
  kSameMachine = 0,
  kSameCluster = 1,
  kSameDatacenter = 2,   // Different cluster, same building.
  kSameMetro = 3,        // Different datacenter, same metro area.
  kSameContinent = 4,    // Different metro, same continent.
  kIntercontinental = 5,
};

std::string_view DistanceClassName(DistanceClass dc);

struct TopologyOptions {
  int continents = 4;
  int metros_per_continent = 4;
  int datacenters_per_metro = 2;
  int clusters_per_datacenter = 3;
  int machines_per_cluster = 64;
  uint64_t seed = 0x70706f;  // Perturbs pairwise RTTs within their class band.
};

class Topology {
 public:
  explicit Topology(const TopologyOptions& options);

  int num_clusters() const { return static_cast<int>(cluster_metro_.size()); }
  int num_machines() const { return num_clusters() * options_.machines_per_cluster; }
  int machines_per_cluster() const { return options_.machines_per_cluster; }

  // Machine <-> (cluster, local index) mapping.
  MachineId MachineAt(ClusterId cluster, int local_index) const;
  ClusterId ClusterOf(MachineId machine) const;
  int LocalIndexOf(MachineId machine) const;

  DistanceClass Distance(MachineId a, MachineId b) const;
  DistanceClass ClusterDistance(ClusterId a, ClusterId b) const;

  // Base round-trip propagation time between two machines: the class band's
  // midpoint perturbed deterministically by the (cluster-pair, seed) hash.
  // Symmetric: BaseRtt(a, b) == BaseRtt(b, a).
  SimDuration BaseRtt(MachineId a, MachineId b) const;
  SimDuration ClusterBaseRtt(ClusterId a, ClusterId b) const;

 private:
  TopologyOptions options_;
  std::vector<int> cluster_metro_;        // cluster -> metro
  std::vector<int> cluster_datacenter_;   // cluster -> datacenter (global id)
  std::vector<int> metro_continent_;      // metro -> continent
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_NET_TOPOLOGY_H_
