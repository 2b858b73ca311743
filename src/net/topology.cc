#include "src/net/topology.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace rpcscope {

namespace {

struct RttBand {
  SimDuration lo;
  SimDuration hi;
};

// Round-trip propagation bands per distance class. Calibrated so the longest
// WAN RTT is ~200 ms (§3.2) and same-cluster RPCs see tens of microseconds.
RttBand BandFor(DistanceClass dc) {
  switch (dc) {
    case DistanceClass::kSameMachine:
      return {Micros(2), Micros(6)};
    case DistanceClass::kSameCluster:
      return {Micros(20), Micros(80)};
    case DistanceClass::kSameDatacenter:
      return {Micros(100), Micros(500)};
    case DistanceClass::kSameMetro:
      return {Micros(600), Millis(4)};
    case DistanceClass::kSameContinent:
      return {Millis(5), Millis(60)};
    case DistanceClass::kIntercontinental:
      return {Millis(60), Millis(200)};
  }
  return {Micros(20), Micros(80)};
}

}  // namespace

std::string_view DistanceClassName(DistanceClass dc) {
  switch (dc) {
    case DistanceClass::kSameMachine:
      return "same-machine";
    case DistanceClass::kSameCluster:
      return "same-cluster";
    case DistanceClass::kSameDatacenter:
      return "same-datacenter";
    case DistanceClass::kSameMetro:
      return "same-metro";
    case DistanceClass::kSameContinent:
      return "same-continent";
    case DistanceClass::kIntercontinental:
      return "intercontinental";
  }
  return "invalid";
}

Topology::Topology(const TopologyOptions& options) : options_(options) {
  RPCSCOPE_CHECK_GT(options.continents, 0);
  RPCSCOPE_CHECK_GT(options.metros_per_continent, 0);
  RPCSCOPE_CHECK_GT(options.datacenters_per_metro, 0);
  RPCSCOPE_CHECK_GT(options.clusters_per_datacenter, 0);
  RPCSCOPE_CHECK_GT(options.machines_per_cluster, 0);
  int metro_id = 0;
  int dc_id = 0;
  for (int cont = 0; cont < options.continents; ++cont) {
    for (int m = 0; m < options.metros_per_continent; ++m, ++metro_id) {
      metro_continent_.push_back(cont);
      for (int d = 0; d < options.datacenters_per_metro; ++d, ++dc_id) {
        for (int c = 0; c < options.clusters_per_datacenter; ++c) {
          cluster_metro_.push_back(metro_id);
          cluster_datacenter_.push_back(dc_id);
        }
      }
    }
  }
}

MachineId Topology::MachineAt(ClusterId cluster, int local_index) const {
  // An index past either bound would name a machine of another cluster, or
  // one past the topology.
  RPCSCOPE_CHECK(cluster >= 0 && cluster < num_clusters())
      << "cluster " << cluster << " of " << num_clusters();
  RPCSCOPE_CHECK(local_index >= 0 && local_index < options_.machines_per_cluster)
      << "machine " << local_index << " of " << options_.machines_per_cluster << " per cluster";
  return static_cast<MachineId>(cluster) * options_.machines_per_cluster + local_index;
}

ClusterId Topology::ClusterOf(MachineId machine) const {
  return static_cast<ClusterId>(machine / options_.machines_per_cluster);
}

int Topology::LocalIndexOf(MachineId machine) const {
  return static_cast<int>(machine % options_.machines_per_cluster);
}

DistanceClass Topology::ClusterDistance(ClusterId a, ClusterId b) const {
  if (a == b) {
    return DistanceClass::kSameCluster;
  }
  const size_t ia = static_cast<size_t>(a);
  const size_t ib = static_cast<size_t>(b);
  if (cluster_datacenter_[ia] == cluster_datacenter_[ib]) {
    return DistanceClass::kSameDatacenter;
  }
  if (cluster_metro_[ia] == cluster_metro_[ib]) {
    return DistanceClass::kSameMetro;
  }
  if (metro_continent_[static_cast<size_t>(cluster_metro_[ia])] ==
      metro_continent_[static_cast<size_t>(cluster_metro_[ib])]) {
    return DistanceClass::kSameContinent;
  }
  return DistanceClass::kIntercontinental;
}

DistanceClass Topology::Distance(MachineId a, MachineId b) const {
  if (a == b) {
    return DistanceClass::kSameMachine;
  }
  return ClusterDistance(ClusterOf(a), ClusterOf(b));
}

SimDuration Topology::ClusterBaseRtt(ClusterId a, ClusterId b) const {
  const DistanceClass dc = ClusterDistance(a, b);
  const RttBand band = BandFor(dc);
  // Deterministic, symmetric perturbation within the band.
  const uint64_t lo_id = static_cast<uint64_t>(std::min(a, b));
  const uint64_t hi_id = static_cast<uint64_t>(std::max(a, b));
  const uint64_t h = Mix64(options_.seed ^ Mix64((lo_id << 32) | hi_id));
  const double frac = static_cast<double>(h >> 11) * 0x1.0p-53;
  return band.lo +
         static_cast<SimDuration>(frac * static_cast<double>(band.hi - band.lo));
}

SimDuration Topology::BaseRtt(MachineId a, MachineId b) const {
  if (a == b) {
    const RttBand band = BandFor(DistanceClass::kSameMachine);
    return (band.lo + band.hi) / 2;
  }
  const ClusterId ca = ClusterOf(a);
  const ClusterId cb = ClusterOf(b);
  if (ca == cb) {
    const RttBand band = BandFor(DistanceClass::kSameCluster);
    const uint64_t lo_id = static_cast<uint64_t>(std::min(a, b));
    const uint64_t hi_id = static_cast<uint64_t>(std::max(a, b));
    const uint64_t h = Mix64(options_.seed ^ Mix64(lo_id * 0x9e37 + hi_id));
    const double frac = static_cast<double>(h >> 11) * 0x1.0p-53;
    return band.lo +
           static_cast<SimDuration>(frac * static_cast<double>(band.hi - band.lo));
  }
  return ClusterBaseRtt(ca, cb);
}

}  // namespace rpcscope
