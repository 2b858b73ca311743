#include "src/net/topology.h"

#include <gtest/gtest.h>

namespace rpcscope {
namespace {

TopologyOptions SmallTopology() {
  TopologyOptions o;
  o.continents = 2;
  o.metros_per_continent = 2;
  o.datacenters_per_metro = 2;
  o.clusters_per_datacenter = 2;
  o.machines_per_cluster = 4;
  return o;
}

TEST(TopologyTest, CountsMatchOptions) {
  Topology t(SmallTopology());
  EXPECT_EQ(t.num_clusters(), 2 * 2 * 2 * 2);
  EXPECT_EQ(t.num_machines(), t.num_clusters() * 4);
}

// An index past either bound would name a machine of another cluster, or one
// past the topology; MachineAt refuses it in every build type.
TEST(TopologyDeathTest, MachineAtRejectsOutOfRangeIndices) {
  Topology t(SmallTopology());
  EXPECT_DEATH((void)t.MachineAt(t.num_clusters(), 0), "cluster 16 of 16");
  EXPECT_DEATH((void)t.MachineAt(-1, 0), "cluster -1 of 16");
  EXPECT_DEATH((void)t.MachineAt(0, 4), "machine 4 of 4 per cluster");
  EXPECT_DEATH((void)t.MachineAt(0, -1), "machine -1 of 4 per cluster");
}

TEST(TopologyTest, MachineMappingRoundTrips) {
  Topology t(SmallTopology());
  for (ClusterId c = 0; c < t.num_clusters(); ++c) {
    for (int i = 0; i < 4; ++i) {
      const MachineId m = t.MachineAt(c, i);
      EXPECT_EQ(t.ClusterOf(m), c);
      EXPECT_EQ(t.LocalIndexOf(m), i);
    }
  }
}

TEST(TopologyTest, DistanceClassesAreCorrect) {
  Topology t(SmallTopology());
  const MachineId a = t.MachineAt(0, 0);
  EXPECT_EQ(t.Distance(a, a), DistanceClass::kSameMachine);
  EXPECT_EQ(t.Distance(a, t.MachineAt(0, 1)), DistanceClass::kSameCluster);
  // Clusters 0 and 1 share a datacenter (2 clusters per DC).
  EXPECT_EQ(t.ClusterDistance(0, 1), DistanceClass::kSameDatacenter);
  // Clusters 0 and 2 are in different DCs of the same metro.
  EXPECT_EQ(t.ClusterDistance(0, 2), DistanceClass::kSameMetro);
  // Clusters 0 and 4 are in different metros of the same continent.
  EXPECT_EQ(t.ClusterDistance(0, 4), DistanceClass::kSameContinent);
  // Cluster 8 starts the second continent.
  EXPECT_EQ(t.ClusterDistance(0, 8), DistanceClass::kIntercontinental);
}

TEST(TopologyTest, RttSymmetricAndDeterministic) {
  Topology t(SmallTopology());
  const MachineId a = t.MachineAt(0, 0);
  const MachineId b = t.MachineAt(9, 3);
  EXPECT_EQ(t.BaseRtt(a, b), t.BaseRtt(b, a));
  Topology t2(SmallTopology());
  EXPECT_EQ(t.BaseRtt(a, b), t2.BaseRtt(a, b));
}

TEST(TopologyTest, RttGrowsWithDistanceClass) {
  Topology t(SmallTopology());
  const MachineId a = t.MachineAt(0, 0);
  const SimDuration same_cluster = t.BaseRtt(a, t.MachineAt(0, 1));
  const SimDuration same_dc = t.BaseRtt(a, t.MachineAt(1, 0));
  const SimDuration same_metro = t.BaseRtt(a, t.MachineAt(2, 0));
  const SimDuration same_cont = t.BaseRtt(a, t.MachineAt(4, 0));
  const SimDuration inter = t.BaseRtt(a, t.MachineAt(8, 0));
  EXPECT_LT(same_cluster, same_dc);
  EXPECT_LT(same_dc, same_metro);
  EXPECT_LT(same_metro, same_cont);
  EXPECT_LT(same_cont, inter);
  // Paper: the longest WAN RTT is about 200 ms.
  EXPECT_LE(inter, Millis(200));
  EXPECT_GE(inter, Millis(60));
}

TEST(TopologyTest, IntraClusterRttIsTensOfMicroseconds) {
  Topology t(SmallTopology());
  const SimDuration rtt = t.BaseRtt(t.MachineAt(3, 0), t.MachineAt(3, 2));
  EXPECT_GE(rtt, Micros(20));
  EXPECT_LE(rtt, Micros(80));
}

TEST(TopologyTest, DistanceClassNames) {
  EXPECT_EQ(DistanceClassName(DistanceClass::kIntercontinental), "intercontinental");
  EXPECT_EQ(DistanceClassName(DistanceClass::kSameCluster), "same-cluster");
}

}  // namespace
}  // namespace rpcscope
