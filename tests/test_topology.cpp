// Tests for the topology substrate: fat-tree / BCube builders and the
// all-pairs equal-cost path computation.
#include <gtest/gtest.h>

#include <set>

#include "support/paths.hpp"
#include "topology/bcube.hpp"
#include "topology/fattree.hpp"

namespace mic::topo {
namespace {

TEST(FatTree, PaperTopologyCounts) {
  // Figure 5: "16 hosts interconnected using a Fat-tree of twenty 4-port
  // switches".
  const FatTree ft(4);
  EXPECT_EQ(ft.host_count(), 16u);
  EXPECT_EQ(ft.core_switches().size(), 4u);
  EXPECT_EQ(ft.agg_switches().size(), 8u);
  EXPECT_EQ(ft.edge_switches().size(), 8u);
  EXPECT_EQ(ft.graph().switches().size(), 20u);
  // Every switch has exactly k ports.
  for (const NodeId sw : ft.graph().switches()) {
    EXPECT_EQ(ft.graph().port_count(sw), 4u);
  }
  // Every host has exactly one port.
  for (const NodeId h : ft.hosts()) {
    EXPECT_EQ(ft.graph().port_count(h), 1u);
  }
}

TEST(FatTree, K6Counts) {
  const FatTree ft(6);
  EXPECT_EQ(ft.host_count(), 54u);  // k^3/4 = 54
  EXPECT_EQ(ft.core_switches().size(), 9u);
  EXPECT_EQ(ft.graph().switches().size(), 45u);  // 9 core + 36 pod
}

TEST(FatTree, HostIpsUniqueAndReversible) {
  // 10.pod.switch.(position + 2): distinct per host, and the pod reads
  // back out of the address.
  const FatTree ft(4);
  std::set<std::uint32_t> ips;
  for (const NodeId h : ft.hosts()) {
    const auto ip = ft.host_ip(h);
    EXPECT_TRUE(ips.insert(ip).second);
    EXPECT_EQ(ip >> 24, 10u);
    EXPECT_EQ(static_cast<int>((ip >> 16) & 0xff), ft.pod_of(h));
    EXPECT_GE(ip & 0xff, 2u);
  }
}

TEST(FatTree, PodAssignment) {
  const FatTree ft(4);
  for (const NodeId core : ft.core_switches()) EXPECT_EQ(ft.pod_of(core), -1);
  for (const NodeId h : ft.hosts()) {
    const int pod = ft.pod_of(h);
    EXPECT_GE(pod, 0);
    EXPECT_LT(pod, 4);
  }
}

TEST(FatTree, EdgeSwitchDetection) {
  // The edge switches are exactly the switches with hosts attached.
  const FatTree ft(4);
  const Graph& graph = ft.graph();
  std::set<NodeId> attached;
  for (const NodeId sw : graph.switches()) {
    for (const auto& adj : graph.neighbors(sw)) {
      if (graph.is_host(adj.peer)) attached.insert(sw);
    }
  }
  const std::set<NodeId> edge(ft.edge_switches().begin(),
                              ft.edge_switches().end());
  EXPECT_EQ(attached, edge);
  EXPECT_EQ(edge.size(), 8u);
}

TEST(Paths, FatTreeDistances) {
  const FatTree ft(4);
  const AllPairsPaths paths(ft.graph());
  const auto& hosts = ft.hosts();

  // Same edge switch: host-edge-host = 2 links, 1 switch.
  EXPECT_EQ(paths.distance(hosts[0], hosts[1]), 2u);
  EXPECT_EQ(paths.switch_hops(hosts[0], hosts[1]), 1u);
  // Same pod, different edge: host-edge-agg-edge-host = 4 links, 3 switches.
  EXPECT_EQ(paths.distance(hosts[0], hosts[2]), 4u);
  EXPECT_EQ(paths.switch_hops(hosts[0], hosts[2]), 3u);
  // Different pods: 6 links, 5 switches.
  EXPECT_EQ(paths.distance(hosts[0], hosts[4]), 6u);
  EXPECT_EQ(paths.switch_hops(hosts[0], hosts[4]), 5u);
}

TEST(Paths, SampledPathsAreValidShortest) {
  const FatTree ft(4);
  const AllPairsPaths paths(ft.graph());
  Rng rng(3);
  const auto& hosts = ft.hosts();
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId a = hosts[rng.below(hosts.size())];
    NodeId b = a;
    while (b == a) b = hosts[rng.below(hosts.size())];
    const Path p = paths.sample_shortest_path(a, b, rng);
    ASSERT_GE(p.size(), 2u);
    EXPECT_EQ(p.front(), a);
    EXPECT_EQ(p.back(), b);
    EXPECT_EQ(p.size(), paths.distance(a, b) + 1);
    // Consecutive nodes adjacent; interior nodes are switches.
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_NE(ft.graph().port_towards(p[i], p[i + 1]), kInvalidPort);
      if (i > 0) {
        EXPECT_TRUE(ft.graph().is_switch(p[i]));
      }
    }
  }
}

TEST(Paths, EcmpEnumerationInterPod) {
  const FatTree ft(4);
  const AllPairsPaths paths(ft.graph());
  // Between pods in a k=4 fat-tree there are 4 equal-cost paths
  // (2 aggregation choices x 2 core choices).
  const auto all =
      paths.enumerate_shortest_paths(ft.hosts()[0], ft.hosts()[4], 100);
  EXPECT_EQ(all.size(), 4u);
  std::set<Path> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());
}

TEST(Paths, EnumerationHonorsLimit) {
  const FatTree ft(4);
  const AllPairsPaths paths(ft.graph());
  const auto limited =
      paths.enumerate_shortest_paths(ft.hosts()[0], ft.hosts()[4], 2);
  EXPECT_EQ(limited.size(), 2u);
}

TEST(Paths, LongPathMeetsMinimumSwitches) {
  const FatTree ft(4);
  const AllPairsPaths paths(ft.graph());
  Rng rng(5);
  // Hosts on the same edge switch are 1 switch apart; ask for 4 MNs.
  const auto path =
      paths.sample_long_path(ft.hosts()[0], ft.hosts()[1], 4, rng);
  ASSERT_TRUE(path.has_value());
  EXPECT_GE(path->size(), 6u);  // >= 4 switches + 2 hosts
  // Hosts only at the ends (a revisited *switch* is fine -- MIC rules match
  // on in_port -- but no directed edge may repeat).
  for (std::size_t i = 1; i + 1 < path->size(); ++i) {
    EXPECT_TRUE(ft.graph().is_switch((*path)[i]));
  }
  std::set<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    EXPECT_TRUE(edges.insert({(*path)[i], (*path)[i + 1]}).second)
        << "repeated directed edge at hop " << i;
  }
}

TEST(Paths, LongPathFallsBackToShortestWhenLongEnough) {
  const FatTree ft(4);
  const AllPairsPaths paths(ft.graph());
  Rng rng(7);
  const auto path =
      paths.sample_long_path(ft.hosts()[0], ft.hosts()[4], 3, rng);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 7u);  // the shortest inter-pod path suffices
}

TEST(Paths, HostsDoNotTransit) {
  // Two hosts on one edge switch; path between two *other* hosts must not
  // run through them.
  const FatTree ft(4);
  const AllPairsPaths paths(ft.graph());
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const Path p = paths.sample_shortest_path(ft.hosts()[2], ft.hosts()[9], rng);
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      EXPECT_TRUE(ft.graph().is_switch(p[i]));
    }
  }
}

TEST(BCube, StructureCounts) {
  // BCube(4, 1): 16 servers, 2 levels x 4 switches.
  const BCube bc(4, 1);
  EXPECT_EQ(bc.servers().size(), 16u);
  EXPECT_EQ(bc.level_switches(0).size(), 4u);
  EXPECT_EQ(bc.level_switches(1).size(), 4u);
  // Every server has l+1 = 2 ports; every switch has n = 4 ports.
  for (const NodeId s : bc.servers()) {
    EXPECT_EQ(bc.graph().port_count(s), 2u);
  }
  for (int level = 0; level <= 1; ++level) {
    for (const NodeId sw : bc.level_switches(level)) {
      EXPECT_EQ(bc.graph().port_count(sw), 4u);
    }
  }
}

TEST(BCube, ServerCentricReachability) {
  // BCube is server-centric: two servers are switch-reachable only when
  // they share a switch (differ in exactly one base-n digit); otherwise a
  // *server* must relay -- which is exactly why the paper's threat model
  // warns that a compromised BCube server sees transit traffic.
  const BCube bc(4, 1);
  const AllPairsPaths paths(bc.graph());
  // Servers 0 and 1 share the level-0 switch: distance 2.
  EXPECT_EQ(paths.distance(bc.servers()[0], bc.servers()[1]), 2u);
  // Servers 0 and 4 share a level-1 switch: distance 2.
  EXPECT_EQ(paths.distance(bc.servers()[0], bc.servers()[4]), 2u);
  // Servers 0 (digits 00) and 5 (digits 11) share no switch: without
  // server relaying there is no path.
  EXPECT_FALSE(paths.reachable(bc.servers()[0], bc.servers()[5]));
}

TEST(Graph, PortNumberingConsistent) {
  Graph g;
  const NodeId a = g.add_node(NodeKind::kSwitch);
  const NodeId b = g.add_node(NodeKind::kSwitch);
  const NodeId c = g.add_node(NodeKind::kHost);
  g.add_link(a, b);
  g.add_link(a, c);
  EXPECT_EQ(g.port_towards(a, b), 0);
  EXPECT_EQ(g.port_towards(a, c), 1);
  EXPECT_EQ(g.port_towards(b, a), 0);
  EXPECT_EQ(g.port_towards(b, c), kInvalidPort);
  EXPECT_EQ(g.out_port(a, 1).peer, c);
  EXPECT_EQ(g.out_port(a, 1).peer_port, 0);
}

}  // namespace
}  // namespace mic::topo
