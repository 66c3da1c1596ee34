// k-ary fat-tree builder (Al-Fares et al.), the topology of the paper's
// testbed (Figure 5 uses k=4: 16 hosts, twenty 4-port switches).
//
// Addressing follows the classic scheme: pod switches are 10.pod.switch.1,
// core switches 10.k.j.i, and the host attached to edge switch `sw` at
// position `h` is 10.pod.sw.(h+2).
#pragma once

#include <cstdint>
#include <vector>

#include "topology/graph.hpp"

namespace mic::topo {

class FatTree {
 public:
  /// k must be even and >= 4.
  explicit FatTree(int k);

  const Graph& graph() const noexcept { return graph_; }
  int k() const noexcept { return k_; }

  std::size_t host_count() const noexcept { return hosts_.size(); }
  const std::vector<NodeId>& hosts() const noexcept { return hosts_; }
  const std::vector<NodeId>& edge_switches() const noexcept { return edge_; }
  const std::vector<NodeId>& agg_switches() const noexcept { return agg_; }
  const std::vector<NodeId>& core_switches() const noexcept { return core_; }

  /// 10.x.y.z address of a host, as a host-order uint32.
  std::uint32_t host_ip(NodeId host) const;

  /// Pod index of a host or pod switch; -1 for core switches.
  int pod_of(NodeId node) const;

 private:
  int k_;
  Graph graph_;
  std::vector<NodeId> hosts_;
  std::vector<NodeId> edge_;
  std::vector<NodeId> agg_;
  std::vector<NodeId> core_;
  std::vector<std::uint32_t> node_ip_;   // indexed by NodeId; 0 for switches
  std::vector<int> node_pod_;            // indexed by NodeId; -1 for core
};

}  // namespace mic::topo
