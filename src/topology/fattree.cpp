#include "topology/fattree.hpp"

namespace mic::topo {

namespace {
constexpr std::uint32_t make_ip(int a, int b, int c, int d) {
  return (static_cast<std::uint32_t>(a) << 24) |
         (static_cast<std::uint32_t>(b) << 16) |
         (static_cast<std::uint32_t>(c) << 8) | static_cast<std::uint32_t>(d);
}
}  // namespace

FatTree::FatTree(int k) : k_(k) {
  MIC_ASSERT_MSG(k >= 4 && k % 2 == 0, "fat-tree k must be even and >= 4");
  const int half = k / 2;

  // Core switches: (k/2)^2 of them, addressed 10.k.j.i (j,i in [1, k/2]).
  core_.reserve(static_cast<std::size_t>(half * half));
  for (int j = 1; j <= half; ++j) {
    for (int i = 1; i <= half; ++i) {
      const NodeId n = graph_.add_node(NodeKind::kSwitch);
      core_.push_back(n);
      node_ip_.push_back(make_ip(10, k, j, i));
      node_pod_.push_back(-1);
    }
  }

  // Pods: per pod, k/2 edge switches (low index) and k/2 aggregation
  // switches (high index), 10.pod.switch.1.
  for (int pod = 0; pod < k; ++pod) {
    std::vector<NodeId> pod_edge, pod_agg;
    for (int s = 0; s < half; ++s) {
      const NodeId n = graph_.add_node(NodeKind::kSwitch);
      pod_edge.push_back(n);
      node_ip_.push_back(make_ip(10, pod, s, 1));
      node_pod_.push_back(pod);
    }
    for (int s = half; s < k; ++s) {
      const NodeId n = graph_.add_node(NodeKind::kSwitch);
      pod_agg.push_back(n);
      node_ip_.push_back(make_ip(10, pod, s, 1));
      node_pod_.push_back(pod);
    }

    // Hosts: k/2 per edge switch, 10.pod.edge.(h+2).
    for (int s = 0; s < half; ++s) {
      for (int h = 0; h < half; ++h) {
        const NodeId host = graph_.add_node(NodeKind::kHost);
        hosts_.push_back(host);
        node_ip_.push_back(make_ip(10, pod, s, h + 2));
        node_pod_.push_back(pod);
        graph_.add_link(pod_edge[static_cast<std::size_t>(s)], host);
      }
    }

    // Edge <-> aggregation full bipartite within the pod.
    for (const NodeId e : pod_edge) {
      for (const NodeId a : pod_agg) graph_.add_link(e, a);
    }

    // Aggregation switch `a` (0-based within pod) connects to core switches
    // in stride: core index = a * (k/2) + i.
    for (int a = 0; a < half; ++a) {
      for (int i = 0; i < half; ++i) {
        graph_.add_link(pod_agg[static_cast<std::size_t>(a)],
                        core_[static_cast<std::size_t>(a * half + i)]);
      }
    }

    edge_.insert(edge_.end(), pod_edge.begin(), pod_edge.end());
    agg_.insert(agg_.end(), pod_agg.begin(), pod_agg.end());
  }
}

std::uint32_t FatTree::host_ip(NodeId host) const {
  MIC_ASSERT(graph_.is_host(host));
  return node_ip_[host];
}

int FatTree::pod_of(NodeId node) const { return node_pod_[node]; }

}  // namespace mic::topo
