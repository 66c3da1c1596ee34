#include "core/address_restrictions.hpp"

namespace mic::core {

AddressRestrictions::AddressRestrictions(
    const topo::Graph& graph, const topo::PathEngine& paths,
    const ctrl::HostAddressing& addressing) {
  // Both plausibility checks are phrased with the host as the destination:
  // distances under the host-no-transit rule are symmetric, and
  // host-destination rows are exactly the ones the lazy engine already
  // computes for routing, so this sweep reads one cached BFS row per host
  // instead of one per node.  No failure-set change happens here, so every
  // row span stays valid through the sweep.
  struct HostRow {
    topo::NodeId host;
    net::Ipv4 ip;
    std::span<const std::uint32_t> dist;  // dist[x] = hops x -> host
  };
  const auto hosts = graph.hosts();
  std::vector<HostRow> rows;
  rows.reserve(hosts.size());
  for (const topo::NodeId h : hosts) {
    rows.push_back({h, addressing.ip_of(h), paths.distances_to(h)});
  }

  for (const topo::NodeId sw : graph.switches()) {
    for (const auto& adj : graph.neighbors(sw)) {
      PortSets sets;
      const topo::NodeId peer = adj.peer;
      const bool peer_is_switch = graph.is_switch(peer);

      for (const auto& [h, ip, dist] : rows) {
        // Destination plausibility: the egress lies on a shortest path
        // toward h.
        const bool dst_ok =
            peer == h || (peer_is_switch && dist[peer] + 1 == dist[sw]);
        if (dst_ok) sets.dst.push_back(ip);

        // Source plausibility: traffic from h that transits sw could
        // continue through this port (moving away from h).
        const bool src_ok = peer_is_switch && dist[peer] == dist[sw] + 1;
        if (src_ok) sets.src.push_back(ip);
      }

      sets_.emplace(key(sw, adj.local_port), std::move(sets));
    }
  }
}

}  // namespace mic::core
