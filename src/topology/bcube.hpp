// BCube(n, l) builder: the server-centric topology the paper's threat model
// calls out ("In some server-centric network topologies, such as BCube, a
// hacker can compromise a server, and analyze the traffic passing through
// it").  Provided so adversary experiments can also run on a server-centric
// fabric.
//
// BCube(n, l): n^(l+1) servers; level i has n^l switches of degree n.
// Server s (0-based, base-n digits d_l ... d_0) connects at level i to
// switch number (s with digit i removed), port d_i.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/graph.hpp"

namespace mic::topo {

class BCube {
 public:
  /// n >= 2 ports per switch, l >= 0 levels (BCube_0 is a single switch
  /// layer).
  BCube(int n, int l);

  const Graph& graph() const noexcept { return graph_; }
  int n() const noexcept { return n_; }
  int levels() const noexcept { return l_; }

  const std::vector<NodeId>& servers() const noexcept { return servers_; }
  /// Switches of one level, 0 <= level <= l.
  const std::vector<NodeId>& level_switches(int level) const {
    return switches_[static_cast<std::size_t>(level)];
  }

  /// 10.level-free flat addressing: server index i -> 10.1.(i/250).(i%250+1).
  std::uint32_t server_ip(NodeId server) const;

 private:
  int n_;
  int l_;
  Graph graph_;
  std::vector<NodeId> servers_;
  std::vector<std::vector<NodeId>> switches_;
};

}  // namespace mic::topo
