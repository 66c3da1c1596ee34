#include "topology/bcube.hpp"

#include <cmath>

namespace mic::topo {

namespace {
constexpr std::uint32_t make_ip(int a, int b, int c, int d) {
  return (static_cast<std::uint32_t>(a) << 24) |
         (static_cast<std::uint32_t>(b) << 16) |
         (static_cast<std::uint32_t>(c) << 8) | static_cast<std::uint32_t>(d);
}

int ipow(int base, int exp) {
  int out = 1;
  for (int i = 0; i < exp; ++i) out *= base;
  return out;
}
}  // namespace

BCube::BCube(int n, int l) : n_(n), l_(l) {
  MIC_ASSERT_MSG(n >= 2 && l >= 0, "BCube needs n >= 2, l >= 0");
  const int server_count = ipow(n, l + 1);
  const int switches_per_level = ipow(n, l);

  servers_.reserve(static_cast<std::size_t>(server_count));
  for (int s = 0; s < server_count; ++s) {
    servers_.push_back(graph_.add_node(NodeKind::kHost));
  }

  switches_.resize(static_cast<std::size_t>(l + 1));
  for (int level = 0; level <= l; ++level) {
    auto& row = switches_[static_cast<std::size_t>(level)];
    row.reserve(static_cast<std::size_t>(switches_per_level));
    for (int w = 0; w < switches_per_level; ++w) {
      row.push_back(graph_.add_node(NodeKind::kSwitch));
    }
  }

  // Server s with base-n digits d_l..d_0 connects at level i to the switch
  // indexed by s with digit i removed.
  for (int s = 0; s < server_count; ++s) {
    for (int level = 0; level <= l; ++level) {
      const int stride = ipow(n, level);
      const int high = s / (stride * n);  // digits above level
      const int low = s % stride;         // digits below level
      const int switch_index = high * stride + low;
      graph_.add_link(servers_[static_cast<std::size_t>(s)],
                      switches_[static_cast<std::size_t>(level)]
                               [static_cast<std::size_t>(switch_index)]);
    }
  }
}

std::uint32_t BCube::server_ip(NodeId server) const {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i] == server) {
      return make_ip(10, 1, static_cast<int>(i) / 250,
                     static_cast<int>(i) % 250 + 1);
    }
  }
  MIC_ASSERT_MSG(false, "not a BCube server node");
}

}  // namespace mic::topo
