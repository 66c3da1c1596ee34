#include "support/paths.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace mic::topo {

AllPairsPaths::AllPairsPaths(const Graph& graph,
                             const std::unordered_set<LinkId>* excluded)
    : graph_(graph), n_(graph.size()) {
  dist_.assign(n_ * n_, kUnreachable);
  preds_.assign(n_ * n_, {});

  // One BFS per source.  Hosts are leaves: they may start or end a path but
  // never transit, so expansion only continues through switches.
  std::deque<NodeId> queue;
  for (NodeId src = 0; src < n_; ++src) {
    queue.clear();
    dist_[index(src, src)] = 0;
    queue.push_back(src);
    while (!queue.empty()) {
      const NodeId cur = queue.front();
      queue.pop_front();
      const std::uint32_t d = dist_[index(src, cur)];
      if (cur != src && graph_.is_host(cur)) continue;  // do not transit hosts
      for (const auto& adj : graph_.neighbors(cur)) {
        if (excluded != nullptr && excluded->contains(adj.link)) continue;
        auto& peer_dist = dist_[index(src, adj.peer)];
        if (peer_dist == kUnreachable) {
          peer_dist = d + 1;
          queue.push_back(adj.peer);
        }
        if (peer_dist == d + 1) {
          preds_[index(src, adj.peer)].push_back(cur);
        }
      }
    }
  }
}

Path AllPairsPaths::sample_shortest_path(NodeId src, NodeId dst,
                                         Rng& rng) const {
  MIC_ASSERT(reachable(src, dst));
  Path reversed;
  NodeId cur = dst;
  reversed.push_back(cur);
  while (cur != src) {
    const auto& preds = preds_[index(src, cur)];
    MIC_ASSERT(!preds.empty());
    cur = preds[rng.below(preds.size())];
    reversed.push_back(cur);
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

void AllPairsPaths::enumerate_rec(NodeId src, NodeId cur, Path& suffix,
                                  std::vector<Path>& out,
                                  std::size_t limit) const {
  if (out.size() >= limit) return;
  suffix.push_back(cur);
  if (cur == src) {
    Path path(suffix.rbegin(), suffix.rend());
    out.push_back(std::move(path));
  } else {
    for (const NodeId pred : preds_[index(src, cur)]) {
      enumerate_rec(src, pred, suffix, out, limit);
      if (out.size() >= limit) break;
    }
  }
  suffix.pop_back();
}

std::vector<Path> AllPairsPaths::enumerate_shortest_paths(
    NodeId src, NodeId dst, std::size_t limit) const {
  std::vector<Path> out;
  if (!reachable(src, dst) || limit == 0) return out;
  Path suffix;
  enumerate_rec(src, dst, suffix, out, limit);
  return out;
}

std::optional<Path> AllPairsPaths::sample_long_path(NodeId src, NodeId dst,
                                                    std::uint32_t min_switches,
                                                    Rng& rng,
                                                    int attempts) const {
  if (!reachable(src, dst)) return std::nullopt;
  if (switch_hops(src, dst) >= min_switches) {
    return sample_shortest_path(src, dst, rng);
  }

  const auto switches = graph_.switches();
  if (switches.empty()) return std::nullopt;

  for (int attempt = 0; attempt < attempts; ++attempt) {
    const NodeId way = switches[rng.below(switches.size())];
    if (!reachable(src, way) || !reachable(way, dst)) continue;
    Path first = sample_shortest_path(src, way, rng);
    const Path second = sample_shortest_path(way, dst, rng);

    // Splice, dropping the duplicated waypoint.
    first.insert(first.end(), second.begin() + 1, second.end());

    // Interior must be all switches (hosts cannot transit).
    bool interior_ok = true;
    for (std::size_t i = 1; i + 1 < first.size(); ++i) {
      if (!graph_.is_switch(first[i])) { interior_ok = false; break; }
    }
    if (!interior_ok) continue;

    // Revisiting a switch is allowed -- MIC rules match on in_port as well
    // as addresses, so each visit installs a distinct rule (two hosts on
    // one edge switch *require* a revisit for any lengthened path).  What
    // must never repeat is a directed edge: the second traversal would
    // need the same (in_port, header) rule twice.
    std::unordered_set<std::uint64_t> directed_edges;
    bool edges_ok = true;
    for (std::size_t i = 0; i + 1 < first.size(); ++i) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(first[i]) << 32) | first[i + 1];
      if (!directed_edges.insert(key).second) { edges_ok = false; break; }
    }
    if (!edges_ok) continue;

    if (first.size() >= static_cast<std::size_t>(min_switches) + 2) {
      return first;
    }
  }
  return std::nullopt;
}

}  // namespace mic::topo
