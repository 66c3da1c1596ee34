#include "topology/path_engine.hpp"

#include <deque>

namespace mic::topo {

PathEngine::PathEngine(const Graph& graph)
    : graph_(graph), n_(graph.size()), switches_(graph.switches()) {}

PathEngine::Row PathEngine::compute_row(NodeId dst) const {
  Row row;
  row.dist.assign(n_, kUnreachable);

  // Reverse BFS from the destination.  Hosts are leaves: they may start or
  // end a path but never transit, so expansion only continues through
  // switches (plus dst itself, which may be a host).
  std::deque<NodeId> queue;
  row.dist[dst] = 0;
  queue.push_back(dst);
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    if (cur != dst && graph_.is_host(cur)) continue;  // do not transit hosts
    const std::uint32_t d = row.dist[cur];
    for (const auto& adj : graph_.neighbors(cur)) {
      if (!failed_.empty() && failed_.contains(adj.link)) continue;
      if (row.dist[adj.peer] == kUnreachable) {
        row.dist[adj.peer] = d + 1;
        queue.push_back(adj.peer);
      }
    }
  }

  // Successor DAG in CSR form: y follows x toward dst iff the link is up,
  // y is one hop closer, and y can be stood on mid-path (it is dst or a
  // switch).  Adjacency order keeps the layout deterministic (PE-1).
  row.offsets.assign(n_ + 1, 0);
  for (NodeId x = 0; x < n_; ++x) {
    if (row.dist[x] != kUnreachable && row.dist[x] != 0) {
      for (const auto& adj : graph_.neighbors(x)) {
        if (!failed_.empty() && failed_.contains(adj.link)) continue;
        if (adj.peer != dst && !graph_.is_switch(adj.peer)) continue;
        if (row.dist[adj.peer] != kUnreachable &&
            row.dist[adj.peer] + 1 == row.dist[x]) {
          row.nexts.push_back(adj.peer);
        }
      }
    }
    row.offsets[x + 1] = static_cast<std::uint32_t>(row.nexts.size());
  }
  return row;
}

const PathEngine::Row& PathEngine::row(NodeId dst) const {
  MIC_ASSERT(dst < n_);
  const auto [it, inserted] = rows_.try_emplace(dst);
  if (inserted) {
    it->second = compute_row(dst);
    ++stats_.rows_computed;
  } else {
    ++stats_.row_hits;
  }
  return it->second;
}

Path PathEngine::sample_shortest_path(NodeId src, NodeId dst,
                                      Rng& rng) const {
  const Row& r = row(dst);
  MIC_ASSERT(r.dist[src] != kUnreachable);
  Path path;
  path.reserve(r.dist[src] + 1);
  NodeId cur = src;
  path.push_back(cur);
  while (cur != dst) {
    const auto nexts = r.next_of(cur);
    MIC_ASSERT(!nexts.empty());
    cur = nexts[rng.below(nexts.size())];
    path.push_back(cur);
  }
  return path;
}

void PathEngine::enumerate_rec(const Row& row, NodeId cur, NodeId dst,
                               Path& prefix, std::vector<Path>& out,
                               std::size_t limit) const {
  if (out.size() >= limit) return;
  prefix.push_back(cur);
  if (cur == dst) {
    out.push_back(prefix);
  } else {
    for (const NodeId next : row.next_of(cur)) {
      enumerate_rec(row, next, dst, prefix, out, limit);
      if (out.size() >= limit) break;
    }
  }
  prefix.pop_back();
}

std::vector<Path> PathEngine::enumerate_shortest_paths(
    NodeId src, NodeId dst, std::size_t limit) const {
  std::vector<Path> out;
  if (limit == 0 || !reachable(src, dst)) return out;
  Path prefix;
  enumerate_rec(row(dst), src, dst, prefix, out, limit);
  return out;
}

std::optional<Path> PathEngine::sample_long_path(NodeId src, NodeId dst,
                                                 std::uint32_t min_switches,
                                                 Rng& rng,
                                                 int attempts) const {
  if (!reachable(src, dst)) return std::nullopt;
  if (switch_hops(src, dst) >= min_switches) {
    return sample_shortest_path(src, dst, rng);
  }
  if (switches_.empty()) return std::nullopt;

  for (int attempt = 0; attempt < attempts; ++attempt) {
    const NodeId way = switches_[rng.below(switches_.size())];
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

void PathEngine::invalidate_rows_touching(LinkId link) {
  const auto [a, b] = graph_.link_endpoints(link);
  for (auto it = rows_.begin(); it != rows_.end();) {
    if (row_uses_link(it->second, it->first, a, b)) {
      ++stats_.rows_invalidated;
      it = rows_.erase(it);
    } else {
      ++stats_.rows_retained;
      ++it;
    }
  }
}

bool PathEngine::link_failed(LinkId link) {
  if (!failed_.insert(link).second) return false;  // already down
  invalidate_rows_touching(link);
  return true;
}

bool PathEngine::link_restored(LinkId link) {
  if (failed_.erase(link) == 0) return false;  // was not down
  invalidate_rows_touching(link);
  return true;
}

std::size_t PathEngine::self_check(std::vector<std::string>& violations) const {
  for (const auto& [dst, cached] : rows_) {
    const Row fresh = compute_row(dst);
    if (cached.dist == fresh.dist && cached.offsets == fresh.offsets &&
        cached.nexts == fresh.nexts) {
      continue;
    }
    violations.push_back("row " + std::to_string(dst) +
                         ": cached contents differ from a fresh BFS");
  }
  return rows_.size();
}

bool PathEngine::debug_corrupt_cached_row(NodeId dst) {
  const auto it = rows_.find(dst);
  if (it == rows_.end()) return false;
  // Flip the destination's own distance (always 0 in a healthy row) so the
  // corruption is unambiguous and cheap to hit.
  ++it->second.dist[dst];
  return true;
}

}  // namespace mic::topo
