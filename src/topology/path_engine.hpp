// Lazy shortest-path engine: on-demand per-destination BFS rows.
//
// The eager AllPairsPaths front-loads one BFS per node and an O(n^2)
// distance matrix at construction -- fine for the paper's 16-host testbed,
// hostile to fat-trees with thousands of hosts.  The graph is undirected
// (and the host-no-transit rule is symmetric), so a single reverse BFS from
// a destination yields distance(x, dst) for *every* x -- exactly the shape
// every consumer needs: next-hop selection asks distance(sw, dst) for all
// switches, address restrictions ask distance(sw, host) for all hosts, and
// path sampling walks one row's shortest-path DAG.
//
// Rows are therefore computed on demand, one BFS per destination, and
// cached.  Each row stores its successor DAG in a flat CSR layout (one
// offsets array plus one flat buffer -- no per-cell heap vectors).  On a
// link failure the engine bumps a failure epoch and drops only the rows
// whose shortest-path DAG could have used the failed link (see
// row_uses_link); retained rows stay byte-identical and are merely
// re-tagged.  In a pristine fat-tree every interior link lies on a
// shortest path to every destination, so a first interior failure
// invalidates broadly -- the structural win there is that *recomputation*
// is demand-driven: a reroute only re-runs BFS for the destinations it
// actually touches, never all n sources the eager table rebuilt.  Row
// retention kicks in when failures cluster (links in already-partitioned
// regions, host-pendant links), which is exactly when failure storms make
// eager rebuilds most expensive.
//
// Invariant PE-1: for any fixed graph and failed-link set, a row's contents
// are a pure function of its destination -- independent of query order --
// so sampling with a fixed-seed Rng is deterministic regardless of how the
// cache was populated.  self_check() is the runtime
// audit of PE-1 (run as "PE-1" by audit::run_all).
//
// The engine is single-threaded, like the event loop that owns it.  Rows
// live by value in the cache, which holds every row queried since the last
// failure-set change; the private row() hands out a const Row& that stays
// valid until the next failure-set change (which may invalidate it).
//
// AllPairsPaths, the eager all-pairs table, is the reference oracle for the
// differential tests (tests/support/paths.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "topology/graph.hpp"

namespace mic::topo {

struct PathEngineStats {
  std::uint64_t rows_computed = 0;    // BFS runs (cache misses)
  std::uint64_t row_hits = 0;         // queries served from the cache
  std::uint64_t rows_invalidated = 0; // rows dropped by failure epochs
  std::uint64_t rows_retained = 0;    // rows that survived an epoch bump
};

class PathEngine {
 public:
  explicit PathEngine(const Graph& graph);

  static constexpr std::uint32_t kUnreachable = ~0u;

  /// Hop distance (number of links) from src to dst; kUnreachable if
  /// unreachable.  Computes and caches the dst row on first use.
  std::uint32_t distance(NodeId src, NodeId dst) const {
    return row(dst).dist[src];
  }

  bool reachable(NodeId src, NodeId dst) const {
    return distance(src, dst) != kUnreachable;
  }

  /// Number of switches on a shortest path (path length minus two hosts).
  std::uint32_t switch_hops(NodeId src, NodeId dst) const {
    const auto d = distance(src, dst);
    return d == kUnreachable ? kUnreachable : d - 1;
  }

  /// Uniformly-at-each-hop sample of one equal-cost shortest path (node
  /// sequence including both endpoints) via a random successor walk.
  Path sample_shortest_path(NodeId src, NodeId dst, Rng& rng) const;

  /// Enumerate equal-cost shortest paths, up to `limit` of them.
  std::vector<Path> enumerate_shortest_paths(NodeId src, NodeId dst,
                                             std::size_t limit) const;

  /// Find a simple-edged path whose *switch count* is at least
  /// `min_switches` (Sec IV-B2: paths longer than the shortest are spliced
  /// through random switch waypoints; directed edges never repeat).
  std::optional<Path> sample_long_path(NodeId src, NodeId dst,
                                       std::uint32_t min_switches, Rng& rng,
                                       int attempts = 64) const;

  // --- failure epochs ---------------------------------------------------------

  /// Treat `link` as absent from now on.  Bumps the failure epoch and
  /// invalidates only the cached rows whose BFS tree used the link.
  void link_failed(LinkId link);

  /// Bring `link` back.  A restored link can create shorter paths for any
  /// row where its endpoints' distances differ, so those rows are dropped.
  void link_restored(LinkId link);

  /// Diff the engine's excluded set against `failed`: newly failed links
  /// go through link_failed(), newly restored ones through
  /// link_restored().  Used to sync with an externally-owned failure set.
  void set_failed_links(const std::unordered_set<LinkId>& failed);

  const std::unordered_set<LinkId>& failed_links() const noexcept {
    return failed_;
  }

  // --- introspection / audit --------------------------------------------------

  PathEngineStats stats() const noexcept { return stats_; }
  std::size_t cached_rows() const noexcept { return rows_.size(); }

  /// Runtime audit of PE-1: recompute every cached row from scratch and
  /// compare distances, CSR offsets and successor buffers byte for byte.
  /// Appends one message per corrupt row to `violations`; returns the
  /// number of rows checked.
  std::size_t self_check(std::vector<std::string>& violations) const;

  /// Test-only: deliberately corrupt the cached row for `dst` (flips one
  /// distance entry) so negative tests can prove self_check() catches it.
  /// Returns false when the row is not cached.
  bool debug_corrupt_cached_row(NodeId dst);

 private:
  /// One destination's view of the fabric: distances from every node plus
  /// the shortest-path successor DAG in CSR form.  next_of(x) lists the
  /// neighbors y with dist[y] + 1 == dist[x] that a packet at x may take
  /// toward dst (y is dst itself or a transit-capable switch), in the
  /// graph's deterministic adjacency order.
  struct Row {
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> dist;     // dist[x] = hops x -> dst
    std::vector<std::uint32_t> offsets;  // CSR offsets, size n + 1
    std::vector<NodeId> nexts;           // flat successor buffer

    std::span<const NodeId> next_of(NodeId x) const noexcept {
      return {nexts.data() + offsets[x], offsets[x + 1] - offsets[x]};
    }
  };

  /// Pure function of (graph_, failed_, dst).
  Row compute_row(NodeId dst) const;
  /// The cached row for `dst`, computed on a miss.  The reference is valid
  /// until the next failure-set change.
  const Row& row(NodeId dst) const;

  /// Does dropping or restoring the link (a, b) change this row?  Only if
  /// a path toward `dst` can cross it: the endpoint nearer dst (or the
  /// only reachable one) must be standable mid-path -- dst itself or a
  /// transit-capable switch.  A link between equidistant (or two
  /// unreachable) nodes is never tight, and one whose nearer endpoint is a
  /// non-dst host can never be traversed toward dst.
  bool row_uses_link(const Row& row, NodeId dst, NodeId a,
                     NodeId b) const noexcept {
    const std::uint32_t da = row.dist[a], db = row.dist[b];
    if (da == db) return false;
    const NodeId nearer =
        (db == kUnreachable || (da != kUnreachable && da < db)) ? a : b;
    return nearer == dst || graph_.is_switch(nearer);
  }

  void invalidate_rows_touching(LinkId link);

  void enumerate_rec(const Row& row, NodeId cur, NodeId dst, Path& prefix,
                     std::vector<Path>& out, std::size_t limit) const;

  const Graph& graph_;
  std::size_t n_;
  std::vector<NodeId> switches_;  // cached for sample_long_path waypoints

  std::unordered_set<LinkId> failed_;
  std::uint32_t epoch_ = 0;

  // Row cache + stats; mutable so const queries can memoize.
  mutable std::unordered_map<NodeId, Row> rows_;
  mutable PathEngineStats stats_;
};

}  // namespace mic::topo
