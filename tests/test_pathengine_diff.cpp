// Differential tests: the lazy PathEngine against the retained
// AllPairsPaths oracle (the FlowTable reference_lookup() precedent).
//
// For any topology and failed-link set, the engine must agree with a
// freshly-built oracle on every distance, produce only valid shortest
// paths when sampling, and enumerate exactly the oracle's equal-cost path
// set.  Failure-set changes are exercised both on cold caches (every link
// of a failure set failed before any query) and incrementally (link_failed /
// link_restored on warm caches, where row retention does the interesting
// work).  PE-1: how the row cache was
// populated must not change anything observable.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "support/paths.hpp"
#include "topology/bcube.hpp"
#include "topology/fattree.hpp"
#include "topology/leafspine.hpp"
#include "topology/path_engine.hpp"

namespace mic::topo {
namespace {

/// Populate the cache by querying each destination's row, in order.
void query_rows(const PathEngine& engine, const std::vector<NodeId>& dsts) {
  for (const NodeId dst : dsts) engine.distance(dst, dst);
}

struct Topo {
  const char* name;
  Graph graph;
  std::vector<NodeId> endpoints;  // hosts/servers: the interesting pairs
};

std::vector<Topo> make_topologies() {
  std::vector<Topo> out;
  {
    const FatTree ft(4);
    out.push_back({"fattree4", ft.graph(), ft.hosts()});
  }
  {
    const FatTree ft(6);
    out.push_back({"fattree6", ft.graph(), ft.hosts()});
  }
  {
    const LeafSpine ls(3, 4, 4);
    out.push_back({"leafspine", ls.graph(), ls.hosts()});
  }
  {
    const BCube bc(4, 1);
    out.push_back({"bcube", bc.graph(), bc.servers()});
  }
  return out;
}

std::unordered_set<LinkId> random_failures(const Graph& graph, Rng& rng,
                                           std::size_t count) {
  std::unordered_set<LinkId> failed;
  while (failed.size() < count) {
    failed.insert(static_cast<LinkId>(rng.below(graph.link_count())));
  }
  return failed;
}

/// A sampled path must be a valid shortest path under the failure set:
/// correct endpoints, length == distance + 1, consecutive nodes adjacent
/// over live links, interior all switches.
void check_sampled_path(const Graph& graph, const AllPairsPaths& oracle,
                        const std::unordered_set<LinkId>& failed,
                        const Path& path, NodeId src, NodeId dst) {
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), src);
  EXPECT_EQ(path.back(), dst);
  ASSERT_EQ(path.size(), oracle.distance(src, dst) + 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const LinkId link = graph.link_between(path[i], path[i + 1]);
    ASSERT_NE(link, kInvalidLink);
    EXPECT_FALSE(failed.contains(link));
    if (i > 0) {
      EXPECT_TRUE(graph.is_switch(path[i]));
    }
  }
}

TEST(PathEngineDiff, RandomizedAgainstOracle) {
  // >= 5k randomized (topology, failure set, node pair) distance cases,
  // with path sampling and enumeration cross-checked on the reachable
  // ones.
  const auto topologies = make_topologies();
  Rng rng(20260806);
  std::size_t distance_cases = 0;

  for (const auto& topo : topologies) {
    const Graph& graph = topo.graph;
    for (int scenario = 0; scenario < 12; ++scenario) {
      // Scenario 0 is the pristine graph; later ones fail 1..6 links.
      const std::unordered_set<LinkId> failed =
          scenario == 0
              ? std::unordered_set<LinkId>{}
              : random_failures(graph, rng, 1 + rng.below(6));
      const AllPairsPaths oracle(graph,
                                 failed.empty() ? nullptr : &failed);
      PathEngine engine(graph);
      for (const LinkId link : failed) engine.link_failed(link);

      for (int trial = 0; trial < 120; ++trial) {
        // Mostly endpoint pairs (the product's query mix), sometimes any
        // node pair including switches (sample_long_path waypoints).
        NodeId a, b;
        if (rng.chance(0.8)) {
          a = topo.endpoints[rng.below(topo.endpoints.size())];
          b = topo.endpoints[rng.below(topo.endpoints.size())];
        } else {
          a = static_cast<NodeId>(rng.below(graph.size()));
          b = static_cast<NodeId>(rng.below(graph.size()));
        }
        ASSERT_EQ(engine.distance(a, b), oracle.distance(a, b))
            << topo.name << " scenario " << scenario << " pair " << a
            << "->" << b;
        ++distance_cases;
        if (a == b || !oracle.reachable(a, b)) continue;

        if (trial % 10 == 0) {
          const Path p = engine.sample_shortest_path(a, b, rng);
          check_sampled_path(graph, oracle, failed, p, a, b);
        }
        if (trial % 30 == 0) {
          // The engine's equal-cost set must be exactly the oracle's.
          constexpr std::size_t kLimit = 64;
          auto ours = engine.enumerate_shortest_paths(a, b, kLimit);
          auto theirs = oracle.enumerate_shortest_paths(a, b, kLimit);
          if (theirs.size() < kLimit) {
            std::sort(ours.begin(), ours.end());
            std::sort(theirs.begin(), theirs.end());
            EXPECT_EQ(ours, theirs) << topo.name << " " << a << "->" << b;
          } else {
            EXPECT_EQ(ours.size(), kLimit);
            const std::set<Path> unique(ours.begin(), ours.end());
            EXPECT_EQ(unique.size(), ours.size());
          }
        }
      }
    }
  }
  EXPECT_GE(distance_cases, 5000u);
}

TEST(PathEngineDiff, IncrementalFailureEpochsMatchFreshOracle) {
  // The interesting path: fail and restore links one at a time against a
  // *warm* cache, so retained rows (the sub-linear invalidation) are what
  // answers most queries -- and every answer must still match an oracle
  // built from scratch for the current failure set.
  const FatTree ft(4);
  const Graph& graph = ft.graph();
  PathEngine engine(graph);
  query_rows(engine, ft.hosts());  // cache every host row up front

  Rng rng(99);
  std::unordered_set<LinkId> failed;
  for (int step = 0; step < 30; ++step) {
    if (!failed.empty() && rng.chance(0.4)) {
      // Restore a random currently-failed link.
      auto it = failed.begin();
      std::advance(it, static_cast<long>(rng.below(failed.size())));
      const LinkId link = *it;
      failed.erase(it);
      engine.link_restored(link);
    } else {
      const LinkId link = static_cast<LinkId>(rng.below(graph.link_count()));
      if (!failed.insert(link).second) continue;
      engine.link_failed(link);
    }

    const AllPairsPaths oracle(graph, failed.empty() ? nullptr : &failed);
    for (const NodeId h : ft.hosts()) {
      for (const NodeId sw : graph.switches()) {
        ASSERT_EQ(engine.distance(sw, h), oracle.distance(sw, h))
            << "step " << step << " sw " << sw << " host " << h;
      }
    }
  }
  // The epoch machinery must actually have retained rows (otherwise this
  // test degenerates into recompute-everything and proves nothing).
  EXPECT_GT(engine.stats().rows_retained, 0u);
  EXPECT_GT(engine.stats().rows_invalidated, 0u);
}

TEST(PathEngineDiff, ClusteredFailuresRetainUnaffectedRows) {
  // Sub-linear invalidation: once an edge switch is partitioned off, a
  // further failure inside the dead region touches only the rows of the
  // hosts under that switch -- every other row's BFS tree cannot cross the
  // link, so it is retained byte-for-byte (and must still be correct).
  const FatTree ft(8);
  const Graph& graph = ft.graph();
  PathEngine engine(graph);

  // Kill every uplink of the first edge switch.
  const NodeId edge = ft.edge_switches()[0];
  std::unordered_set<LinkId> failed;
  for (const auto& adj : graph.neighbors(edge)) {
    if (graph.is_switch(adj.peer)) failed.insert(adj.link);
  }
  for (const LinkId link : failed) engine.link_failed(link);
  query_rows(engine, ft.hosts());  // cache all host rows post-partition

  // Now fail a host link inside the partition.
  const NodeId local_host = ft.hosts()[0];
  ASSERT_EQ(graph.neighbors(local_host)[0].peer, edge);
  const LinkId local_link = graph.neighbors(local_host)[0].link;
  failed.insert(local_link);
  const auto before = engine.stats();
  engine.link_failed(local_link);
  const auto after = engine.stats();

  const std::uint64_t invalidated =
      after.rows_invalidated - before.rows_invalidated;
  const std::uint64_t retained = after.rows_retained - before.rows_retained;
  // Only the rows for hosts under the dead edge switch (k/2 = 4) see the
  // link; the other 124 host rows survive.
  EXPECT_EQ(invalidated, 4u);
  EXPECT_EQ(retained, ft.hosts().size() - 4);

  // Retained rows must still agree with a fresh oracle.
  const AllPairsPaths oracle(graph, &failed);
  for (const NodeId h : ft.hosts()) {
    for (const NodeId sw : graph.switches()) {
      ASSERT_EQ(engine.distance(sw, h), oracle.distance(sw, h));
    }
    ASSERT_EQ(engine.distance(local_host, h), oracle.distance(local_host, h));
  }
}

TEST(PathEngineDiff, FailedAccessLinkMatchesOracleUnreachability) {
  // Killing a host's only access link must report unreachable exactly like
  // the oracle, from both query directions.
  const FatTree ft(4);
  const NodeId victim_host = ft.hosts()[3];
  const std::unordered_set<LinkId> failed{
      ft.graph().neighbors(victim_host)[0].link};
  const AllPairsPaths oracle(ft.graph(), &failed);
  PathEngine engine(ft.graph());
  for (const LinkId link : failed) engine.link_failed(link);
  for (const NodeId h : ft.hosts()) {
    EXPECT_EQ(engine.reachable(h, victim_host),
              oracle.reachable(h, victim_host));
    EXPECT_EQ(engine.reachable(victim_host, h),
              oracle.reachable(victim_host, h));
  }
  EXPECT_FALSE(engine.reachable(ft.hosts()[0], victim_host));
}

TEST(PathEngineDiff, CachePopulationIsObservationallyIrrelevant) {
  // PE-1: for a fixed seed, sampled shortest and long paths and enumerated
  // path sets are identical whether rows are computed lazily or every host
  // row is pre-queried in reverse host order -- the cache contents are a
  // pure function of (graph, failures, destination).
  const FatTree ft(6);
  const auto& hosts = ft.hosts();

  struct Observed {
    std::vector<Path> shortest;
    std::vector<std::optional<Path>> longer;
    std::vector<std::vector<Path>> enumerated;
  };
  auto run = [&](bool prequeried) {
    PathEngine engine(ft.graph());
    if (prequeried) query_rows(engine, {hosts.rbegin(), hosts.rend()});
    Rng rng(777);
    Observed seen;
    for (int i = 0; i < 200; ++i) {
      const NodeId src = hosts[rng.below(hosts.size())];
      NodeId dst = src;
      while (dst == src) dst = hosts[rng.below(hosts.size())];
      seen.shortest.push_back(engine.sample_shortest_path(src, dst, rng));
      // Six switches is longer than any shortest path in a k=6 fat-tree,
      // so every call splices through waypoint rows.
      seen.longer.push_back(engine.sample_long_path(src, dst, 6, rng));
      seen.enumerated.push_back(engine.enumerate_shortest_paths(src, dst, 16));
    }
    return seen;
  };

  const Observed lazy = run(false);
  const Observed seen = run(true);
  EXPECT_EQ(seen.shortest, lazy.shortest);
  EXPECT_EQ(seen.longer, lazy.longer);
  EXPECT_EQ(seen.enumerated, lazy.enumerated);
}

TEST(PathEngineDiff, LongPathPropertiesHold) {
  // sample_long_path on the engine obeys the same contract as the oracle's
  // (interior switches, no repeated directed edge, >= min switches).
  const FatTree ft(4);
  PathEngine engine(ft.graph());
  Rng rng(5);
  const auto path = engine.sample_long_path(ft.hosts()[0], ft.hosts()[1], 4,
                                            rng);
  ASSERT_TRUE(path.has_value());
  EXPECT_GE(path->size(), 6u);  // >= 4 switches + 2 hosts
  for (std::size_t i = 1; i + 1 < path->size(); ++i) {
    EXPECT_TRUE(ft.graph().is_switch((*path)[i]));
  }
  std::set<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    EXPECT_TRUE(edges.insert({(*path)[i], (*path)[i + 1]}).second);
  }
}

TEST(PathEngineDiff, StatsAccountForLazyComputation) {
  const FatTree ft(4);
  PathEngine engine(ft.graph());
  EXPECT_EQ(engine.cached_rows(), 0u);

  const NodeId dst = ft.hosts()[5];
  engine.distance(ft.hosts()[0], dst);
  EXPECT_EQ(engine.cached_rows(), 1u);
  EXPECT_EQ(engine.stats().rows_computed, 1u);

  for (const NodeId sw : ft.graph().switches()) engine.distance(sw, dst);
  EXPECT_EQ(engine.cached_rows(), 1u);  // one row serves every source
  EXPECT_EQ(engine.stats().rows_computed, 1u);
  EXPECT_EQ(engine.stats().row_hits, 20u);
}

}  // namespace
}  // namespace mic::topo
