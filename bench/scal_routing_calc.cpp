// Scalability of the MC's routing calculation (paper Sec VI-C): the claim
// is O(|F|) per channel with near-zero overhead versus TCP.  Measures real
// wall time of MimicController::establish for varying F, N and topology
// size, plus the route-table story behind it: eager all-pairs
// precomputation (the retained AllPairsPaths oracle -- the seed behaviour)
// versus the lazy PathEngine (per-destination BFS rows on demand, epoch
// invalidation on failure, optional parallel warm-up).
//
//   scal_routing_calc               # google-benchmark tables
//   scal_routing_calc --sweep_json  # machine-readable fat-tree sweep for
//                                   # the bench trajectory (BENCH_routing.json)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/fabric.hpp"
#include "topology/fattree.hpp"
#include "topology/path_engine.hpp"
#include "topology/paths.hpp"

namespace {

using namespace mic;
using core::EstablishRequest;
using core::Fabric;
using core::FabricOptions;

/// The establish benches call MimicController::establish back to back in
/// zero simulated time, so the per-tenant token buckets never refill: with
/// admission on, all but the first burst would be shed as Busy and the
/// bench would time the shedding fast path.  Admission is switched off,
/// which cannot saturate, and every iteration must establish.
FabricOptions establish_options(int k) {
  FabricOptions options;
  options.k = k;
  options.mic.admission.enabled = false;
  return options;
}

/// Establish `request` (timed), assert it succeeded, tear it down
/// (untimed) and count the success.
void establish_once(benchmark::State& state, Fabric& fabric,
                    const EstablishRequest& request,
                    std::int64_t& established) {
  const auto result = fabric.mc().establish(request);
  MIC_ASSERT_MSG(result.ok, "establish bench iteration did not establish");
  ++established;
  state.PauseTiming();
  fabric.mc().teardown(result.channel);
  state.ResumeTiming();
}

void report_established(benchmark::State& state, std::int64_t established) {
  state.counters["established"] = static_cast<double>(established);
  state.counters["established_ratio"] =
      static_cast<double>(established) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
}

void BM_EstablishByFlowCount(benchmark::State& state) {
  Fabric fabric(establish_options(4));
  const int flows = static_cast<int>(state.range(0));
  int sport = 20000;
  std::int64_t established = 0;
  for (auto _ : state) {
    EstablishRequest request;
    request.initiator_ip = fabric.ip(0);
    request.responder_ip = fabric.ip(12);
    request.responder_port = 7000;
    request.flow_count = flows;
    request.mn_count = 3;
    for (int f = 0; f < flows; ++f) {
      request.initiator_sports.push_back(static_cast<net::L4Port>(sport++));
      if (sport > 64000) sport = 20000;
    }
    establish_once(state, fabric, request, established);
  }
  state.SetItemsProcessed(state.iterations() * flows);
  report_established(state, established);
}
BENCHMARK(BM_EstablishByFlowCount)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EstablishByMnCount(benchmark::State& state) {
  Fabric fabric(establish_options(4));
  const int mn_count = static_cast<int>(state.range(0));
  int sport = 20000;
  std::int64_t established = 0;
  for (auto _ : state) {
    EstablishRequest request;
    request.initiator_ip = fabric.ip(0);
    request.responder_ip = fabric.ip(12);
    request.responder_port = 7000;
    request.flow_count = 1;
    request.mn_count = mn_count;
    request.initiator_sports = {static_cast<net::L4Port>(sport++)};
    if (sport > 64000) sport = 20000;
    establish_once(state, fabric, request, established);
  }
  report_established(state, established);
}
BENCHMARK(BM_EstablishByMnCount)->Arg(1)->Arg(3)->Arg(5);

void BM_EstablishByTopologySize(benchmark::State& state) {
  Fabric fabric(establish_options(static_cast<int>(state.range(0))));
  const std::size_t last = fabric.host_count() - 1;
  int sport = 20000;
  std::int64_t established = 0;
  for (auto _ : state) {
    EstablishRequest request;
    request.initiator_ip = fabric.ip(0);
    request.responder_ip = fabric.ip(last);
    request.responder_port = 7000;
    request.flow_count = 1;
    request.mn_count = 3;
    request.initiator_sports = {static_cast<net::L4Port>(sport++)};
    if (sport > 64000) sport = 20000;
    establish_once(state, fabric, request, established);
  }
  report_established(state, established);
}
BENCHMARK(BM_EstablishByTopologySize)->Arg(4)->Arg(6)->Arg(8);

void BM_AllPairsPathsInit(benchmark::State& state) {
  // The seed's one-time cost at MC start: one BFS per node plus an O(n^2)
  // matrix ("calculates all-pairs equal-cost shortest paths when
  // initiation").  Retained as the eager baseline / oracle.
  topo::FatTree ft(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    topo::AllPairsPaths paths(ft.graph());
    benchmark::DoNotOptimize(paths.distance(ft.hosts()[0], ft.hosts()[1]));
  }
}
BENCHMARK(BM_AllPairsPathsInit)->Arg(4)->Arg(8)->Arg(16);

void BM_PathEngineLazyRouteSetup(benchmark::State& state) {
  // What the MC actually pays per start-up now: engine construction is
  // O(1); a route setup computes only the rows for the destinations it
  // touches (here: 8 channel establishments between random host pairs).
  topo::FatTree ft(static_cast<int>(state.range(0)));
  const auto& hosts = ft.hosts();
  for (auto _ : state) {
    topo::PathEngine engine(ft.graph());
    Rng rng(42);
    for (int i = 0; i < 8; ++i) {
      const topo::NodeId src = hosts[rng.below(hosts.size())];
      topo::NodeId dst = src;
      while (dst == src) dst = hosts[rng.below(hosts.size())];
      benchmark::DoNotOptimize(engine.sample_shortest_path(src, dst, rng));
    }
  }
}
BENCHMARK(BM_PathEngineLazyRouteSetup)->Arg(4)->Arg(8)->Arg(16);

void BM_PathEngineWarmUp(benchmark::State& state) {
  // Full warm-up of every host row, threaded: Arg is the thread count on a
  // k=16 fat-tree (1024 host rows).
  topo::FatTree ft(16);
  const auto hosts = ft.graph().hosts();
  for (auto _ : state) {
    topo::PathEngine engine(ft.graph());
    engine.warm_up(hosts, static_cast<unsigned>(state.range(0)));
    benchmark::DoNotOptimize(engine.cached_rows());
  }
}
BENCHMARK(BM_PathEngineWarmUp)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_McConfigWarmUp(benchmark::State& state) {
  // The production path to the same warm-up: ControllerConfig's
  // path_warmup_threads (Arg), exercised through full Fabric construction
  // rather than a bare engine -- this is what an operator actually tunes.
  FabricOptions options;
  options.k = 8;
  options.controller.path_warmup_threads =
      static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    Fabric fabric(options);
    benchmark::DoNotOptimize(fabric.mc().paths().cached_rows());
  }
  state.counters["rows_precomputed"] = static_cast<double>(
      Fabric(options).mc().paths().cached_rows());
}
BENCHMARK(BM_McConfigWarmUp)->Arg(0)->Arg(1)->Arg(4);

topo::LinkId interior_link(const topo::FatTree& ft) {
  // An edge->aggregation link: on many shortest paths, so its failure
  // exercises real invalidation without disconnecting any host.
  for (const auto& adj : ft.graph().neighbors(ft.edge_switches()[0])) {
    if (ft.graph().is_switch(adj.peer)) return adj.link;
  }
  MIC_ASSERT(false);
  return topo::kInvalidLink;
}

/// Destinations of the flows a reroute actually has to re-answer: the
/// epoch bump is O(cached rows), after which only these rows are
/// recomputed on demand -- never all n sources like the eager rebuild.
std::vector<topo::NodeId> active_flow_dsts(const topo::FatTree& ft,
                                           std::size_t flows) {
  Rng rng(7);
  std::vector<topo::NodeId> dsts;
  const auto& hosts = ft.hosts();
  for (std::size_t i = 0; i < std::min(flows, hosts.size()); ++i) {
    dsts.push_back(hosts[rng.below(hosts.size())]);
  }
  return dsts;
}

/// Re-answer (switch, dst) distances for the active flow destinations,
/// returning a checksum so the work cannot be optimized away.
std::uint64_t requery_flows(const topo::PathEngine& engine,
                            const topo::FatTree& ft,
                            const std::vector<topo::NodeId>& dsts) {
  std::uint64_t sum = 0;
  for (const topo::NodeId dst : dsts) {
    for (const topo::NodeId sw : ft.graph().switches()) {
      sum += engine.distance(sw, dst);
    }
  }
  return sum;
}

void BM_PathEngineFailureReroute(benchmark::State& state) {
  // Reroute after one interior link failure with a warm cache: the epoch
  // bump drops the rows whose BFS tree used the link, then recomputation
  // is driven purely by demand -- here 32 active flows, so at most 32 BFS
  // runs instead of the seed's full-table rebuild (one BFS per *node*;
  // compare BM_AllPairsFailureRebuild).
  topo::FatTree ft(static_cast<int>(state.range(0)));
  topo::PathEngine engine(ft.graph());
  engine.warm_up(ft.graph().hosts(), 4);
  const topo::LinkId victim = interior_link(ft);
  const auto flow_dsts = active_flow_dsts(ft, 32);
  std::uint64_t recomputed = 0;
  for (auto _ : state) {
    const std::uint64_t before = engine.stats().rows_computed;
    engine.link_failed(victim);
    benchmark::DoNotOptimize(requery_flows(engine, ft, flow_dsts));
    recomputed += engine.stats().rows_computed - before;
    state.PauseTiming();
    engine.link_restored(victim);
    engine.warm_up(ft.graph().hosts(), 4);  // re-warm outside the timer
    state.ResumeTiming();
  }
  state.counters["rows_recomputed_per_fail"] =
      static_cast<double>(recomputed) / static_cast<double>(state.iterations());
  state.counters["nodes"] = static_cast<double>(ft.graph().size());
}
BENCHMARK(BM_PathEngineFailureReroute)->Arg(8)->Arg(16);

void BM_AllPairsFailureRebuild(benchmark::State& state) {
  // The seed's failure path: ctrl/l3_routing rebuilt the entire table from
  // scratch with the failed links excluded.
  topo::FatTree ft(static_cast<int>(state.range(0)));
  const std::unordered_set<topo::LinkId> failed{interior_link(ft)};
  for (auto _ : state) {
    topo::AllPairsPaths rebuilt(ft.graph(), &failed);
    benchmark::DoNotOptimize(rebuilt.distance(ft.hosts()[0], ft.hosts()[1]));
  }
}
BENCHMARK(BM_AllPairsFailureRebuild)->Arg(8)->Arg(16);

/// Destination-batched establishment (MimicController::establish_batch)
/// versus naive request-order establishment under a tight LRU row cap
/// (ControllerConfig::path_cache_max_rows): the batch stable-sorts by
/// destination, so each destination's row is computed once and serves its
/// whole group, while interleaved naive requests evict and recompute rows
/// as they thrash the capped cache.
struct EstablishBurst {
  double wall_ms = 0.0;
  std::uint64_t rows_computed = 0;
  std::uint64_t rows_evicted = 0;
};

EstablishBurst run_establish_burst(bool batched, std::size_t cache_cap) {
  using clock = std::chrono::steady_clock;
  FabricOptions options;
  options.seed = 42;
  options.controller.path_cache_max_rows = cache_cap;
  Fabric fabric(options);
  // 32 requests interleaving 4 destinations (hosts 8..11) from 8 sources.
  std::vector<EstablishRequest> requests;
  for (int i = 0; i < 32; ++i) {
    EstablishRequest request;
    request.initiator_ip = fabric.ip(static_cast<std::size_t>(i % 8));
    request.responder_ip = fabric.ip(8 + static_cast<std::size_t>(i % 4));
    request.responder_port = static_cast<net::L4Port>(7000 + i % 4);
    request.flow_count = 1;
    request.initiator_sports = {static_cast<net::L4Port>(30000 + i)};
    requests.push_back(request);
  }
  const auto before = fabric.mc().paths().stats();
  const auto t0 = clock::now();
  if (batched) {
    for (const auto& result : fabric.mc().establish_batch(requests)) {
      MIC_ASSERT(result.ok);
    }
  } else {
    for (const auto& request : requests) {
      MIC_ASSERT(fabric.mc().establish(request).ok);
    }
  }
  EstablishBurst burst;
  burst.wall_ms =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  const auto after = fabric.mc().paths().stats();
  burst.rows_computed = after.rows_computed - before.rows_computed;
  burst.rows_evicted = after.rows_evicted - before.rows_evicted;
  return burst;
}

/// Self-timed sweep, one JSON object on stdout: eager (seed baseline)
/// versus lazy construction and failure-reroute cost over growing
/// fat-trees, plus the engine's own row accounting so the sub-linear
/// invalidation is auditable, and the destination-batched establishment
/// burst under a tight row cap.
int run_sweep_json() {
  using clock = std::chrono::steady_clock;
  const auto ms_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };

  std::printf("{\"bench\":\"scal_routing_calc\",\"series\":[");
  bool first = true;
  for (const int k : {4, 8, 16}) {
    const topo::FatTree ft(k);
    const auto& hosts = ft.hosts();

    // Eager baseline: the seed's start-up cost.
    auto t0 = clock::now();
    const topo::AllPairsPaths eager(ft.graph());
    const double eager_construct_ms = ms_since(t0);

    // Lazy route setup: engine + 8 establishments' worth of rows.
    t0 = clock::now();
    topo::PathEngine setup_engine(ft.graph());
    Rng rng(42);
    std::uint64_t sink = 0;
    for (int i = 0; i < 8; ++i) {
      const topo::NodeId src = hosts[rng.below(hosts.size())];
      topo::NodeId dst = src;
      while (dst == src) dst = hosts[rng.below(hosts.size())];
      sink += setup_engine.sample_shortest_path(src, dst, rng).size();
    }
    const double lazy_setup_ms = ms_since(t0);
    benchmark::DoNotOptimize(sink);

    // Warm-up, single- vs multi-threaded.
    t0 = clock::now();
    topo::PathEngine warm1(ft.graph());
    warm1.warm_up(hosts, 1);
    const double warmup_t1_ms = ms_since(t0);
    t0 = clock::now();
    topo::PathEngine warm4(ft.graph());
    warm4.warm_up(hosts, 4);
    const double warmup_t4_ms = ms_since(t0);

    // The same warm-up driven the production way: through
    // ControllerConfig::path_warmup_threads on a full Fabric.  Lazy (0)
    // anchors the construction baseline so the warm-up cost is the delta.
    // Gated to k <= 8: a k=16 fabric has 320 switches, past MAGA's 255
    // S_ID limit, so no full MC exists at that scale (only bare engines).
    std::string mc_fields;
    if (k <= 8) {
      const auto fabric_construct_ms = [&](unsigned threads,
                                           std::size_t* rows) {
        FabricOptions options;
        options.k = k;
        options.controller.path_warmup_threads = threads;
        const auto start = clock::now();
        Fabric fabric(options);
        const double ms = ms_since(start);
        *rows = fabric.mc().paths().cached_rows();
        return ms;
      };
      std::size_t rows_lazy = 0, rows_warm1 = 0, rows_warm4 = 0;
      const double mc_lazy_ms = fabric_construct_ms(0, &rows_lazy);
      const double mc_warm1_ms = fabric_construct_ms(1, &rows_warm1);
      const double mc_warm4_ms = fabric_construct_ms(4, &rows_warm4);
      MIC_ASSERT(rows_warm1 == rows_warm4);  // PE-1: thread count invisible
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "\"mc_construct_lazy_ms\":%.3f,"
                    "\"mc_construct_warm1_ms\":%.3f,"
                    "\"mc_construct_warm4_ms\":%.3f,"
                    "\"mc_rows_lazy\":%zu,\"mc_rows_warm\":%zu,",
                    mc_lazy_ms, mc_warm1_ms, mc_warm4_ms, rows_lazy,
                    rows_warm4);
      mc_fields = buf;
    }

    // Failure reroute with a warm cache: epoch bump + requery of 32 active
    // flows' rows (demand-driven: at most 32 BFS runs) versus the seed's
    // full rebuild (one BFS per node plus the O(n^2) matrix).
    const topo::LinkId victim = interior_link(ft);
    topo::PathEngine engine(ft.graph());
    engine.warm_up(hosts, 4);
    const auto flow_dsts = active_flow_dsts(ft, 32);
    const std::uint64_t computed_before = engine.stats().rows_computed;
    t0 = clock::now();
    engine.link_failed(victim);
    sink = requery_flows(engine, ft, flow_dsts);
    const double reroute_lazy_ms = ms_since(t0);
    benchmark::DoNotOptimize(sink);
    const std::uint64_t recomputed =
        engine.stats().rows_computed - computed_before;

    const std::unordered_set<topo::LinkId> failed{victim};
    t0 = clock::now();
    const topo::AllPairsPaths rebuilt(ft.graph(), &failed);
    const double reroute_eager_ms = ms_since(t0);
    benchmark::DoNotOptimize(rebuilt.distance(hosts[0], hosts[1]));

    // Clustered-failure retention: once an edge switch is partitioned off,
    // failing a host link inside the dead region invalidates only the k/2
    // rows whose BFS tree could reach the link -- every other row is
    // retained, which is the sub-linear invalidation path.
    topo::PathEngine clustered(ft.graph());
    const topo::NodeId dead_edge = ft.edge_switches()[0];
    for (const auto& adj : ft.graph().neighbors(dead_edge)) {
      if (ft.graph().is_switch(adj.peer)) clustered.link_failed(adj.link);
    }
    clustered.warm_up(hosts, 4);
    const auto before_local = clustered.stats();
    clustered.link_failed(ft.graph().neighbors(hosts[0])[0].link);
    const std::uint64_t local_invalidated =
        clustered.stats().rows_invalidated - before_local.rows_invalidated;
    const std::uint64_t local_retained =
        clustered.stats().rows_retained - before_local.rows_retained;

    std::printf(
        "%s{\"k\":%d,\"nodes\":%zu,\"hosts\":%zu,"
        "\"eager_construct_ms\":%.3f,\"lazy_setup8_ms\":%.3f,"
        "\"construct_speedup\":%.1f,"
        "\"warmup_ms_threads1\":%.3f,\"warmup_ms_threads4\":%.3f,%s"
        "\"reroute_lazy_ms\":%.3f,\"reroute_eager_ms\":%.3f,"
        "\"reroute_speedup\":%.1f,"
        "\"reroute_rows_recomputed\":%llu,\"reroute_recompute_fraction\":%.3f,"
        "\"local_fail_invalidated\":%llu,\"local_fail_retained\":%llu,"
        "\"local_fail_retained_fraction\":%.3f}",
        first ? "" : ",", k, ft.graph().size(), hosts.size(),
        eager_construct_ms, lazy_setup_ms,
        eager_construct_ms / lazy_setup_ms, warmup_t1_ms, warmup_t4_ms,
        mc_fields.c_str(), reroute_lazy_ms, reroute_eager_ms,
        reroute_eager_ms / reroute_lazy_ms,
        static_cast<unsigned long long>(recomputed),
        static_cast<double>(recomputed) /
            static_cast<double>(ft.graph().size()),
        static_cast<unsigned long long>(local_invalidated),
        static_cast<unsigned long long>(local_retained),
        static_cast<double>(local_retained) /
            static_cast<double>(local_invalidated + local_retained));
    first = false;
  }
  std::printf("]");

  // Establish burst: 32 requests over 4 interleaved destinations, row cap
  // 2 -- small enough that naive request order must thrash.  Uncapped
  // naive anchors the no-pressure baseline.
  constexpr std::size_t kCap = 2;
  const EstablishBurst naive = run_establish_burst(false, kCap);
  const EstablishBurst batched = run_establish_burst(true, kCap);
  const EstablishBurst uncapped = run_establish_burst(false, 0);
  std::printf(
      ",\"establish_batch\":{\"burst\":32,\"destinations\":4,"
      "\"cache_cap\":%zu,"
      "\"naive_ms\":%.3f,\"batched_ms\":%.3f,\"uncapped_ms\":%.3f,"
      "\"naive_rows_computed\":%llu,\"batched_rows_computed\":%llu,"
      "\"uncapped_rows_computed\":%llu,"
      "\"naive_rows_evicted\":%llu,\"batched_rows_evicted\":%llu}",
      kCap, naive.wall_ms, batched.wall_ms, uncapped.wall_ms,
      static_cast<unsigned long long>(naive.rows_computed),
      static_cast<unsigned long long>(batched.rows_computed),
      static_cast<unsigned long long>(uncapped.rows_computed),
      static_cast<unsigned long long>(naive.rows_evicted),
      static_cast<unsigned long long>(batched.rows_evicted));
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--sweep_json") == 0) {
    return run_sweep_json();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
