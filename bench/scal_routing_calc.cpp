// Scalability of the MC's routing calculation (paper Sec VI-C): the claim
// is O(|F|) per channel with near-zero overhead versus TCP.  Measures real
// wall time of MimicController::establish for varying F, N and topology
// size, plus the route-table story behind it: eager all-pairs
// precomputation (the retained AllPairsPaths oracle -- the seed behaviour)
// versus the lazy PathEngine (per-destination BFS rows on demand, epoch
// invalidation on failure).
//
//   scal_routing_calc               # google-benchmark tables
//   scal_routing_calc --sweep_json  # machine-readable fat-tree sweep for
//                                   # the bench trajectory (BENCH_routing.json)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/fabric.hpp"
#include "provenance.hpp"
#include "support/paths.hpp"
#include "topology/fattree.hpp"
#include "topology/path_engine.hpp"

namespace {

using namespace mic;
using core::EstablishRequest;
using core::Fabric;
using core::FabricOptions;

/// The establish benches call MimicController::establish back to back in
/// zero simulated time, so the per-tenant token buckets never refill: with
/// the default burst, all but the first burst would be shed as Busy and
/// the bench would time the shedding fast path.  No run can drain an
/// unbounded bucket, and every iteration must establish.
FabricOptions establish_options(int k) {
  FabricOptions options;
  options.k = k;
  options.mic.admission.tenant_burst =
      std::numeric_limits<double>::infinity();
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

void BM_McConstruction(benchmark::State& state) {
  // Full Fabric construction per fat-tree k: the MC, its lazy path engine
  // and L3 default routing, which queries every host row.  k=8 is the
  // largest fabric an MC can drive (MAGA's 255-S_ID limit).  Tearing the
  // fabric down is not construction, so it runs outside the timer.
  FabricOptions options;
  options.k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto fabric = std::make_unique<Fabric>(options);
    benchmark::DoNotOptimize(fabric->mc().paths().cached_rows());
    state.PauseTiming();
    fabric.reset();
    state.ResumeTiming();
  }
  state.counters["rows_cached"] = static_cast<double>(
      Fabric(options).mc().paths().cached_rows());
}
BENCHMARK(BM_McConstruction)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// Cache every host row by querying it.
void query_host_rows(const topo::PathEngine& engine,
                     const topo::FatTree& ft) {
  for (const topo::NodeId host : ft.hosts()) {
    benchmark::DoNotOptimize(engine.distance(host, host));
  }
}

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
/// invalidation pass is O(cached rows), after which only these rows are
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
  query_host_rows(engine, ft);
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
    query_host_rows(engine, ft);  // refill outside the timer
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

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Self-timed sweep, one JSON object on stdout: eager (seed baseline)
/// versus lazy construction and failure-reroute cost over growing
/// fat-trees, plus the engine's own row accounting so the sub-linear
/// invalidation is auditable.
int run_sweep_json() {
  using clock = std::chrono::steady_clock;
  const auto ms_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };

  std::printf("{\"bench\":\"scal_routing_calc\",\"series\":[");
  bool first = true;
  for (const int k : {4, 8, 16}) {
    // Full MC construction (default routing queries every host row), and
    // the default routing alone, each the median of kMcBuilds builds after
    // one untimed warm-up build.  They run before this k's eager table and
    // engines below exist, so no other structure of the sweep shares the
    // heap with them, and the fabrics are destroyed outside the timer.
    // Gated to k <= 8: a k=16 fabric has 320 switches, past MAGA's 255
    // S_ID limit, so no full MC exists at that scale (only bare engines).
    std::string mc_fields;
    if (k <= 8) {
      constexpr int kMcBuilds = 11;
      FabricOptions options;
      options.k = k;
      {
        const Fabric warm_up(options);
      }
      std::vector<double> construct_ms, routing_ms;
      std::size_t rows_cached = 0;
      for (int build = 0; build < kMcBuilds; ++build) {
        const auto t0 = clock::now();
        auto fabric = std::make_unique<Fabric>(options);
        construct_ms.push_back(ms_since(t0));
        rows_cached = fabric->mc().paths().cached_rows();
      }
      FabricOptions bare = options;
      bare.install_default_routing = false;
      for (int build = 0; build < kMcBuilds; ++build) {
        auto fabric = std::make_unique<Fabric>(bare);
        const auto t0 = clock::now();
        fabric->mc().install_default_routing();
        routing_ms.push_back(ms_since(t0));
      }
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"mc_construct_ms\":%.3f,\"mc_default_routing_ms\":%.3f,"
                    "\"mc_rows_cached\":%zu,",
                    median(construct_ms), median(routing_ms), rows_cached);
      mc_fields = buf;
    }

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

    // Failure reroute with a warm cache: invalidation + requery of 32 active
    // flows' rows (demand-driven: at most 32 BFS runs) versus the seed's
    // full rebuild (one BFS per node plus the O(n^2) matrix).
    const topo::LinkId victim = interior_link(ft);
    topo::PathEngine engine(ft.graph());
    query_host_rows(engine, ft);
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
    query_host_rows(clustered, ft);
    const auto before_local = clustered.stats();
    clustered.link_failed(ft.graph().neighbors(hosts[0])[0].link);
    const std::uint64_t local_invalidated =
        clustered.stats().rows_invalidated - before_local.rows_invalidated;
    const std::uint64_t local_retained =
        clustered.stats().rows_retained - before_local.rows_retained;

    std::printf(
        "%s{\"k\":%d,\"nodes\":%zu,\"hosts\":%zu,"
        "\"eager_construct_ms\":%.3f,\"lazy_setup8_ms\":%.3f,"
        "\"construct_speedup\":%.1f,%s"
        "\"reroute_lazy_ms\":%.3f,\"reroute_eager_ms\":%.3f,"
        "\"reroute_speedup\":%.1f,"
        "\"reroute_rows_recomputed\":%llu,\"reroute_recompute_fraction\":%.3f,"
        "\"local_fail_invalidated\":%llu,\"local_fail_retained\":%llu,"
        "\"local_fail_retained_fraction\":%.3f}",
        first ? "" : ",", k, ft.graph().size(), hosts.size(),
        eager_construct_ms, lazy_setup_ms,
        eager_construct_ms / lazy_setup_ms, mc_fields.c_str(),
        reroute_lazy_ms, reroute_eager_ms,
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
  std::printf("],");
  mic::bench::write_provenance(stdout);
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
