// Micro-benchmark: flow-table lookup cost vs rule count, two-tier
// exact-match index vs the reference linear scan, and the install / remove
// cost of the table's mutation path (google-benchmark).
//
// Rules are shaped like the Mimic Controller's m-flow rewrites: fully
// specified <in_port, src, dst, sport, dport, mpls> matches, the load that
// scales with channel count, plus a low-priority wildcard catch-all like
// the L3 tier.  Lookups cycle over packets that hit distinct rules, so the
// scan pays its average-depth cost instead of always winning on rule 0.
// The install series add the same exact rules (four per cookie, like one
// channel's rules at a switch) and L3-shaped wildcard rules (a transit
// route per destination plus per-host ingress classifiers).
//
//   micro_flowtable               # google-benchmark tables
//   micro_flowtable --sweep_json  # machine-readable sweep for the bench
//                                 # trajectory: one JSON object on stdout
//   micro_flowtable --max_install_growth X
//                                 # guard: exit 1 when the per-rule exact
//                                 # install cost at 4096 rules exceeds X
//                                 # times the cost at 64 rules
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "switchd/flow_table.hpp"

namespace {

using namespace mic::switchd;

struct BenchTable {
  FlowTable table;
  std::vector<mic::net::Packet> packets;  // packets[i] hits rule i exactly
};

BenchTable build_exact_table(int rules, mic::Rng& rng) {
  BenchTable bench;
  for (int i = 0; i < rules; ++i) {
    FlowRule rule;
    rule.priority = 100;
    rule.match.in_port = 0;
    rule.match.src = mic::net::Ipv4{static_cast<std::uint32_t>(rng.next())};
    rule.match.dst = mic::net::Ipv4{static_cast<std::uint32_t>(rng.next())};
    rule.match.sport = static_cast<mic::net::L4Port>(rng.next());
    rule.match.dport = static_cast<mic::net::L4Port>(rng.next());
    rule.match.mpls = static_cast<std::uint32_t>(rng.next()) | 1;
    rule.actions = {Output{1}};

    mic::net::Packet packet;
    packet.src = *rule.match.src;
    packet.dst = *rule.match.dst;
    packet.sport = *rule.match.sport;
    packet.dport = *rule.match.dport;
    packet.mpls = *rule.match.mpls;
    packet.tcp.payload_len = 64;
    if (bench.table.add_rule(std::move(rule))) {
      bench.packets.push_back(packet);
    }
  }
  // The low-priority wildcard tier underneath (L3-style catch-all).
  FlowRule fallback;
  fallback.priority = 1;
  fallback.actions = {Output{0}};
  bench.table.add_rule(std::move(fallback));
  return bench;
}

void BM_FlowTableLookupIndexed(benchmark::State& state) {
  mic::Rng rng(7);
  BenchTable bench = build_exact_table(static_cast<int>(state.range(0)), rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = bench.packets[i++ % bench.packets.size()];
    benchmark::DoNotOptimize(bench.table.lookup(p, 0, p.wire_bytes()));
  }
  state.counters["index_hits"] =
      static_cast<double>(bench.table.stats().index_hits);
  state.counters["scan_fallbacks"] =
      static_cast<double>(bench.table.stats().scan_fallbacks);
}
BENCHMARK(BM_FlowTableLookupIndexed)->Arg(16)->Arg(256)->Arg(4096);

void BM_FlowTableLookupReference(benchmark::State& state) {
  mic::Rng rng(7);
  BenchTable bench = build_exact_table(static_cast<int>(state.range(0)), rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = bench.packets[i++ % bench.packets.size()];
    benchmark::DoNotOptimize(bench.table.reference_lookup(p, 0));
  }
}
BENCHMARK(BM_FlowTableLookupReference)->Arg(16)->Arg(256)->Arg(4096);

void BM_FlowTableLookupMissToWildcard(benchmark::State& state) {
  // The worst case for the two-tier design: index miss, then the wildcard
  // scan serves the catch-all.  Stays O(wildcard rules), not O(all rules).
  mic::Rng rng(7);
  BenchTable bench = build_exact_table(static_cast<int>(state.range(0)), rng);
  mic::net::Packet packet;
  packet.src = mic::net::Ipv4(10, 0, 0, 1);
  packet.dst = mic::net::Ipv4(10, 0, 0, 2);
  packet.tcp.payload_len = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.table.lookup(packet, 0,
                                                packet.wire_bytes()));
  }
}
BENCHMARK(BM_FlowTableLookupMissToWildcard)->Arg(16)->Arg(256)->Arg(4096);

void BM_FlowTableInstall(benchmark::State& state) {
  mic::Rng rng(8);
  for (auto _ : state) {
    state.PauseTiming();
    FlowTable table;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      FlowRule rule;
      rule.priority = static_cast<std::uint16_t>(rng.below(200));
      rule.match.mpls = static_cast<std::uint32_t>(rng.next()) | 1;
      rule.actions = {Output{1}};
      benchmark::DoNotOptimize(table.add_rule(std::move(rule)));
    }
  }
}
BENCHMARK(BM_FlowTableInstall)->Arg(64)->Arg(256);

/// Channel rules at one switch share a cookie; the exact series groups
/// four consecutive rules per cookie.
constexpr int kRulesPerCookie = 4;

/// `count` distinct MIC-shaped exact rules at the m-flow priority.
std::vector<FlowRule> exact_rules(int count) {
  mic::Rng rng(9);
  std::vector<FlowRule> rules;
  for (int i = 0; i < count; ++i) {
    FlowRule rule;
    rule.priority = 100;
    rule.match.in_port = static_cast<mic::topo::PortId>(rng.below(4));
    rule.match.src = mic::net::Ipv4{static_cast<std::uint32_t>(rng.next())};
    rule.match.dst = mic::net::Ipv4{static_cast<std::uint32_t>(rng.next())};
    rule.match.sport = static_cast<mic::net::L4Port>(rng.next());
    rule.match.dport = static_cast<mic::net::L4Port>(rng.next());
    rule.match.mpls = static_cast<std::uint32_t>(rng.next()) | 1;
    rule.actions = {SetSrc{*rule.match.dst}, Output{1}};
    rule.cookie = 1 + static_cast<std::uint64_t>(i / kRulesPerCookie);
    rules.push_back(std::move(rule));
  }
  return rules;
}

/// `count` L3-shaped wildcard rules, as the default routing installs them
/// on an edge switch: per destination a transit route on dst alone, then
/// one ingress classifier per attached host port (in_port, dst, untagged).
std::vector<FlowRule> l3_rules(int count) {
  std::vector<FlowRule> rules;
  for (std::uint32_t dst = 0; static_cast<int>(rules.size()) < count; ++dst) {
    const mic::net::Ipv4 ip{0x0a000000u + dst};
    FlowRule transit;
    transit.priority = 20;
    transit.match.dst = ip;
    transit.actions = {Output{static_cast<mic::topo::PortId>(4 + dst % 4)}};
    rules.push_back(std::move(transit));
    for (mic::topo::PortId port = 0;
         port < 4 && static_cast<int>(rules.size()) < count; ++port) {
      FlowRule ingress;
      ingress.priority = 25;
      ingress.match.in_port = port;
      ingress.match.dst = ip;
      ingress.match.require_no_mpls = true;
      ingress.actions = {SetMpls{7}, Output{4}};
      rules.push_back(std::move(ingress));
    }
  }
  return rules;
}

/// Install every rule of `rules` (copied outside the timer) into a fresh
/// table, timing only the add_rule calls.
void install_series(benchmark::State& state,
                    const std::vector<FlowRule>& rules) {
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<FlowRule> batch = rules;
    auto table = std::make_unique<FlowTable>();
    state.ResumeTiming();
    for (FlowRule& rule : batch) {
      if (!table->add_rule(std::move(rule))) {
        state.SkipWithError("install rejected");
        return;
      }
    }
    state.PauseTiming();
    table.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rules.size()));
}

void BM_FlowTableInstallExact(benchmark::State& state) {
  install_series(state, exact_rules(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FlowTableInstallExact)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FlowTableInstallWildcard(benchmark::State& state) {
  install_series(state, l3_rules(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FlowTableInstallWildcard)
    ->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FlowTableRemoveByCookie(benchmark::State& state) {
  // Tear a full table of exact rules down one cookie (one channel's rules)
  // at a time; only the removals are timed.
  const std::vector<FlowRule> rules =
      exact_rules(static_cast<int>(state.range(0)));
  const std::uint64_t cookies = rules.back().cookie;
  for (auto _ : state) {
    state.PauseTiming();
    auto table = std::make_unique<FlowTable>();
    for (const FlowRule& rule : rules) table->add_rule(rule);
    state.ResumeTiming();
    for (std::uint64_t cookie = 1; cookie <= cookies; ++cookie) {
      benchmark::DoNotOptimize(table->remove_by_cookie(cookie));
    }
    state.PauseTiming();
    if (table->rule_count() != 0) state.SkipWithError("rules left behind");
    table.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rules.size()));
}
BENCHMARK(BM_FlowTableRemoveByCookie)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

using Clock = std::chrono::steady_clock;

struct MutationCost {
  double install_ns = 0.0;  // per rule
  double remove_ns = 0.0;   // per rule
};

double ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

void install_or_die(FlowTable& table, FlowRule rule) {
  if (!table.add_rule(std::move(rule))) {
    std::fprintf(stderr, "micro_flowtable: install rejected\n");
    std::exit(1);
  }
}

/// Per-rule cost of an exact-rule install and removal in a table that
/// holds `size` rules: each cycle removes the oldest cookie's rules and
/// installs a fresh cookie's, so the table keeps its size (a channel
/// teardown and establish at one switch).  Installs and removals are timed
/// apart; best of `trials` timings of 4096 cycles each.
MutationCost measure_churn(int size, int trials) {
  constexpr int kCycles = 4096;
  const std::vector<FlowRule> rules =
      exact_rules(size + kCycles * kRulesPerCookie);
  MutationCost best{1e300, 1e300};
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<FlowRule> batch = rules;
    FlowTable table;
    for (int i = 0; i < size; ++i) install_or_die(table, std::move(batch[i]));
    double install = 0.0;
    double remove = 0.0;
    std::uint64_t oldest = 1;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const auto t0 = Clock::now();
      benchmark::DoNotOptimize(table.remove_by_cookie(oldest++));
      const auto t1 = Clock::now();
      for (int r = 0; r < kRulesPerCookie; ++r) {
        install_or_die(table,
                       std::move(batch[size + cycle * kRulesPerCookie + r]));
      }
      const auto t2 = Clock::now();
      remove += ns_between(t0, t1);
      install += ns_between(t1, t2);
    }
    if (table.rule_count() != static_cast<std::size_t>(size)) {
      std::fprintf(stderr, "micro_flowtable: churn changed the table size\n");
      std::exit(1);
    }
    const double per_rule = kCycles * kRulesPerCookie;
    best.install_ns = std::min(best.install_ns, install / per_rule);
    best.remove_ns = std::min(best.remove_ns, remove / per_rule);
  }
  return best;
}

/// Per-rule cost of filling an empty table with L3-shaped wildcard rules,
/// the way the default routing fills a switch.  Best of `trials`.
double measure_l3_fill(int size, int trials) {
  const std::vector<FlowRule> rules = l3_rules(size);
  // Enough tables per timing that each one covers ~64k installs.
  const int reps = std::max(1, 65536 / size);
  double best = 1e300;
  for (int trial = 0; trial < trials; ++trial) {
    double total = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<FlowRule> batch = rules;
      FlowTable table;
      const auto t0 = Clock::now();
      for (FlowRule& rule : batch) install_or_die(table, std::move(rule));
      total += ns_between(t0, Clock::now());
    }
    best = std::min(best, total / (static_cast<double>(reps) * size));
  }
  return best;
}

constexpr int kMutationSizes[] = {64, 256, 1024, 4096};

/// Perf-regression guard for scripts/check.sh: an exact-rule install must
/// not grow with the table.  The per-rule install cost in a table of 4096
/// rules may be at most `max_growth` times the cost at 64 rules (an
/// O(table) install makes it ~64x).
int run_max_install_growth(double max_growth) {
  constexpr int kTrials = 5;
  const double small = measure_churn(kMutationSizes[0], kTrials).install_ns;
  const double large = measure_churn(kMutationSizes[3], kTrials).install_ns;
  const double growth = large / small;
  std::printf("exact install: %.1f ns/rule at %d rules, %.1f ns/rule at %d "
              "rules: %.2fx\n",
              small, kMutationSizes[0], large, kMutationSizes[3], growth);
  if (growth > max_growth) {
    std::fprintf(stderr, "install cost growth %.2fx above allowed %.2fx\n",
                 growth, max_growth);
    return 1;
  }
  return 0;
}

/// Self-timed sweep, one JSON object on stdout: rule-count trajectory of
/// indexed vs reference lookup cost and the resulting speedup, plus the
/// table's own stats counters so the fast-path share is auditable.
int run_sweep_json() {
  constexpr int kRuleCounts[] = {16, 256, 4096};
  constexpr int kLookups = 200000;
  using clock = std::chrono::steady_clock;

  std::printf("{\"bench\":\"micro_flowtable\",\"lookups_per_point\":%d,"
              "\"series\":[",
              kLookups);
  bool first = true;
  for (const int rules : kRuleCounts) {
    mic::Rng rng(7);
    BenchTable bench = build_exact_table(rules, rng);

    const FlowRule* sink = nullptr;
    auto t0 = clock::now();
    for (int i = 0; i < kLookups; ++i) {
      const auto& p = bench.packets[static_cast<std::size_t>(i) %
                                    bench.packets.size()];
      sink = bench.table.reference_lookup(p, 0);
      benchmark::DoNotOptimize(sink);
    }
    const double ref_ns =
        std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
        kLookups;

    t0 = clock::now();
    for (int i = 0; i < kLookups; ++i) {
      const auto& p = bench.packets[static_cast<std::size_t>(i) %
                                    bench.packets.size()];
      sink = bench.table.lookup(p, 0, p.wire_bytes());
      benchmark::DoNotOptimize(sink);
    }
    const double idx_ns =
        std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
        kLookups;

    const TableStats& stats = bench.table.stats();
    std::printf("%s{\"rules\":%d,\"indexed_rules\":%zu,"
                "\"reference_ns_per_lookup\":%.2f,"
                "\"indexed_ns_per_lookup\":%.2f,\"speedup\":%.2f,"
                "\"lookups\":%llu,\"index_hits\":%llu,"
                "\"scan_fallbacks\":%llu,\"misses\":%llu}",
                first ? "" : ",", rules, bench.table.indexed_rule_count(),
                ref_ns, idx_ns, ref_ns / idx_ns,
                static_cast<unsigned long long>(stats.lookups),
                static_cast<unsigned long long>(stats.index_hits),
                static_cast<unsigned long long>(stats.scan_fallbacks),
                static_cast<unsigned long long>(stats.misses));
    first = false;
  }
  // Mutation path: per-rule cost of exact installs and cookie removals in
  // a table holding `rules` rules (steady channel churn), and of filling
  // an empty table with L3-shaped wildcard rules.  Flat exact columns mean
  // O(1) installs and removals.
  std::printf("],\"mutation_series\":[");
  first = true;
  for (const int rules : kMutationSizes) {
    const MutationCost exact = measure_churn(rules, 3);
    std::printf("%s{\"rules\":%d,\"exact_install_ns_per_rule\":%.2f,"
                "\"remove_ns_per_rule\":%.2f,"
                "\"wildcard_install_ns_per_rule\":%.2f}",
                first ? "" : ",", rules, exact.install_ns, exact.remove_ns,
                measure_l3_fill(rules, 3));
    first = false;
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--sweep_json") == 0) {
    return run_sweep_json();
  }
  if (argc > 2 && std::strcmp(argv[1], "--max_install_growth") == 0) {
    return run_max_install_growth(std::atof(argv[2]));
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
