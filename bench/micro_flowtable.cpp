// Micro-benchmark: flow-table lookup cost vs rule count, tuple-space
// lookup vs the reference linear scan, and the install / remove cost of
// the table's mutation path (google-benchmark).
//
// Two rule mixes.  The exact mix is shaped like the Mimic Controller's
// m-flow rewrites: fully specified <in_port, src, dst, sport, dport, mpls>
// matches, the load that scales with channel count, plus a low-priority
// catch-all.  The L3 mix is what the default routing installs on an edge
// switch: a transit route per destination plus per-host-port ingress
// classifiers.  Lookups cycle over packets that hit distinct rules, so the
// scan pays its average-depth cost instead of always winning on rule 0;
// the L3 lookups send every destination one untagged packet from a host
// port and one CF-tagged packet from an uplink, as common flows cross an
// edge switch.  The install series add the same exact rules (four per
// cookie, like one channel's rules at a switch) and the L3 rules.
//
//   micro_flowtable               # google-benchmark tables
//   micro_flowtable --sweep_json  # machine-readable sweep for the bench
//                                 # trajectory: one JSON object on stdout
//   micro_flowtable --max_install_growth X
//                                 # guard: exit 1 when, at 4096 rules, the
//                                 # per-rule exact install cost, the
//                                 # per-rule L3 fill cost or the L3 lookup
//                                 # cost exceeds X times its cost at 64
//                                 # rules
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
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
    benchmark::DoNotOptimize(bench.table.lookup(p, 0));
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
    benchmark::DoNotOptimize(bench.table.lookup(packet, 0));
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
      ingress.match.mpls = mic::net::kNoMpls;
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

/// An L3 table of `rules` rules from l3_rules() plus the common-flow
/// packets that cross it: for every destination an untagged packet from a
/// host port and a CF-tagged packet from an uplink.
struct L3Bench {
  FlowTable table;
  std::vector<std::pair<mic::net::Packet, mic::topo::PortId>> packets;
};

L3Bench build_l3_table(int rules) {
  L3Bench bench;
  std::vector<mic::net::Ipv4> destinations;
  for (FlowRule& rule : l3_rules(rules)) {
    if (!rule.match.in_port) destinations.push_back(*rule.match.dst);
    install_or_die(bench.table, std::move(rule));
  }
  for (std::size_t i = 0; i < destinations.size(); ++i) {
    mic::net::Packet packet;
    packet.src = mic::net::Ipv4(10, 255, 0, 1);
    packet.dst = destinations[i];
    packet.sport = static_cast<mic::net::L4Port>(40000 + i);
    packet.dport = 80;
    packet.tcp.payload_len = 64;
    const auto host_port = static_cast<mic::topo::PortId>(i % 4);
    bench.packets.emplace_back(packet, host_port);
    packet.mpls = 7;
    bench.packets.emplace_back(packet,
                               static_cast<mic::topo::PortId>(4 + host_port));
  }
  return bench;
}

void BM_FlowTableLookupL3(benchmark::State& state) {
  L3Bench bench = build_l3_table(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [packet, in_port] = bench.packets[i++ % bench.packets.size()];
    benchmark::DoNotOptimize(bench.table.lookup(packet, in_port));
  }
  state.counters["misses"] =
      static_cast<double>(bench.table.stats().misses);
}
BENCHMARK(BM_FlowTableLookupL3)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

/// Mean cost of one lookup in `bench`'s table over `lookups` lookups that
/// cycle through its packets, through lookup() or the reference scan.
/// Best of `trials`.
double measure_l3_lookup(L3Bench& bench, int lookups, int trials,
                         bool reference) {
  double best = 1e300;
  for (int trial = 0; trial < trials; ++trial) {
    std::size_t next = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < lookups; ++i) {
      const auto& [packet, in_port] = bench.packets[next];
      if (reference) {
        benchmark::DoNotOptimize(
            bench.table.reference_lookup(packet, in_port));
      } else {
        benchmark::DoNotOptimize(bench.table.lookup(packet, in_port));
      }
      if (++next == bench.packets.size()) next = 0;
    }
    best = std::min(best, ns_between(t0, Clock::now()) / lookups);
  }
  return best;
}

constexpr int kMutationSizes[] = {64, 256, 1024, 4096};

/// Perf-regression guard for scripts/check.sh: no per-rule cost may grow
/// with the table.  At 4096 rules, the per-rule exact install cost (under
/// steady cookie churn), the per-rule cost of filling an L3 table and the
/// cost of an L3 lookup may each be at most `max_growth` times its cost at
/// 64 rules.  An O(table) install or lookup makes it ~20-64x.
int run_max_install_growth(double max_growth) {
  constexpr int kTrials = 15;
  constexpr int kLookups = 200000;
  const int small = kMutationSizes[0];
  const int large = kMutationSizes[3];
  L3Bench small_l3 = build_l3_table(small);
  L3Bench large_l3 = build_l3_table(large);
  struct Guard {
    const char* what;
    const char* unit;
    std::function<double(bool at_large)> time_once;  // one timing
    double small_ns = 1e300;
    double large_ns = 1e300;
  };
  Guard guards[] = {
      {"exact install", "ns/rule",
       [&](bool at_large) {
         return measure_churn(at_large ? large : small, 1).install_ns;
       }},
      {"L3 fill", "ns/rule",
       [&](bool at_large) {
         return measure_l3_fill(at_large ? large : small, 1);
       }},
      {"L3 lookup", "ns/lookup",
       [&](bool at_large) {
         return measure_l3_lookup(at_large ? large_l3 : small_l3, kLookups, 1,
                                  false);
       }},
  };
  // Each trial times both sizes back to back, and each side keeps its best
  // over all trials: a slow spell of a shared host then has to span most
  // of the run to move a ratio, instead of one size's block of trials.
  for (int trial = 0; trial < kTrials; ++trial) {
    for (Guard& guard : guards) {
      guard.small_ns = std::min(guard.small_ns, guard.time_once(false));
      guard.large_ns = std::min(guard.large_ns, guard.time_once(true));
    }
  }
  int status = 0;
  for (const Guard& guard : guards) {
    const double growth = guard.large_ns / guard.small_ns;
    std::printf("%s: %.1f %s at %d rules, %.1f %s at %d rules: %.2fx\n",
                guard.what, guard.small_ns, guard.unit, small, guard.large_ns,
                guard.unit, large, growth);
    if (growth > max_growth) {
      std::fprintf(stderr, "%s cost growth %.2fx above allowed %.2fx\n",
                   guard.what, growth, max_growth);
      status = 1;
    }
  }
  return status;
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
      sink = bench.table.lookup(p, 0);
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
  // L3 path: common-flow lookups over L3-shaped tables, tuple space vs the
  // reference scan.  A flat ns_per_lookup column means lookups do not grow
  // with the rule count.
  std::printf("],\"l3_series\":[");
  first = true;
  for (const int rules : kMutationSizes) {
    L3Bench bench = build_l3_table(rules);
    const double ref_ns = measure_l3_lookup(bench, kLookups / 10, 1, true);
    const double ns = measure_l3_lookup(bench, kLookups, 3, false);
    const TableStats& stats = bench.table.stats();
    std::printf("%s{\"rules\":%d,\"packets\":%zu,"
                "\"reference_ns_per_lookup\":%.2f,\"ns_per_lookup\":%.2f,"
                "\"speedup\":%.2f,\"lookups\":%llu,\"index_hits\":%llu,"
                "\"scan_fallbacks\":%llu,\"misses\":%llu}",
                first ? "" : ",", rules, bench.packets.size(), ref_ns, ns,
                ref_ns / ns, static_cast<unsigned long long>(stats.lookups),
                static_cast<unsigned long long>(stats.index_hits),
                static_cast<unsigned long long>(stats.scan_fallbacks),
                static_cast<unsigned long long>(stats.misses));
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
