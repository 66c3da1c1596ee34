// Differential harness for the tuple-space flow table (invariant FT-1).
//
// The per-shape subtables are a pure optimization: for every packet the
// tuple-space lookup() must return the identical rule object as the
// retained reference linear scan.  A subtly wrong fast path would not
// crash -- it would silently re-route m-flows and corrupt every anonymity
// measurement downstream -- so we fuzz it: thousands of seeded random (rule
// set, packet stream) pairs mixing exact rules, partial wildcards,
// overlapping priorities, repeated matches (which the table refuses), and
// mid-stream rule removal, asserting pointer-identical results throughout.
//
// The table is maintained incrementally (stable slots, rank order, one rule
// per shape and key), so the second half of this file also checks it from
// outside against a naive model that knows only install order:
// duplicate-match rejection, the rules() order, every lookup's winner, slot
// reuse after mass removal, promotion across shapes and clear() -- on
// random tables and on tables shaped like the ones the default routing and
// the Mimic Controller install.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "switchd/flow_table.hpp"

namespace mic::switchd {
namespace {

// Small value pools so that rules overlap each other and packets actually
// hit rules; a generator over the full 32-bit spaces would only ever
// exercise the miss path.
constexpr net::Ipv4 kIps[] = {{10, 0, 0, 1}, {10, 0, 0, 2}, {10, 0, 0, 3},
                              {10, 1, 0, 1}, {10, 1, 0, 2}, {192, 168, 0, 1}};
constexpr net::L4Port kPorts[] = {80, 443, 7000, 30000};
constexpr net::MplsLabel kLabels[] = {3, 77, 0xabcd, 0x00050001};
constexpr topo::PortId kInPorts[] = {0, 1, 2};
// Repeated values force priority ties (resolved by install order) and
// cross-tier ties between exact and wildcard rules.
constexpr std::uint16_t kPriorities[] = {10, 20, 25, 30, 100, 100, 110, 110};

template <typename T, std::size_t N>
const T& pick(Rng& rng, const T (&pool)[N]) {
  return pool[rng.below(N)];
}

Match random_exact_match(Rng& rng) {
  Match m;
  m.in_port = pick(rng, kInPorts);
  m.src = pick(rng, kIps);
  m.dst = pick(rng, kIps);
  m.sport = pick(rng, kPorts);
  m.dport = pick(rng, kPorts);
  // Pinned to "untagged" (label 0) like a first-segment rule, or labelled.
  m.mpls = rng.chance(0.3) ? net::kNoMpls : pick(rng, kLabels);
  return m;
}

Match random_wildcard_match(Rng& rng) {
  Match m;
  if (rng.chance(0.4)) m.in_port = pick(rng, kInPorts);
  if (rng.chance(0.5)) m.src = pick(rng, kIps);
  if (rng.chance(0.5)) m.dst = pick(rng, kIps);
  if (rng.chance(0.3)) m.sport = pick(rng, kPorts);
  if (rng.chance(0.3)) m.dport = pick(rng, kPorts);
  if (rng.chance(0.25)) m.mpls = pick(rng, kLabels);
  if (rng.chance(0.2)) m.mpls = net::kNoMpls;  // untagged only
  return m;
}

FlowTable random_table(Rng& rng, std::size_t rule_target) {
  FlowTable table;
  for (std::size_t i = 0; i < rule_target; ++i) {
    FlowRule rule;
    rule.priority = pick(rng, kPriorities);
    // Bias toward exact rules, mirroring a loaded MN where m-flow rewrite
    // rules dwarf the static L3 wildcards.
    rule.match = rng.chance(0.7) ? random_exact_match(rng)
                                 : random_wildcard_match(rng);
    rule.actions = {Output{static_cast<topo::PortId>(rng.below(4))}};
    rule.cookie = rng.range(1, 4);
    table.add_rule(std::move(rule));  // a repeated match is rejected
  }
  return table;
}

net::Packet random_packet(Rng& rng) {
  net::Packet p;
  // Mostly pool values (hit exact rules); occasionally stray values that
  // can only hit wildcards or miss.
  p.src = rng.chance(0.9) ? pick(rng, kIps)
                          : net::Ipv4{static_cast<std::uint32_t>(rng.next())};
  p.dst = rng.chance(0.9) ? pick(rng, kIps)
                          : net::Ipv4{static_cast<std::uint32_t>(rng.next())};
  p.sport = rng.chance(0.9) ? pick(rng, kPorts)
                            : static_cast<net::L4Port>(rng.next());
  p.dport = rng.chance(0.9) ? pick(rng, kPorts)
                            : static_cast<net::L4Port>(rng.next());
  if (rng.chance(0.6)) p.mpls = pick(rng, kLabels);
  p.tcp.payload_len = static_cast<std::uint32_t>(rng.below(1461));
  return p;
}

/// One lookup checked against the oracle.  Returns the number of cases
/// exercised (always 1; kept explicit for the tally).
std::size_t check_one(FlowTable& table, Rng& rng) {
  const net::Packet packet = random_packet(rng);
  const topo::PortId in_port = pick(rng, kInPorts);
  const FlowRule* expected = table.reference_lookup(packet, in_port);
  const FlowRule* actual = table.lookup(packet, in_port);
  EXPECT_EQ(actual, expected)
      << "two-tier lookup diverged from the reference scan (rules="
      << table.rule_count() << ", indexed=" << table.indexed_rule_count()
      << ")";
  return 1;
}

TEST(FlowTableDifferential, IndexedLookupEqualsReferenceScan) {
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed * 0x9e3779b9ULL + 7);
    FlowTable table = random_table(rng, rng.range(1, 64));
    for (int i = 0; i < 128; ++i) cases += check_one(table, rng);
    const TableStats& s = table.stats();
    EXPECT_EQ(s.lookups, s.index_hits + s.scan_fallbacks + s.misses);
  }
  // The acceptance bar: thousands of randomized cases, zero divergence.
  EXPECT_GE(cases, 5000u);
}

TEST(FlowTableDifferential, AgreementSurvivesRuleChurn) {
  // Install / lookup / remove-by-cookie cycles: the index must be rebuilt
  // consistently after every mutation, including ones that remove rules
  // shadowing lower-priority rules of other shapes.
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed * 0x51ed2701ULL + 3);
    FlowTable table = random_table(rng, 32);
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 24; ++i) cases += check_one(table, rng);
      table.remove_by_cookie(rng.range(1, 4));
      for (int i = 0; i < 8; ++i) {
        FlowRule rule;
        rule.priority = pick(rng, kPriorities);
        rule.match = rng.chance(0.7) ? random_exact_match(rng)
                                     : random_wildcard_match(rng);
        rule.actions = {Output{0}};
        rule.cookie = rng.range(1, 4);
        table.add_rule(std::move(rule));
      }
    }
    for (int i = 0; i < 24; ++i) cases += check_one(table, rng);
  }
  EXPECT_GE(cases, 3000u);
}

TEST(FlowTableDifferential, EmptyAndWildcardOnlyTables) {
  Rng rng(99);
  FlowTable empty;
  for (int i = 0; i < 64; ++i) check_one(empty, rng);
  EXPECT_EQ(empty.stats().misses, empty.stats().lookups);

  FlowTable wildcards;
  for (int i = 0; i < 16; ++i) {
    FlowRule rule;
    rule.priority = pick(rng, kPriorities);
    rule.match = random_wildcard_match(rng);
    rule.actions = {Output{0}};
    wildcards.add_rule(std::move(rule));
  }
  EXPECT_EQ(wildcards.indexed_rule_count(), 0u);
  for (int i = 0; i < 256; ++i) check_one(wildcards, rng);
  EXPECT_EQ(wildcards.stats().index_hits, 0u);
}

TEST(FlowTableDifferential, SameMatchAtAnotherPriorityIsRejected) {
  // A table holds one rule per match: a second exact rule with an installed
  // match is refused at a higher priority and at a lower one, and the
  // installed rule keeps serving.  Once it leaves, the match is free again.
  FlowTable table;
  Rng rng(1);
  FlowRule installed;
  installed.priority = 100;
  installed.cookie = 1;
  installed.match = random_exact_match(rng);
  ASSERT_TRUE(table.add_rule(installed));

  net::Packet p;
  p.src = *installed.match.src;
  p.dst = *installed.match.dst;
  p.sport = *installed.match.sport;
  p.dport = *installed.match.dport;
  p.mpls = *installed.match.mpls;
  const topo::PortId in = *installed.match.in_port;

  for (const int priority : {120, 50}) {
    FlowRule again = installed;
    again.priority = static_cast<std::uint16_t>(priority);
    again.cookie = 2;
    EXPECT_FALSE(table.add_rule(again)) << "priority " << priority;
  }
  EXPECT_EQ(table.rule_count(), 1u);
  EXPECT_FALSE(table.has_cookie(2));
  const FlowRule* hit = table.lookup(p, in);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 1u);
  EXPECT_EQ(hit, table.reference_lookup(p, in));

  table.remove_by_cookie(1);
  FlowRule high = installed;
  high.priority = 120;
  high.cookie = 2;
  ASSERT_TRUE(table.add_rule(high));
  hit = table.lookup(p, in);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 2u);
  EXPECT_EQ(hit, table.reference_lookup(p, in));
}

// --- the incremental structure, checked against a naive model -------------

/// Every accepted rule in install order, with the identity tag its single
/// GroupAction carries.  Duplicate detection (an equal match, at any
/// priority) and lookup are plain scans; the model has no ranks, slots or
/// index.
struct NaiveTable {
  struct Entry {
    std::uint16_t priority;
    Match match;
    std::uint64_t cookie;
    std::uint32_t tag;
  };
  std::vector<Entry> installed;

  bool accepts(const FlowRule& rule) const {
    return std::ranges::none_of(installed, [&rule](const Entry& e) {
      return e.match == rule.match;
    });
  }
  /// Precedence order: a stable sort by priority, highest first, so equal
  /// priorities keep install order.
  std::vector<std::uint32_t> order() const {
    std::vector<Entry> sorted = installed;
    std::ranges::stable_sort(sorted, std::greater<>{}, &Entry::priority);
    std::vector<std::uint32_t> tags;
    for (const Entry& e : sorted) tags.push_back(e.tag);
    return tags;
  }
  /// Tag of the earliest-installed highest-priority match; 0 on a miss.
  std::uint32_t winner(const net::Packet& p, topo::PortId in) const {
    const Entry* best = nullptr;
    for (const Entry& e : installed) {
      if (e.match.matches(p, in) &&
          (best == nullptr || e.priority > best->priority)) {
        best = &e;
      }
    }
    return best == nullptr ? 0 : best->tag;
  }
};

std::uint32_t tag_of(const FlowRule* rule) {
  return rule == nullptr ? 0 : std::get<GroupAction>(rule->actions[0]).group_id;
}

/// A FlowTable driven in lock-step with the naive model.
struct ModelBed {
  FlowTable table;
  NaiveTable model;
  std::uint32_t next_tag = 1;

  bool add(FlowRule rule) {
    rule.actions = {GroupAction{next_tag}};
    const bool expected = model.accepts(rule);
    const bool installed = table.add_rule(rule);
    EXPECT_EQ(installed, expected)
        << "add_rule disagrees with a naive match scan";
    if (installed) {
      model.installed.push_back(
          {rule.priority, rule.match, rule.cookie, next_tag});
    }
    ++next_tag;
    return installed;
  }

  void remove(std::uint64_t cookie) {
    const std::size_t expected = std::erase_if(
        model.installed,
        [cookie](const NaiveTable::Entry& e) { return e.cookie == cookie; });
    EXPECT_EQ(table.remove_by_cookie(cookie), expected);
    EXPECT_FALSE(table.has_cookie(cookie));
  }

  void clear() {
    table.clear();
    model.installed.clear();
  }

  /// rules() is a stable sort by (priority desc, install order), and the
  /// table's counts agree with the model.
  void check_order() {
    std::vector<std::uint32_t> tags;
    for (const FlowRule& rule : table.rules()) tags.push_back(tag_of(&rule));
    EXPECT_EQ(tags, model.order());
    EXPECT_EQ(table.rule_count(), model.installed.size());
  }

  /// Each lookup equals both the reference scan and the model's winner.
  void check_lookup(const net::Packet& packet, topo::PortId in_port) {
    const FlowRule* expected = table.reference_lookup(packet, in_port);
    const FlowRule* actual = table.lookup(packet, in_port);
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(tag_of(actual), model.winner(packet, in_port));
  }

  void check_structure() {
    std::vector<std::string> violations;
    EXPECT_EQ(table.self_check(violations), model.installed.size());
    EXPECT_TRUE(violations.empty()) << violations.front();
  }
};

/// Exact matches over wider pools than random_exact_match(), so tables
/// reach thousands of rules; three in four are untagged (label 0).
Match wide_exact_match(Rng& rng) {
  Match m;
  m.in_port = static_cast<topo::PortId>(rng.below(4));
  m.src = net::Ipv4(10, 0, static_cast<std::uint8_t>(rng.below(8)),
                    static_cast<std::uint8_t>(rng.below(8)));
  m.dst = net::Ipv4(10, 1, static_cast<std::uint8_t>(rng.below(8)),
                    static_cast<std::uint8_t>(rng.below(8)));
  m.sport = pick(rng, kPorts);
  m.dport = pick(rng, kPorts);
  m.mpls = rng.below(4) < 3 ? net::kNoMpls : pick(rng, kLabels);
  return m;
}

FlowRule wide_rule(Rng& rng) {
  FlowRule rule;
  rule.priority = pick(rng, kPriorities);
  rule.match = rng.chance(0.85) ? wide_exact_match(rng)
                                : random_wildcard_match(rng);
  rule.cookie = rng.range(1, 8);
  return rule;
}

/// A packet aimed at `m`: its pinned fields, wildcards filled at random,
/// and now and then one field nudged so the probe just misses.
net::Packet probe_for(const Match& m, Rng& rng, topo::PortId* in_port) {
  net::Packet p = random_packet(rng);
  if (m.src) p.src = *m.src;
  if (m.dst) p.dst = *m.dst;
  if (m.sport) p.sport = *m.sport;
  if (m.dport) p.dport = *m.dport;
  if (m.mpls) p.mpls = *m.mpls;
  *in_port = m.in_port.value_or(pick(rng, kInPorts));
  if (rng.chance(0.1)) p.dport = static_cast<net::L4Port>(p.dport + 1);
  return p;
}

void check_lookups(ModelBed& bed, Rng& rng, int count) {
  for (int i = 0; i < count && !bed.model.installed.empty(); ++i) {
    const auto& target =
        bed.model.installed[rng.below(bed.model.installed.size())];
    topo::PortId in_port = 0;
    const net::Packet p = probe_for(target.match, rng, &in_port);
    bed.check_lookup(p, in_port);
  }
}

TEST(FlowTableIncremental, LargeTablesReuseSlotsAfterMassRemoval) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 0x2545f491ULL + 11);
    ModelBed bed;
    const std::size_t target = rng.range(512, 4096);
    while (bed.model.installed.size() < target) bed.add(wide_rule(rng));
    bed.check_order();
    check_lookups(bed, rng, 256);

    // Mass removal: about half the cookies at once.
    std::set<const FlowRule*> homes;
    for (const FlowRule& rule : bed.table.rules()) homes.insert(&rule);
    for (std::uint64_t cookie = 1; cookie <= 8; ++cookie) {
      if (rng.chance(0.5) || cookie == 1) bed.remove(cookie);
    }
    const std::size_t freed = target - bed.model.installed.size();
    ASSERT_GT(freed, 0u);
    bed.check_order();
    check_lookups(bed, rng, 256);

    // Refill no more than was freed: every rule, old or new, lives in one
    // of the slots the table already had.
    std::size_t refilled = 0;
    while (refilled < freed) refilled += bed.add(wide_rule(rng)) ? 1 : 0;
    for (const FlowRule& rule : bed.table.rules()) {
      EXPECT_TRUE(homes.contains(&rule)) << "reinstall grew the slot array";
    }
    bed.check_order();
    check_lookups(bed, rng, 256);
    bed.check_structure();
  }
}

TEST(FlowTableIncremental, RemovingTheWinnerPromotesAShadowedRule) {
  // Three shapes match one packet: an exact rule at 120, a dst-only rule
  // at 80 and a catch-all at 50.  Each removal promotes the next.
  Rng rng(22);
  const Match exact = wide_exact_match(rng);
  Match dst_only;
  dst_only.dst = exact.dst;
  net::Packet p;
  p.src = *exact.src;
  p.dst = *exact.dst;
  p.sport = *exact.sport;
  p.dport = *exact.dport;
  p.mpls = *exact.mpls;
  const topo::PortId in = *exact.in_port;

  struct Install {
    std::uint16_t priority;
    Match match;
    std::uint64_t cookie;
  };
  ModelBed bed;
  // Installed out of priority order, each under its own cookie.
  for (const Install& install : {Install{50, Match{}, 1},
                                 Install{120, exact, 2},
                                 Install{80, dst_only, 3},
                                 Install{90, dst_only, 4}}) {
    FlowRule rule;
    rule.priority = install.priority;
    rule.match = install.match;
    rule.cookie = install.cookie;
    // Cookie 4 repeats cookie 3's match at another priority: rejected.
    EXPECT_EQ(bed.add(rule), install.cookie != 4);
  }
  EXPECT_EQ(bed.table.indexed_rule_count(), 1u);
  const auto winner_cookie = [&bed, &p, in] {
    bed.check_lookup(p, in);
    const FlowRule* hit = bed.table.reference_lookup(p, in);
    return hit == nullptr ? 0 : hit->cookie;
  };
  EXPECT_EQ(winner_cookie(), 2u);
  bed.remove(2);
  EXPECT_EQ(winner_cookie(), 3u);
  bed.check_structure();
  bed.remove(3);
  EXPECT_EQ(winner_cookie(), 1u);
  bed.remove(1);
  EXPECT_EQ(winner_cookie(), 0u);
  EXPECT_EQ(bed.table.indexed_rule_count(), 0u);
  bed.check_structure();
}

TEST(FlowTableIncremental, ClearEmptiesTheTableAndItFillsAgain) {
  Rng rng(23);
  ModelBed bed;
  for (int i = 0; i < 200; ++i) bed.add(wide_rule(rng));
  bed.check_order();
  check_lookups(bed, rng, 64);
  bed.remove(3);
  bed.check_structure();

  bed.clear();
  EXPECT_EQ(bed.table.rule_count(), 0u);
  EXPECT_EQ(bed.table.indexed_rule_count(), 0u);
  EXPECT_TRUE(bed.table.rules().empty());
  for (std::uint64_t cookie = 1; cookie <= 8; ++cookie) {
    EXPECT_FALSE(bed.table.has_cookie(cookie));
  }
  for (int i = 0; i < 32; ++i) {
    const net::Packet p = random_packet(rng);
    bed.check_lookup(p, pick(rng, kInPorts));
  }
  // The cleared table takes rules again.
  for (int i = 0; i < 200; ++i) bed.add(wide_rule(rng));
  EXPECT_GT(bed.table.rule_count(), 0u);
  bed.check_order();
  check_lookups(bed, rng, 64);
  bed.check_structure();
}

TEST(FlowTableIncremental, DuplicateRejectionMatchesANaiveScan) {
  // Small pools make repeated matches common, at equal and at other
  // priorities, among exact and wildcard rules alike.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0x7f4a7c15ULL);
    ModelBed bed;
    std::size_t rejected = 0;
    for (int i = 0; i < 600; ++i) {
      FlowRule rule;
      rule.priority = pick(rng, kPriorities);
      rule.match = rng.chance(0.6) ? random_exact_match(rng)
                                   : random_wildcard_match(rng);
      rule.cookie = rng.range(1, 4);
      rejected += bed.add(rule) ? 0 : 1;
      if (i % 150 == 149) bed.remove(rng.range(1, 4));
    }
    EXPECT_GT(rejected, 0u);
    bed.check_order();
    check_lookups(bed, rng, 128);
    bed.check_structure();
  }
}

// --- tables shaped like the ones MIC installs ------------------------------

/// Host addresses of a k=8 fat-tree: 128 hosts, four per edge switch.
net::Ipv4 l3_host(std::uint32_t host) {
  return net::Ipv4(10, static_cast<int>(host / 16),
                   static_cast<int>(host / 4 % 4),
                   static_cast<int>(2 + host % 4));
}

constexpr std::uint64_t kL3Cookie = 1;
constexpr std::uint64_t kCatchAllCookie = 2;
constexpr std::uint64_t kFirstChannelCookie = 10;
constexpr topo::PortId kHostPorts = 4;  // 0-3 face hosts, 4-7 uplinks
constexpr net::MplsLabel kCfLabel = 0x00070001;

/// Installs a k=8 edge switch's rules the way the default routing does:
/// per destination either a dst-only egress rule at 30 (the four attached
/// hosts) or a dst-only transit rule at 20 plus one in_port + dst +
/// untagged ingress-tag rule at 25 per host port.
void fill_l3_edge(ModelBed& bed) {
  for (std::uint32_t host = 0; host < 128; ++host) {
    FlowRule route;
    route.cookie = kL3Cookie;
    route.match.dst = l3_host(host);
    route.priority = host < kHostPorts ? 30 : 20;
    ASSERT_TRUE(bed.add(route));
    if (host < kHostPorts) continue;
    for (topo::PortId port = 0; port < kHostPorts; ++port) {
      FlowRule ingress;
      ingress.cookie = kL3Cookie;
      ingress.priority = 25;
      ingress.match.in_port = port;
      ingress.match.dst = l3_host(host);
      ingress.match.mpls = net::kNoMpls;
      ASSERT_TRUE(bed.add(ingress));
    }
  }
}

/// One channel's rules at the switch: exact m-flow rewrites at 100 and a
/// decoy drop at 110, each pinning every field; the first MN's rule
/// matches the untagged packet, the others a channel label.
void add_channel(ModelBed& bed, Rng& rng, std::uint64_t cookie) {
  for (int i = 0; i < 3; ++i) {
    FlowRule rule;
    rule.cookie = cookie;
    rule.priority = i == 2 ? 110 : 100;
    rule.match.in_port = static_cast<topo::PortId>(rng.below(8));
    rule.match.src = l3_host(static_cast<std::uint32_t>(rng.below(128)));
    rule.match.dst = l3_host(static_cast<std::uint32_t>(rng.below(128)));
    rule.match.sport = static_cast<net::L4Port>(40000 + rng.below(64));
    rule.match.dport = pick(rng, kPorts);
    rule.match.mpls =
        i == 0 ? net::kNoMpls
               : static_cast<net::MplsLabel>(0x00100000 + rng.below(4096));
    bed.add(rule);
  }
}

/// A catch-all punt under everything.
void add_catch_all(ModelBed& bed) {
  FlowRule punt;
  punt.cookie = kCatchAllCookie;
  punt.priority = 0;
  ASSERT_TRUE(bed.add(punt));
}

/// Common-flow and m-flow traffic as an edge switch sees it: untagged
/// packets from host ports, CF-tagged packets from uplinks, packets aimed
/// at installed rules, and packets to addresses no route covers.
void check_l3_traffic(ModelBed& bed, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    net::Packet p;
    p.src = l3_host(static_cast<std::uint32_t>(rng.below(128)));
    p.dst = l3_host(static_cast<std::uint32_t>(rng.below(128)));
    p.sport = static_cast<net::L4Port>(40000 + rng.below(64));
    p.dport = pick(rng, kPorts);
    topo::PortId in_port = 0;
    std::uint64_t kind = rng.below(4);
    if (kind == 2 && bed.model.installed.empty()) kind = 3;
    switch (kind) {
      case 0:  // untagged, fresh from an attached host
        in_port = static_cast<topo::PortId>(rng.below(kHostPorts));
        break;
      case 1:  // CF-tagged, from an uplink
        in_port = static_cast<topo::PortId>(kHostPorts + rng.below(4));
        p.mpls = kCfLabel;
        break;
      case 2: {  // aimed at an installed rule (m-flows dominate by count)
        const auto& target =
            bed.model.installed[rng.below(bed.model.installed.size())];
        p = probe_for(target.match, rng, &in_port);
        break;
      }
      default:  // no route covers it: the catch-all or a miss
        p.dst = net::Ipv4(192, 0, 2, static_cast<int>(rng.below(256)));
        in_port = static_cast<topo::PortId>(rng.below(8));
        break;
    }
    bed.check_lookup(p, in_port);
  }
}

TEST(FlowTableL3Shapes, EdgeSwitchTablesAgreeWithTheModel) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 0x1b873593ULL + 5);
    ModelBed bed;
    fill_l3_edge(bed);
    add_catch_all(bed);
    std::uint64_t next_channel = kFirstChannelCookie;
    for (int c = 0; c < 200; ++c) add_channel(bed, rng, next_channel++);
    bed.check_order();
    check_lookups(bed, rng, 256);
    check_l3_traffic(bed, rng, 1024);
    bed.check_structure();

    // Channel churn: the oldest channels leave, fresh ones arrive.
    for (std::uint64_t cookie = kFirstChannelCookie;
         cookie < kFirstChannelCookie + 120; ++cookie) {
      bed.remove(cookie);
      add_channel(bed, rng, next_channel++);
    }
    bed.check_order();
    check_l3_traffic(bed, rng, 1024);
    bed.check_structure();

    // Common flows are served by the L3 shapes, m-flows by the all-fields
    // one, and nothing is left to miss while the catch-all is in.
    const TableStats& stats = bed.table.stats();
    EXPECT_GT(stats.index_hits, 0u);
    EXPECT_GT(stats.scan_fallbacks, 0u);
    EXPECT_EQ(stats.misses, 0u);
  }
}

TEST(FlowTableL3Shapes, RemovingTheLastRuleOfAShape) {
  Rng rng(31);
  ModelBed bed;
  fill_l3_edge(bed);
  add_catch_all(bed);
  for (std::uint64_t cookie = kFirstChannelCookie;
       cookie < kFirstChannelCookie + 16; ++cookie) {
    add_channel(bed, rng, cookie);
  }
  check_l3_traffic(bed, rng, 256);

  // The catch-all's shape empties: unrouted packets now miss.
  bed.remove(kCatchAllCookie);
  bed.check_structure();
  const std::uint64_t misses = bed.table.stats().misses;
  check_l3_traffic(bed, rng, 256);
  EXPECT_GT(bed.table.stats().misses, misses);

  // Every channel leaves: the all-fields subtable empties and lookups
  // fall to the L3 shapes alone.
  for (std::uint64_t cookie = kFirstChannelCookie;
       cookie < kFirstChannelCookie + 16; ++cookie) {
    bed.remove(cookie);
  }
  EXPECT_EQ(bed.table.indexed_rule_count(), 0u);
  bed.check_order();
  bed.check_structure();
  const std::uint64_t index_hits = bed.table.stats().index_hits;
  check_l3_traffic(bed, rng, 256);
  EXPECT_EQ(bed.table.stats().index_hits, index_hits);

  // The L3 rules leave too; the table is empty and takes rules again.
  bed.remove(kL3Cookie);
  EXPECT_EQ(bed.table.rule_count(), 0u);
  bed.check_structure();
  const std::uint64_t before_empty = bed.table.stats().misses;
  check_l3_traffic(bed, rng, 64);
  EXPECT_EQ(bed.table.stats().misses, before_empty + 64);
  fill_l3_edge(bed);
  add_channel(bed, rng, kFirstChannelCookie);
  bed.check_order();
  check_l3_traffic(bed, rng, 256);
  bed.check_structure();
}

TEST(FlowTableL3Shapes, EqualPriorityTiesAcrossShapesGoToTheFirstInstall) {
  // Two rules of different shapes at one priority both match the probe;
  // the earlier install wins whichever subtable a lookup visits first.  A
  // third, higher rule in one of the shapes decides that visiting order.
  const net::Ipv4 dst = l3_host(40);
  FlowRule ingress;  // in_port + dst + untagged
  ingress.priority = 25;
  ingress.cookie = 1;
  ingress.match.in_port = 1;
  ingress.match.dst = dst;
  ingress.match.mpls = net::kNoMpls;
  FlowRule transit;  // dst only
  transit.priority = 25;
  transit.cookie = 1;
  transit.match.dst = dst;
  FlowRule raise;  // dst only, another destination, above both
  raise.priority = 30;
  raise.cookie = 2;
  raise.match.dst = l3_host(41);

  net::Packet p;
  p.src = l3_host(0);
  p.dst = dst;
  for (const bool ingress_first : {true, false}) {
    for (const bool raise_dst_shape : {true, false}) {
      ModelBed bed;
      FlowRule above = raise;
      if (!raise_dst_shape) {
        above.match.in_port = 2;
        above.match.mpls = net::kNoMpls;
      }
      FlowRule later = ingress_first ? transit : ingress;
      later.cookie = 3;
      ASSERT_TRUE(bed.add(ingress_first ? ingress : transit));
      ASSERT_TRUE(bed.add(above));
      ASSERT_TRUE(bed.add(later));
      bed.check_lookup(p, 1);
      EXPECT_EQ(tag_of(bed.table.reference_lookup(p, 1)), 1u)
          << "ingress first: " << ingress_first
          << ", raised shape is dst-only: " << raise_dst_shape;
      bed.check_structure();
      // The first install leaves: the other shape's rule takes over.
      bed.remove(1);
      bed.check_lookup(p, 1);
      EXPECT_EQ(tag_of(bed.table.reference_lookup(p, 1)), 3u);
      bed.check_structure();
    }
  }
}

}  // namespace
}  // namespace mic::switchd
