// Differential harness for the two-tier flow table (invariant FT-1).
//
// The exact-match index is a pure optimization: for every packet the
// two-tier lookup() must return the identical rule object as the retained
// reference linear scan.  A subtly wrong fast path would not crash -- it
// would silently re-route m-flows and corrupt every anonymity measurement
// downstream -- so we fuzz it: thousands of seeded random (rule set, packet
// stream) pairs mixing exact rules, partial wildcards, overlapping
// priorities, duplicate match keys at different priorities, and mid-stream
// rule removal, asserting pointer-identical results throughout.
//
// The table is maintained incrementally (stable slots, rank order, an
// in-place index with shadowed same-key rules), so the second half of this
// file also checks it from outside against a naive model that knows only
// install order: duplicate rejection, the rules() order, every lookup's
// winner, slot reuse after mass removal, promotion of shadowed rules,
// clear() and capacity rejection.
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
  if (rng.chance(0.3)) {
    m.require_no_mpls = true;  // pinned to "untagged", like a first-MN rule
  } else {
    m.mpls = pick(rng, kLabels);
  }
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
  if (rng.chance(0.2)) m.require_no_mpls = true;  // may contradict mpls
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
    table.add_rule(std::move(rule));  // duplicate (priority, match) rejected
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
  FlowRule* actual = table.lookup(packet, in_port, packet.wire_bytes());
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
  // shadowing same-key rules at lower priority.
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

TEST(FlowTableDifferential, SameKeyDifferentPriorityKeepsBestIndexed) {
  // Two exact rules with one match key at different priorities: the index
  // must serve the higher-priority one, and keep doing so after the winner
  // is removed.
  FlowTable table;
  Rng rng(1);
  FlowRule low;
  low.priority = 50;
  low.cookie = 1;
  low.match = random_exact_match(rng);
  FlowRule high = low;
  high.priority = 120;
  high.cookie = 2;
  ASSERT_TRUE(table.add_rule(low));
  ASSERT_TRUE(table.add_rule(high));
  EXPECT_EQ(table.indexed_rule_count(), 1u);

  net::Packet p;
  p.src = *low.match.src;
  p.dst = *low.match.dst;
  p.sport = *low.match.sport;
  p.dport = *low.match.dport;
  p.mpls = low.match.mpls.value_or(net::kNoMpls);
  const topo::PortId in = *low.match.in_port;

  FlowRule* hit = table.lookup(p, in, p.wire_bytes());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 2u);
  EXPECT_EQ(hit, table.reference_lookup(p, in));

  table.remove_by_cookie(2);
  hit = table.lookup(p, in, p.wire_bytes());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 1u);
  EXPECT_EQ(hit, table.reference_lookup(p, in));
}

// --- the incremental structure, checked against a naive model -------------

/// Every accepted rule in install order, with the identity tag its single
/// GroupAction carries.  Duplicate detection and lookup are plain scans
/// over (priority, match); the model has no ranks, slots or index.
struct NaiveTable {
  struct Entry {
    std::uint16_t priority;
    Match match;
    std::uint64_t cookie;
    std::uint32_t tag;
  };
  std::vector<Entry> installed;
  std::size_t capacity = 0;

  bool accepts(const FlowRule& rule) const {
    if (capacity != 0 && installed.size() >= capacity) return false;
    return std::ranges::none_of(installed, [&rule](const Entry& e) {
      return e.priority == rule.priority && e.match == rule.match;
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
        << "add_rule disagrees with a naive (priority, match) scan";
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

  void set_capacity(std::size_t n) {
    table.set_capacity(n);
    model.capacity = n;
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
    FlowRule* actual = table.lookup(packet, in_port, packet.wire_bytes());
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
/// reach thousands of rules, with every label-state spelling: explicit
/// label 0, require_no_mpls, both, or a real label.  The first three share
/// one index key, so equal-priority same-key ties occur.
Match wide_exact_match(Rng& rng) {
  Match m;
  m.in_port = static_cast<topo::PortId>(rng.below(4));
  m.src = net::Ipv4(10, 0, static_cast<std::uint8_t>(rng.below(8)),
                    static_cast<std::uint8_t>(rng.below(8)));
  m.dst = net::Ipv4(10, 1, static_cast<std::uint8_t>(rng.below(8)),
                    static_cast<std::uint8_t>(rng.below(8)));
  m.sport = pick(rng, kPorts);
  m.dport = pick(rng, kPorts);
  switch (rng.below(4)) {
    case 0: m.mpls = net::kNoMpls; break;
    case 1: m.require_no_mpls = true; break;
    case 2: m.mpls = net::kNoMpls; m.require_no_mpls = true; break;
    default: m.mpls = pick(rng, kLabels); break;
  }
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
  if (m.require_no_mpls) p.mpls = net::kNoMpls;
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

TEST(FlowTableIncremental, EqualPrioritySameKeyTiesGoToTheFirstInstall) {
  // Three spellings of "label 0" share one index key at one priority; none
  // is a duplicate of another, and install order decides the winner.
  Rng rng(21);
  Match base = wide_exact_match(rng);
  base.mpls.reset();
  base.require_no_mpls = false;
  Match explicit_zero = base;
  explicit_zero.mpls = net::kNoMpls;
  Match untagged = base;
  untagged.require_no_mpls = true;
  Match both = explicit_zero;
  both.require_no_mpls = true;

  net::Packet p;
  p.src = *base.src;
  p.dst = *base.dst;
  p.sport = *base.sport;
  p.dport = *base.dport;
  const topo::PortId in = *base.in_port;

  ModelBed bed;
  const std::vector<Match> spellings = {untagged, both, explicit_zero};
  for (std::size_t i = 0; i < spellings.size(); ++i) {
    FlowRule rule;
    rule.priority = 100;
    rule.match = spellings[i];
    rule.cookie = 10 + i;
    ASSERT_TRUE(bed.add(rule));
  }
  EXPECT_EQ(bed.table.indexed_rule_count(), 1u);
  bed.check_lookup(p, in);
  EXPECT_EQ(tag_of(bed.table.reference_lookup(p, in)), 1u);  // untagged

  // Removing the winner promotes the next install, not the last.
  bed.remove(10);
  bed.check_lookup(p, in);
  EXPECT_EQ(tag_of(bed.table.reference_lookup(p, in)), 2u);  // both
  // A re-added spelling is the newest install and stays behind.
  FlowRule again;
  again.priority = 100;
  again.match = untagged;
  again.cookie = 10;
  ASSERT_TRUE(bed.add(again));
  bed.check_lookup(p, in);
  EXPECT_EQ(tag_of(bed.table.reference_lookup(p, in)), 2u);
  bed.check_order();
  bed.check_structure();
}

TEST(FlowTableIncremental, RemovingTheWinnerPromotesAShadowedRule) {
  Rng rng(22);
  const Match key = wide_exact_match(rng);
  net::Packet p;
  p.src = *key.src;
  p.dst = *key.dst;
  p.sport = *key.sport;
  p.dport = *key.dport;
  p.mpls = key.mpls.value_or(net::kNoMpls);
  const topo::PortId in = *key.in_port;

  ModelBed bed;
  // Installed out of priority order, each under its own cookie.
  for (const auto& [priority, cookie] :
       std::vector<std::pair<std::uint16_t, std::uint64_t>>{
           {50, 1}, {120, 2}, {80, 3}, {80, 4}}) {
    FlowRule rule;
    rule.priority = priority;
    rule.match = key;
    rule.cookie = cookie;
    // {80, 4} repeats {80, 3}'s (priority, match): rejected.
    EXPECT_EQ(bed.add(rule), cookie != 4);
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

TEST(FlowTableIncremental, ClearAndCapacityRejection) {
  Rng rng(23);
  ModelBed bed;
  bed.set_capacity(48);
  for (int i = 0; i < 200; ++i) bed.add(wide_rule(rng));
  EXPECT_EQ(bed.table.rule_count(), 48u);
  FlowRule extra = wide_rule(rng);
  EXPECT_FALSE(bed.add(extra));  // full, whatever the rule
  bed.check_order();
  check_lookups(bed, rng, 64);

  // Room frees up by cookie and is used again, up to the same bound.
  bed.remove(3);
  for (int i = 0; i < 200; ++i) bed.add(wide_rule(rng));
  EXPECT_EQ(bed.table.rule_count(), 48u);
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
  // The cleared table takes rules again, still capped.
  for (int i = 0; i < 200; ++i) bed.add(wide_rule(rng));
  EXPECT_EQ(bed.table.rule_count(), 48u);
  bed.check_order();
  check_lookups(bed, rng, 64);
  bed.check_structure();
}

TEST(FlowTableIncremental, DuplicateRejectionMatchesANaiveScan) {
  // Small pools make (priority, match) repeats common in both tiers.
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

}  // namespace
}  // namespace mic::switchd
