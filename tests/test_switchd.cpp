// Tests for the SDN switch data plane: match semantics, priorities,
// rewrite actions, ALL groups, table misses, cookies.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "switchd/sdn_switch.hpp"

namespace mic::switchd {
namespace {

net::Packet make_packet(net::Ipv4 src, net::Ipv4 dst, net::L4Port sport = 100,
                        net::L4Port dport = 200,
                        net::MplsLabel mpls = net::kNoMpls) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.sport = sport;
  p.dport = dport;
  p.mpls = mpls;
  p.tcp.payload_len = 64;
  return p;
}

TEST(Match, WildcardMatchesAll) {
  const Match match;
  EXPECT_TRUE(match.matches(make_packet({10, 0, 0, 1}, {10, 0, 0, 2}), 0));
  EXPECT_TRUE(
      match.matches(make_packet({1, 2, 3, 4}, {5, 6, 7, 8}, 1, 2, 99), 7));
}

TEST(Match, ExactFields) {
  Match match;
  match.src = net::Ipv4(10, 0, 0, 1);
  match.dst = net::Ipv4(10, 0, 0, 2);
  match.sport = 100;
  match.dport = 200;
  EXPECT_TRUE(match.matches(make_packet({10, 0, 0, 1}, {10, 0, 0, 2}), 0));
  EXPECT_FALSE(match.matches(make_packet({10, 0, 0, 9}, {10, 0, 0, 2}), 0));
  EXPECT_FALSE(
      match.matches(make_packet({10, 0, 0, 1}, {10, 0, 0, 2}, 100, 201), 0));
}

TEST(Match, InPort) {
  Match match;
  match.in_port = 3;
  EXPECT_TRUE(match.matches(make_packet({1, 1, 1, 1}, {2, 2, 2, 2}), 3));
  EXPECT_FALSE(match.matches(make_packet({1, 1, 1, 1}, {2, 2, 2, 2}), 2));
}

TEST(Match, MplsSemantics) {
  Match labeled;
  labeled.mpls = 77;
  EXPECT_TRUE(
      labeled.matches(make_packet({1, 1, 1, 1}, {2, 2, 2, 2}, 1, 2, 77), 0));
  EXPECT_FALSE(
      labeled.matches(make_packet({1, 1, 1, 1}, {2, 2, 2, 2}, 1, 2, 78), 0));
  EXPECT_FALSE(labeled.matches(make_packet({1, 1, 1, 1}, {2, 2, 2, 2}), 0));

  Match untagged;  // label 0: only packets that carry no label
  untagged.mpls = net::kNoMpls;
  EXPECT_TRUE(untagged.matches(make_packet({1, 1, 1, 1}, {2, 2, 2, 2}), 0));
  EXPECT_FALSE(
      untagged.matches(make_packet({1, 1, 1, 1}, {2, 2, 2, 2}, 1, 2, 77), 0));
}

TEST(FlowTable, PriorityOrderAndFirstInstalledWins) {
  FlowTable table;
  FlowRule low;
  low.priority = 10;
  low.cookie = 1;
  FlowRule high;
  high.priority = 100;
  high.match.src = net::Ipv4(10, 0, 0, 1);
  high.cookie = 2;
  ASSERT_TRUE(table.add_rule(low));
  ASSERT_TRUE(table.add_rule(high));

  auto p = make_packet({10, 0, 0, 1}, {10, 0, 0, 2});
  const FlowRule* hit = table.lookup(p, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 2u);

  auto other = make_packet({10, 0, 0, 9}, {10, 0, 0, 2});
  hit = table.lookup(other, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 1u);
}

TEST(FlowTable, DuplicateMatchRejected) {
  FlowTable table;
  FlowRule rule;
  rule.priority = 10;
  rule.match.dst = net::Ipv4(10, 0, 0, 2);
  EXPECT_TRUE(table.add_rule(rule));
  EXPECT_FALSE(table.add_rule(rule));
  EXPECT_EQ(table.rule_count(), 1u);
  // A table holds one rule per match: another priority does not make it
  // a second rule.
  rule.priority = 20;
  EXPECT_FALSE(table.add_rule(rule));
  EXPECT_EQ(table.rule_count(), 1u);
}

TEST(FlowTable, CountersUpdateOnHit) {
  FlowTable table;
  FlowRule rule;
  rule.priority = 1;
  ASSERT_TRUE(table.add_rule(rule));
  auto p = make_packet({1, 1, 1, 1}, {2, 2, 2, 2});
  EXPECT_EQ(table.lookup(p, 0), &table.rules()[0]);
  table.lookup(p, 0);
  // A catch-all pins no field, so both hits go to the wildcard counter.
  EXPECT_EQ(table.stats().lookups, 2u);
  EXPECT_EQ(table.stats().scan_fallbacks, 2u);
  EXPECT_EQ(table.stats().index_hits, 0u);
  EXPECT_EQ(table.stats().misses, 0u);
}

TEST(FlowTable, RemoveByCookie) {
  FlowTable table;
  for (int i = 0; i < 5; ++i) {
    FlowRule rule;
    rule.priority = static_cast<std::uint16_t>(i);
    rule.match.dport = static_cast<net::L4Port>(80 + i);
    rule.cookie = i % 2 == 0 ? 42 : 7;
    ASSERT_TRUE(table.add_rule(rule));
  }
  EXPECT_EQ(table.remove_by_cookie(42), 3u);
  EXPECT_EQ(table.rule_count(), 2u);
}

TEST(FlowTable, GroupsByCookie) {
  FlowTable table;
  GroupEntry g1{1, GroupType::kAll, {{Output{0}}}, 9};
  GroupEntry g2{2, GroupType::kAll, {{Output{1}}}, 9};
  EXPECT_TRUE(table.add_group(g1));
  EXPECT_TRUE(table.add_group(g2));
  EXPECT_FALSE(table.add_group(g1));  // duplicate id
  EXPECT_NE(table.group(1), nullptr);
  EXPECT_EQ(table.remove_groups_by_cookie(9), 2u);
  EXPECT_EQ(table.group(1), nullptr);
}

TEST(FlowTable, MissCounter) {
  FlowTable table;
  auto p = make_packet({1, 1, 1, 1}, {2, 2, 2, 2});
  EXPECT_EQ(table.lookup(p, 0), nullptr);
  EXPECT_EQ(table.stats().lookups, 1u);
  EXPECT_EQ(table.stats().misses, 1u);
}

// --- the two-tier lookup ------------------------------------------------------

Match exact_match(net::Ipv4 src, net::Ipv4 dst, net::L4Port sport,
                  net::L4Port dport, net::MplsLabel mpls,
                  topo::PortId in_port = 0) {
  Match m;
  m.in_port = in_port;
  m.src = src;
  m.dst = dst;
  m.sport = sport;
  m.dport = dport;
  m.mpls = mpls;
  return m;
}

TEST(FlowTable, ExactRulesAreIndexed) {
  FlowTable table;
  FlowRule exact;
  exact.priority = 100;
  exact.match = exact_match({10, 0, 0, 1}, {10, 0, 0, 2}, 100, 200, 7);
  exact.cookie = 1;
  FlowRule wildcard;
  wildcard.priority = 1;
  wildcard.cookie = 2;
  ASSERT_TRUE(table.add_rule(exact));
  ASSERT_TRUE(table.add_rule(wildcard));
  EXPECT_EQ(table.indexed_rule_count(), 1u);

  auto hit = make_packet({10, 0, 0, 1}, {10, 0, 0, 2}, 100, 200, 7);
  const FlowRule* rule = table.lookup(hit, 0);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->cookie, 1u);
  EXPECT_EQ(table.stats().index_hits, 1u);
  EXPECT_EQ(table.stats().scan_fallbacks, 0u);

  auto other = make_packet({10, 0, 0, 9}, {10, 0, 0, 2});
  rule = table.lookup(other, 0);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->cookie, 2u);
  EXPECT_EQ(table.stats().scan_fallbacks, 1u);
  EXPECT_EQ(table.stats().lookups, 2u);
}

TEST(FlowTable, IndexedHitLosesToHigherPriorityWildcard) {
  FlowTable table;
  FlowRule exact;
  exact.priority = 100;
  exact.match = exact_match({10, 0, 0, 1}, {10, 0, 0, 2}, 100, 200, 7);
  exact.cookie = 1;
  FlowRule punt;  // e.g. a decoy-drop-style classifier above the m-flow tier
  punt.priority = 110;
  punt.match.src = net::Ipv4(10, 0, 0, 1);
  punt.cookie = 2;
  ASSERT_TRUE(table.add_rule(exact));
  ASSERT_TRUE(table.add_rule(punt));

  auto p = make_packet({10, 0, 0, 1}, {10, 0, 0, 2}, 100, 200, 7);
  const FlowRule* rule = table.lookup(p, 0);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->cookie, 2u);
  EXPECT_EQ(table.stats().scan_fallbacks, 1u);
  EXPECT_EQ(table.stats().index_hits, 0u);
  EXPECT_EQ(rule, table.reference_lookup(p, 0));
}

TEST(FlowTable, IndexSurvivesCookieRemoval) {
  FlowTable table;
  for (int i = 0; i < 4; ++i) {
    FlowRule rule;
    rule.priority = 100;
    rule.match = exact_match({10, 0, 0, 1}, {10, 0, 0, 2}, 100,
                             static_cast<net::L4Port>(200 + i), 7);
    rule.cookie = i % 2 == 0 ? 5 : 6;
    ASSERT_TRUE(table.add_rule(rule));
  }
  EXPECT_EQ(table.indexed_rule_count(), 4u);
  EXPECT_EQ(table.remove_by_cookie(5), 2u);
  EXPECT_EQ(table.indexed_rule_count(), 2u);

  auto p = make_packet({10, 0, 0, 1}, {10, 0, 0, 2}, 100, 201, 7);
  const FlowRule* rule = table.lookup(p, 0);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->cookie, 6u);
  EXPECT_EQ(rule, table.reference_lookup(p, 0));
}

TEST(Match, ExactnessClassification) {
  Match m = exact_match({1, 1, 1, 1}, {2, 2, 2, 2}, 1, 2, 7);
  EXPECT_TRUE(m.is_exact());
  m.mpls.reset();
  EXPECT_FALSE(m.is_exact());  // label state unconstrained
  m.mpls = net::kNoMpls;
  EXPECT_TRUE(m.is_exact());   // pinned to "untagged"
  m = exact_match({1, 1, 1, 1}, {2, 2, 2, 2}, 1, 2, 7);
  m.in_port.reset();
  EXPECT_FALSE(m.is_exact());
}

// --- the switch device in a 3-node line: host-A -- switch -- host-B ----------

class CaptureDevice : public net::Device {
 public:
  void receive(const net::Packet& packet, topo::PortId) override {
    received.push_back(packet);
  }
  std::vector<net::Packet> received;
};

struct SwitchFixture {
  SwitchFixture() : network(simulator, build_graph()) {
    auto sdn = std::make_unique<SdnSwitch>();
    sw_dev = sdn.get();
    network.set_device(sw, std::move(sdn));
    auto cap_a = std::make_unique<CaptureDevice>();
    auto cap_b = std::make_unique<CaptureDevice>();
    auto cap_c = std::make_unique<CaptureDevice>();
    a_dev = cap_a.get();
    b_dev = cap_b.get();
    c_dev = cap_c.get();
    network.set_device(a, std::move(cap_a));
    network.set_device(b, std::move(cap_b));
    network.set_device(c, std::move(cap_c));
  }

  const topo::Graph& build_graph() {
    sw = graph.add_node(topo::NodeKind::kSwitch);
    a = graph.add_node(topo::NodeKind::kHost);
    b = graph.add_node(topo::NodeKind::kHost);
    c = graph.add_node(topo::NodeKind::kHost);
    graph.add_link(sw, a);  // switch port 0
    graph.add_link(sw, b);  // switch port 1
    graph.add_link(sw, c);  // switch port 2
    return graph;
  }

  sim::Simulator simulator;
  topo::Graph graph;
  topo::NodeId sw{}, a{}, b{}, c{};
  net::Network network;
  SdnSwitch* sw_dev{};
  CaptureDevice* a_dev{};
  CaptureDevice* b_dev{};
  CaptureDevice* c_dev{};
};

TEST(SdnSwitch, RewriteAndForward) {
  SwitchFixture fix;
  FlowRule rule;
  rule.priority = 10;
  rule.match.src = net::Ipv4(10, 0, 0, 1);
  rule.actions = {SetSrc{net::Ipv4(10, 9, 9, 9)},
                  SetDst{net::Ipv4(10, 8, 8, 8)}, SetSport{1111},
                  SetDport{2222}, SetMpls{0xabcd}, Output{1}};
  ASSERT_TRUE(fix.sw_dev->table().add_rule(rule));

  fix.network.transmit(fix.a, 0, make_packet({10, 0, 0, 1}, {10, 0, 0, 2}));
  fix.simulator.run_until();
  ASSERT_EQ(fix.b_dev->received.size(), 1u);
  const auto& out = fix.b_dev->received[0];
  EXPECT_EQ(out.src, net::Ipv4(10, 9, 9, 9));
  EXPECT_EQ(out.dst, net::Ipv4(10, 8, 8, 8));
  EXPECT_EQ(out.sport, 1111);
  EXPECT_EQ(out.dport, 2222);
  EXPECT_EQ(out.mpls, 0xabcdu);
  EXPECT_EQ(fix.sw_dev->forwarded(), 1u);
}

TEST(SdnSwitch, PayloadSurvivesRewriting) {
  // The MN changes headers but never the payload -- the property the
  // paper's content-correlation adversary relies on.
  SwitchFixture fix;
  FlowRule rule;
  rule.priority = 10;
  rule.actions = {SetSrc{net::Ipv4(9, 9, 9, 9)}, Output{1}};
  ASSERT_TRUE(fix.sw_dev->table().add_rule(rule));

  auto p = make_packet({10, 0, 0, 1}, {10, 0, 0, 2});
  p.content_tag = 0x1234567890abcdefULL;
  fix.network.transmit(fix.a, 0, p);
  fix.simulator.run_until();
  ASSERT_EQ(fix.b_dev->received.size(), 1u);
  EXPECT_EQ(fix.b_dev->received[0].content_tag, 0x1234567890abcdefULL);
}

TEST(SdnSwitch, PopMplsClearsLabel) {
  SwitchFixture fix;
  FlowRule rule;
  rule.priority = 10;
  rule.actions = {PopMpls{}, Output{1}};
  ASSERT_TRUE(fix.sw_dev->table().add_rule(rule));
  fix.network.transmit(fix.a, 0,
                       make_packet({1, 1, 1, 1}, {2, 2, 2, 2}, 1, 2, 55));
  fix.simulator.run_until();
  ASSERT_EQ(fix.b_dev->received.size(), 1u);
  EXPECT_EQ(fix.b_dev->received[0].mpls, net::kNoMpls);
}

TEST(SdnSwitch, AllGroupReplicatesWithDistinctHeaders) {
  // The partially-multicast mechanism: one ingress packet, two egress
  // copies with different m-addresses out different ports.
  SwitchFixture fix;
  GroupEntry group;
  group.group_id = 5;
  group.buckets = {
      {SetDst{net::Ipv4(10, 0, 0, 2)}, Output{1}},
      {SetDst{net::Ipv4(10, 0, 0, 3)}, Output{2}},
  };
  ASSERT_TRUE(fix.sw_dev->table().add_group(group));
  FlowRule rule;
  rule.priority = 10;
  rule.actions = {GroupAction{5}};
  ASSERT_TRUE(fix.sw_dev->table().add_rule(rule));

  auto p = make_packet({10, 0, 0, 1}, {10, 0, 0, 9});
  p.content_tag = 42;
  fix.network.transmit(fix.a, 0, p);
  fix.simulator.run_until();
  ASSERT_EQ(fix.b_dev->received.size(), 1u);
  ASSERT_EQ(fix.c_dev->received.size(), 1u);
  EXPECT_EQ(fix.b_dev->received[0].dst, net::Ipv4(10, 0, 0, 2));
  EXPECT_EQ(fix.c_dev->received[0].dst, net::Ipv4(10, 0, 0, 3));
  // Same payload fingerprint on both copies.
  EXPECT_EQ(fix.b_dev->received[0].content_tag, 42u);
  EXPECT_EQ(fix.c_dev->received[0].content_tag, 42u);
}

TEST(SdnSwitch, SelectGroupPicksOneStableBucket) {
  // ECMP semantics: each flow consistently exits one port; across many
  // flows both ports carry traffic.
  SwitchFixture fix;
  GroupEntry group;
  group.group_id = 9;
  group.type = GroupType::kSelect;
  group.buckets = {{Output{1}}, {Output{2}}};
  ASSERT_TRUE(fix.sw_dev->table().add_group(group));
  FlowRule rule;
  rule.priority = 10;
  rule.actions = {GroupAction{9}};
  ASSERT_TRUE(fix.sw_dev->table().add_rule(rule));

  // 16 flows, 3 packets each.
  for (int flow = 0; flow < 16; ++flow) {
    for (int p = 0; p < 3; ++p) {
      fix.network.transmit(
          fix.a, 0,
          make_packet({10, 0, 0, 1}, {10, 0, 0, 9},
                      static_cast<net::L4Port>(30000 + flow), 80));
    }
  }
  fix.simulator.run_until();
  EXPECT_EQ(fix.b_dev->received.size() + fix.c_dev->received.size(), 48u);
  EXPECT_GT(fix.b_dev->received.size(), 0u);
  EXPECT_GT(fix.c_dev->received.size(), 0u);
  // Per-flow stability: all three packets of one flow took one port.
  for (int flow = 0; flow < 16; ++flow) {
    const net::L4Port sport = static_cast<net::L4Port>(30000 + flow);
    int via_b = 0, via_c = 0;
    for (const auto& p : fix.b_dev->received) via_b += p.sport == sport;
    for (const auto& p : fix.c_dev->received) via_c += p.sport == sport;
    EXPECT_TRUE((via_b == 3 && via_c == 0) || (via_b == 0 && via_c == 3))
        << "flow " << flow << " split across ports";
  }
}

TEST(SdnSwitch, DropActionDiscards) {
  SwitchFixture fix;
  FlowRule rule;
  rule.priority = 10;
  rule.actions = {DropAction{}};
  ASSERT_TRUE(fix.sw_dev->table().add_rule(rule));
  fix.network.transmit(fix.a, 0, make_packet({1, 1, 1, 1}, {2, 2, 2, 2}));
  fix.simulator.run_until();
  EXPECT_EQ(fix.b_dev->received.size(), 0u);
  EXPECT_EQ(fix.sw_dev->dropped(), 1u);
}

TEST(SdnSwitch, MissWithoutHandlerDrops) {
  SwitchFixture fix;
  fix.network.transmit(fix.a, 0, make_packet({1, 1, 1, 1}, {2, 2, 2, 2}));
  fix.simulator.run_until();
  EXPECT_EQ(fix.sw_dev->dropped(), 1u);
  EXPECT_EQ(fix.sw_dev->table().stats().misses, 1u);
}

TEST(SdnSwitch, TableStatsSurfaced) {
  SwitchFixture fix;
  FlowRule rule;
  rule.priority = 10;
  rule.match = exact_match({10, 0, 0, 1}, {10, 0, 0, 2}, 100, 200,
                           net::kNoMpls);
  rule.actions = {Output{1}};
  ASSERT_TRUE(fix.sw_dev->table().add_rule(rule));

  fix.network.transmit(fix.a, 0, make_packet({10, 0, 0, 1}, {10, 0, 0, 2}));
  fix.network.transmit(fix.a, 0, make_packet({9, 9, 9, 9}, {8, 8, 8, 8}));
  fix.simulator.run_until();
  const TableStats& stats = fix.sw_dev->table_stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.index_hits, 1u);
  EXPECT_EQ(stats.scan_fallbacks, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.lookups,
            stats.index_hits + stats.scan_fallbacks + stats.misses);
}

TEST(SdnSwitch, LookupChargesCpu) {
  SwitchFixture fix;
  FlowRule rule;
  rule.priority = 1;
  rule.actions = {Output{1}};
  ASSERT_TRUE(fix.sw_dev->table().add_rule(rule));
  fix.network.transmit(fix.a, 0, make_packet({1, 1, 1, 1}, {2, 2, 2, 2}));
  fix.simulator.run_until();
  EXPECT_GT(fix.sw_dev->cpu().busy_time(), 0u);
}

}  // namespace
}  // namespace mic::switchd
