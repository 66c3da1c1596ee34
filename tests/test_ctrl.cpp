// Tests for the controller framework and the proactive L3 routing app:
// rule coverage, CF tagging, ECMP via SELECT groups, southbound latency.
#include <gtest/gtest.h>

#include <set>

#include "core/fabric.hpp"
#include "core/mic_client.hpp"
#include "ctrl/l3_routing.hpp"
#include "transport/apps.hpp"

namespace mic::ctrl {
namespace {

using core::Fabric;

TEST(L3Routing, EveryHostPairConnected) {
  Fabric fabric;
  // All 16x15 ordered pairs deliver (a sweep over the whole rule set).
  int pending = 0;
  for (std::size_t a = 0; a < 4; ++a) {  // a sample of sources
    for (std::size_t b = 0; b < fabric.host_count(); ++b) {
      if (a == b) continue;
      ++pending;
      const net::L4Port port = static_cast<net::L4Port>(6000 + b);
      fabric.host(b).listen(port, [&pending](transport::TcpConnection& conn) {
        conn.set_on_ready([&pending] { --pending; });
      });
      fabric.host(a).connect(fabric.ip(b), port);
    }
  }
  fabric.simulator().run_until();
  EXPECT_EQ(pending, 0);
}

TEST(L3Routing, EcmpSelectGroupsInstalledOnTransit) {
  Fabric fabric;
  // Edge switches have two equal-cost uplinks toward other pods, so their
  // inter-pod transit rules must use SELECT groups.
  const topo::NodeId edge = fabric.fattree().edge_switches()[0];
  const auto& table = fabric.mc().switch_at(edge)->table();
  bool found_select = false;
  for (const auto& rule : table.rules()) {
    for (const auto& action : rule.actions) {
      if (const auto* grp = std::get_if<switchd::GroupAction>(&action)) {
        const auto* group = table.group(grp->group_id);
        ASSERT_NE(group, nullptr);
        if (group->type == switchd::GroupType::kSelect) {
          found_select = true;
          EXPECT_GE(group->buckets.size(), 2u);
        }
      }
    }
  }
  EXPECT_TRUE(found_select);
}

TEST(L3Routing, EcmpSpreadsFlowsByPorts) {
  // Two flows between the same host pair but different ports should (for
  // this seed) take different uplinks -- measure by core-switch traffic.
  Fabric fabric;
  std::uint64_t received = 0;
  for (int i = 0; i < 8; ++i) {
    const net::L4Port port = static_cast<net::L4Port>(6100 + i);
    fabric.host(12).listen(port, [&](transport::TcpConnection& conn) {
      conn.set_on_data(
          [&](const transport::ChunkView& view) { received += view.length; });
    });
    auto& conn = fabric.host(0).connect(fabric.ip(12), port);
    conn.set_on_ready(
        [&conn] { conn.send(transport::Chunk::virtual_bytes(256 * 1024)); });
  }
  fabric.simulator().run_until();
  EXPECT_EQ(received, 8ull * 256 * 1024);

  // More than one core switch forwarded traffic.
  int cores_used = 0;
  for (const topo::NodeId core : fabric.fattree().core_switches()) {
    if (fabric.mc().switch_at(core)->forwarded() > 0) ++cores_used;
  }
  EXPECT_GE(cores_used, 2);
}

TEST(L3Routing, SelectBucketStablePerFlow) {
  net::Packet a;
  a.src = net::Ipv4(10, 0, 0, 2);
  a.dst = net::Ipv4(10, 3, 0, 2);
  a.sport = 12345;
  a.dport = 80;
  const auto bucket1 = switchd::select_bucket(a, 4, 99);
  // Different salts (different switches) decorrelate the choice space.
  std::set<std::size_t> salted;
  for (std::uint64_t salt = 0; salt < 32; ++salt) {
    salted.insert(switchd::select_bucket(a, 4, salt));
  }
  EXPECT_EQ(salted.size(), 4u);
  a.mpls = 0xdeadbeef;  // labels must not re-path a flow
  EXPECT_EQ(switchd::select_bucket(a, 4, 99), bucket1);

  // Different ports usually land elsewhere (not guaranteed per pair, but
  // across many ports the spread must be non-trivial).
  std::set<std::size_t> buckets;
  for (int p = 0; p < 64; ++p) {
    a.sport = static_cast<net::L4Port>(40000 + p);
    buckets.insert(switchd::select_bucket(a, 4, 99));
  }
  EXPECT_EQ(buckets.size(), 4u);
}

TEST(Controller, SouthboundLatencyDelaysInstall) {
  Fabric fabric;
  const topo::NodeId sw = fabric.fattree().core_switches()[0];
  const std::size_t before = fabric.mc().switch_at(sw)->table().rule_count();

  switchd::FlowRule rule;
  rule.priority = 200;
  rule.match.src = net::Ipv4(1, 2, 3, 4);
  rule.cookie = 777;
  bool confirmed = false;
  fabric.mc().install_rule_checked(sw, rule,
                                   [&](bool ok) { confirmed = ok; });

  // Not yet installed...
  const sim::SimTime latency = kSouthboundLatency;
  EXPECT_EQ(fabric.mc().switch_at(sw)->table().rule_count(), before);
  fabric.simulator().run_until(latency / 2);
  EXPECT_EQ(fabric.mc().switch_at(sw)->table().rule_count(), before);
  // ...but installed after the southbound latency, and confirmed only
  // once the reply has travelled back.
  fabric.simulator().run_until(latency);
  EXPECT_EQ(fabric.mc().switch_at(sw)->table().rule_count(), before + 1);
  EXPECT_FALSE(confirmed);
  fabric.simulator().run_until();
  EXPECT_TRUE(confirmed);
  fabric.mc().remove_cookie(sw, 777, /*immediate=*/true);
}

TEST(Controller, IdleChannelsReclaimed) {
  Fabric fabric;
  core::MicServer server(fabric.host(12), 7000, fabric.rng());
  core::MicChannelOptions options;
  options.responder_ip = fabric.ip(12);
  options.responder_port = 7000;
  core::MicChannel channel(fabric.host(0), fabric.mc(), options,
                           fabric.rng());
  fabric.simulator().run_until();
  ASSERT_TRUE(channel.ready());

  channel.release_for_reuse();
  fabric.simulator().run_until();
  ASSERT_TRUE(fabric.mc().channel(channel.id())->idle);

  // Not yet stale.
  fabric.simulator().run_until(fabric.simulator().now() + sim::seconds(1));
  EXPECT_EQ(fabric.mc().reclaim_idle(sim::seconds(10)), 0u);
  EXPECT_EQ(fabric.mc().active_channel_count(), 1u);

  // Stale after the timeout.
  fabric.simulator().run_until(fabric.simulator().now() + sim::seconds(10));
  EXPECT_EQ(fabric.mc().reclaim_idle(sim::seconds(10)), 1u);
  fabric.simulator().run_until();
  EXPECT_EQ(fabric.mc().active_channel_count(), 0u);
  EXPECT_EQ(fabric.mc().registry().active_flow_count(), 0u);
}

TEST(Controller, HostAddressingLookups) {
  Fabric fabric;
  const auto& addressing = fabric.mc().addressing();
  for (std::size_t i = 0; i < fabric.host_count(); ++i) {
    const topo::NodeId node = fabric.host_node(i);
    EXPECT_EQ(addressing.ip_of(node), fabric.ip(i));
    EXPECT_EQ(addressing.host_of(fabric.ip(i)), node);
  }
  EXPECT_EQ(addressing.host_of(net::Ipv4(8, 8, 8, 8)), topo::kInvalidNode);
}

}  // namespace
}  // namespace mic::ctrl
