// Tests for the extension features: link-failure repair, random loss
// injection, distributed-controller ID-space partitioning (Sec VI-C),
// the client-side channel pool (Sec IV-B1) and rate-based analysis.
#include <gtest/gtest.h>

#include "anonymity/attacks.hpp"
#include "core/audit_registry.hpp"
#include "core/collision_audit.hpp"
#include "core/fabric.hpp"
#include "core/mic_client.hpp"
#include "tor/client.hpp"
#include "tor/relay.hpp"

namespace mic {
namespace {

using core::Fabric;
using core::FabricOptions;
using core::MicChannel;
using core::MicChannelOptions;
using core::MicServer;

topo::LinkId link_on_path(const topo::Graph& graph, const topo::Path& path,
                          std::size_t hop) {
  return graph.link_between(path[hop], path[hop + 1]);
}

struct Bed {
  explicit Bed(FabricOptions options = {}) : fabric(options) {
    server = std::make_unique<MicServer>(fabric.host(12), 7000, fabric.rng());
    server->set_on_channel([this](core::MicServerChannel& channel) {
      channel.set_on_data([this](const transport::ChunkView& view) {
        received += view.length;
      });
    });
  }

  MicChannelOptions options() {
    MicChannelOptions o;
    o.responder_ip = fabric.ip(12);
    o.responder_port = 7000;
    return o;
  }

  Fabric fabric;
  std::unique_ptr<MicServer> server;
  std::uint64_t received = 0;
};

// --- link failure + repair ----------------------------------------------------

TEST(LinkFailure, DownLinkDropsPackets) {
  Bed bed;
  // Fail host 0's access link; its TCP SYN goes nowhere.
  const auto host0 = bed.fabric.host_node(0);
  const auto access =
      bed.fabric.network().graph().neighbors(host0)[0].link;
  bed.fabric.network().set_link_up(access, false);
  EXPECT_FALSE(bed.fabric.network().link_up(access));

  auto& conn = bed.fabric.host(0).connect(bed.fabric.ip(12), 7000);
  bed.fabric.simulator().run_until(sim::milliseconds(500));
  EXPECT_NE(conn.state(), transport::TcpConnection::State::kEstablished);
  EXPECT_GT(bed.fabric.network().total_drops(), 0u);

  bed.fabric.network().set_link_up(access, true);
  bed.fabric.simulator().run_until(sim::seconds(20));
  // The SYN retransmission eventually gets through.
  EXPECT_EQ(conn.state(), transport::TcpConnection::State::kEstablished);
}

TEST(LinkFailure, McRepairsChannelMidTransfer) {
  Bed bed;
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options(),
                     bed.fabric.rng());
  bed.fabric.simulator().run_until();
  ASSERT_TRUE(channel.ready());

  const auto* state = bed.fabric.mc().channel(channel.id());
  const auto& plan = state->flows[0];
  // A fabric-interior link in the middle of the path (never an access
  // link).
  const topo::LinkId victim =
      link_on_path(bed.fabric.network().graph(), plan.path,
                   plan.path.size() / 2);

  constexpr std::uint64_t kBytes = 2 * 1024 * 1024;
  channel.send(transport::Chunk::virtual_bytes(kBytes));
  // Let the transfer get going, then yank the link and repair.
  bed.fabric.simulator().run_until(bed.fabric.simulator().now() +
                                   sim::milliseconds(4));
  bed.fabric.network().set_link_up(victim, false);
  const auto outcome = bed.fabric.mc().fail_link(victim);
  EXPECT_EQ(outcome.repaired, 1u);
  EXPECT_EQ(outcome.lost, 0u);

  bed.fabric.simulator().run_until();
  EXPECT_EQ(bed.received, kBytes);

  // The repaired route avoids the dead link and the audit stays clean.
  const auto& new_plan = bed.fabric.mc().channel(channel.id())->flows[0];
  for (std::size_t i = 0; i + 1 < new_plan.path.size(); ++i) {
    EXPECT_NE(link_on_path(bed.fabric.network().graph(), new_plan.path, i),
              victim);
  }
  EXPECT_TRUE(core::audit_collisions(bed.fabric.mc()).ok);
}

TEST(LinkFailure, EndpointsSurviveRepair) {
  // The transport connection must not notice the migration: entry and
  // presented addresses stay fixed.
  Bed bed;
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options(),
                     bed.fabric.rng());
  bed.fabric.simulator().run_until();
  const auto before = bed.fabric.mc().channel(channel.id())->flows[0];

  const topo::LinkId victim = link_on_path(
      bed.fabric.network().graph(), before.path, before.path.size() / 2);
  bed.fabric.network().set_link_up(victim, false);
  bed.fabric.mc().fail_link(victim);
  bed.fabric.simulator().run_until();

  const auto& after = bed.fabric.mc().channel(channel.id())->flows[0];
  EXPECT_EQ(after.flow_id, before.flow_id);
  EXPECT_EQ(after.forward.front().dst, before.forward.front().dst);     // entry
  EXPECT_EQ(after.forward.front().dport, before.forward.front().dport);
  EXPECT_EQ(after.forward.back().src, before.forward.back().src);       // presented
  EXPECT_EQ(after.forward.back().sport, before.forward.back().sport);
}

TEST(LinkFailure, UnrepairableChannelIsTornDown) {
  Bed bed;
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options(),
                     bed.fabric.rng());
  bed.fabric.simulator().run_until();
  ASSERT_TRUE(channel.ready());

  // The responder's access link is on every possible path.
  const auto resp = bed.fabric.host_node(12);
  const auto access = bed.fabric.network().graph().neighbors(resp)[0].link;
  bed.fabric.network().set_link_up(access, false);
  const auto outcome = bed.fabric.mc().fail_link(access);
  EXPECT_EQ(outcome.repaired, 0u);
  EXPECT_EQ(outcome.lost, 1u);
  EXPECT_EQ(bed.fabric.mc().channel(channel.id()), nullptr);
  EXPECT_EQ(bed.fabric.mc().registry().active_flow_count(), 0u);
}

TEST(LinkFailure, NewChannelsAvoidFailedLinks) {
  Bed bed;
  // Fail one core switch's links entirely.
  const topo::NodeId core = bed.fabric.fattree().core_switches()[0];
  for (const auto& adj : bed.fabric.network().graph().neighbors(core)) {
    bed.fabric.network().set_link_up(adj.link, false);
    bed.fabric.mc().fail_link(adj.link);
  }
  // Channels still establish and deliver, never touching the dead core.
  for (int i = 0; i < 5; ++i) {
    MicChannel channel(bed.fabric.host(static_cast<std::size_t>(i)),
                       bed.fabric.mc(), bed.options(), bed.fabric.rng());
    bed.fabric.simulator().run_until();
    ASSERT_TRUE(channel.ready()) << channel.error();
    const auto& plan = bed.fabric.mc().channel(channel.id())->flows[0];
    for (const topo::NodeId node : plan.path) EXPECT_NE(node, core);
  }
}

TEST(LinkFailure, CommonFlowsRerouteAroundFailure) {
  // Fast failover for the default routing: a bulk TCP flow survives the
  // loss of one fabric link mid-transfer once the MC reroutes.
  Bed bed;
  constexpr std::uint64_t kBytes = 4 * 1024 * 1024;
  std::uint64_t received = 0;
  bed.fabric.host(12).listen(6000, [&](transport::TcpConnection& conn) {
    conn.set_on_data(
        [&](const transport::ChunkView& view) { received += view.length; });
  });
  auto& conn = bed.fabric.host(0).connect(bed.fabric.ip(12), 6000);
  conn.set_on_ready([&] { conn.send(transport::Chunk::virtual_bytes(kBytes)); });

  // Let it ramp, then find a busy fabric-interior link and cut it.
  bed.fabric.simulator().run_until(bed.fabric.simulator().now() +
                                   sim::milliseconds(5));
  const auto& graph = bed.fabric.network().graph();
  topo::LinkId victim = topo::kInvalidLink;
  for (const topo::NodeId sw : graph.switches()) {
    for (const auto& adj : graph.neighbors(sw)) {
      if (!graph.is_switch(adj.peer) || sw > adj.peer) continue;  // interior, once
      if (bed.fabric.network().stats(adj.link, 0).packets > 100) {
        victim = adj.link;
        break;
      }
    }
    if (victim != topo::kInvalidLink) break;
  }
  ASSERT_NE(victim, topo::kInvalidLink) << "no busy interior link found";

  bed.fabric.network().set_link_up(victim, false);
  bed.fabric.mc().fail_link(victim);
  bed.fabric.simulator().run_until();
  EXPECT_EQ(received, kBytes);
}

TEST(LinkFailure, TorCircuitDiesWithItsRelay) {
  // The architectural contrast: an overlay circuit cannot be repaired by
  // the network -- when a relay's access link dies, the circuit is gone
  // and the endpoints' TCP eventually aborts.  (MIC channels survive the
  // equivalent failure; see McRepairsChannelMidTransfer.)
  Fabric fabric;
  std::vector<std::unique_ptr<tor::TorRelay>> relays;
  std::vector<tor::RelayAddr> path;
  for (int i = 0; i < 2; ++i) {
    const std::size_t host = 8 + static_cast<std::size_t>(i);
    relays.push_back(std::make_unique<tor::TorRelay>(fabric.host(host), 9001,
                                                     fabric.rng()));
    path.push_back({fabric.ip(host), 9001});
  }
  std::uint64_t received = 0;
  fabric.host(15).listen(5000, [&](transport::TcpConnection& conn) {
    conn.set_on_data(
        [&](const transport::ChunkView& view) { received += view.length; });
  });
  tor::TorClient client(fabric.host(0), path, fabric.ip(15), 5000,
                        fabric.rng());
  client.send(transport::Chunk::virtual_bytes(8 * 1024 * 1024));
  // Telescoping + per-cell relay scheduling makes the circuit slow to
  // come up; give the transfer time to flow before the failure.
  fabric.simulator().run_until(fabric.simulator().now() +
                               sim::milliseconds(60));
  const std::uint64_t before = received;
  EXPECT_GT(before, 0u);

  // Kill the first relay's access link.
  const auto relay_node = fabric.host_node(8);
  fabric.network().set_link_up(
      fabric.network().graph().neighbors(relay_node)[0].link, false);
  fabric.simulator().run_until();  // terminates: TCP gives up after max RTOs

  EXPECT_LT(received, 8ull * 1024 * 1024);  // the transfer never completes
}

// --- random loss ---------------------------------------------------------------

TEST(RandomLoss, TcpSurvivesHalfPercentLoss) {
  FabricOptions options;
  options.link.random_drop_probability = 0.005;
  Fabric fabric(options);
  std::uint64_t received = 0;
  fabric.host(12).listen(6000, [&](transport::TcpConnection& conn) {
    conn.set_on_data(
        [&](const transport::ChunkView& view) { received += view.length; });
  });
  auto& conn = fabric.host(0).connect(fabric.ip(12), 6000);
  conn.set_on_ready(
      [&] { conn.send(transport::Chunk::virtual_bytes(1024 * 1024)); });
  fabric.simulator().run_until();
  EXPECT_EQ(received, 1024u * 1024u);
  EXPECT_GT(conn.retransmissions(), 0u);
}

TEST(RandomLoss, MimicChannelSurvivesLoss) {
  FabricOptions options;
  options.link.random_drop_probability = 0.003;
  Bed bed(options);
  auto channel_options = bed.options();
  channel_options.flow_count = 2;
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), channel_options,
                     bed.fabric.rng());
  channel.send(transport::Chunk::virtual_bytes(1024 * 1024));
  bed.fabric.simulator().run_until();
  EXPECT_EQ(bed.received, 1024u * 1024u);
}

// --- distributed controllers (Sec VI-C) -----------------------------------------

TEST(DistributedControllers, DisjointIdSpacesStayCollisionFree) {
  FabricOptions options;
  options.mic.shared_secret_seed = 0xD15EA5E;
  options.mic.flow_ids = {1, 1000};
  options.mic.instance_id = 0;
  Fabric fabric(options);

  core::MicConfig config2;
  config2.shared_secret_seed = 0xD15EA5E;  // same deployment secrets
  config2.flow_ids = {1001, 1000};         // disjoint ID slice
  config2.instance_id = 1;
  core::MimicController mc2(fabric.network(), fabric.mc().addressing(),
                            /*seed=*/999, config2);

  // The deployment-wide secrets really are shared.
  for (const topo::NodeId sw : fabric.network().graph().switches()) {
    EXPECT_EQ(fabric.mc().registry().s_id(sw), mc2.registry().s_id(sw));
  }
  EXPECT_EQ(fabric.mc().registry().c_id(), mc2.registry().c_id());

  // Each controller establishes channels between disjoint host pairs.
  std::vector<core::ChannelId> ids1, ids2;
  for (int i = 0; i < 6; ++i) {
    core::EstablishRequest request;
    request.initiator_ip = fabric.ip(static_cast<std::size_t>(i));
    request.responder_ip = fabric.ip(static_cast<std::size_t>(8 + i));
    request.responder_port = 7000;
    request.initiator_sports = {static_cast<net::L4Port>(41000 + i)};
    auto& mc = (i % 2 == 0) ? fabric.mc() : mc2;
    const auto result = mc.establish(request);
    ASSERT_TRUE(result.ok) << result.error;
    (i % 2 == 0 ? ids1 : ids2).push_back(result.channel);
  }

  // Channel IDs (= rule cookies) never collide across instances.
  for (const auto a : ids1) {
    for (const auto b : ids2) EXPECT_NE(a, b);
  }

  // Global audit: no two rules share a match on any switch, and every MN
  // rewrite hashes to a flow ID active in exactly one controller.
  auto& reg1 = fabric.mc().registry();
  auto& reg2 = mc2.registry();
  for (const topo::NodeId sw : fabric.network().graph().switches()) {
    const auto& rules = fabric.mc().switch_at(sw)->table().rules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
      for (std::size_t j = i + 1; j < rules.size(); ++j) {
        EXPECT_FALSE(rules[i].match == rules[j].match)
            << "two rules share one match on switch " << sw;
      }
      const auto label = rules[i].match.mpls.value_or(net::kNoMpls);
      if (rules[i].priority == ctrl::kPriorityMFlow && label != net::kNoMpls) {
        const auto cls = reg1.class_of_label(label);
        const topo::NodeId generator = reg1.switch_of_class(cls);
        ASSERT_NE(generator, topo::kInvalidNode);
        const core::MTuple tuple{*rules[i].match.src, *rules[i].match.dst,
                                 *rules[i].match.sport, *rules[i].match.dport,
                                 label};
        const auto flow = reg1.flow_id_of(generator, tuple);
        EXPECT_TRUE(reg1.flow_id_active(flow) ^ reg2.flow_id_active(flow))
            << "flow " << flow << " active in neither or both controllers";
      }
    }
  }
}

/// Establishes 20 partially multicast channels (F=1, N=3, 2 decoys) on a
/// k=4 fabric whose MC runs as `instance_id`; returns how many succeed.
int establish_decoy_channels(std::uint32_t instance_id) {
  FabricOptions options;
  options.seed = 3;
  options.mic.instance_id = instance_id;
  Fabric fabric(options);
  int established = 0;
  for (int i = 0; i < 20; ++i) {
    core::EstablishRequest request;
    request.initiator_ip = fabric.ip(static_cast<std::size_t>(i % 16));
    request.responder_ip = fabric.ip(static_cast<std::size_t>((i + 7) % 16));
    request.responder_port = 7000;
    request.initiator_sports = {static_cast<net::L4Port>(41000 + i)};
    request.multicast_decoys = 2;
    if (fabric.mc().establish(request).ok) ++established;
  }
  return established;
}

TEST(DistributedControllers, HighestInstanceIdKeepsItsGroupsClearOfL3) {
  // Instance 127's multicast groups end just below the default routing's
  // ECMP group range, so every decoy group installs.
  EXPECT_EQ(establish_decoy_channels(127), 20);
}

TEST(DistributedControllers, InstanceIdPastTheGroupRangeDies) {
  // Instance 128's group IDs would start inside the L3 app's range.
  EXPECT_DEATH(establish_decoy_channels(128), "instance_id");
}

TEST(DistributedControllers, RangeExhaustionDies) {
  core::MagaRegistry registry{Rng(1), core::FlowIdRange{10, 3}};
  EXPECT_EQ(registry.allocate_flow_id(), 10);
  EXPECT_EQ(registry.allocate_flow_id(), 11);
  EXPECT_EQ(registry.allocate_flow_id(), 12);
  // An exhausted range answers kInvalidFlowId instead of aborting...
  EXPECT_EQ(registry.allocate_flow_id(), core::kInvalidFlowId);
  EXPECT_EQ(registry.active_flow_count(), 3u);
  // ...and a released ID can be allocated again.
  registry.release_flow_id(11);
  EXPECT_EQ(registry.allocate_flow_id(), 11);
  EXPECT_EQ(registry.allocate_flow_id(), core::kInvalidFlowId);
}

TEST(DistributedControllers, ExhaustedRangeFailsTheRequestCleanly) {
  // Eight flow IDs: one F=6 channel fits, a second one from the same
  // client runs out after two more.
  FabricOptions options;
  options.mic.flow_ids = {1, 8};
  Fabric fabric(options);
  auto& mc = fabric.mc();
  core::EstablishRequest request;
  request.initiator_ip = fabric.ip(0);
  request.responder_ip = fabric.ip(12);
  request.responder_port = 7000;
  request.flow_count = 6;
  auto use_ports = [&request](int base) {
    request.initiator_sports.clear();
    for (int f = 0; f < request.flow_count; ++f) {
      request.initiator_sports.push_back(static_cast<net::L4Port>(base + f));
    }
  };
  use_ports(41000);
  const core::EstablishResult first = mc.establish(request);
  ASSERT_TRUE(first.ok) << first.error;

  const std::uint64_t rules_before = mc.rules_installed();
  use_ports(41010);
  const core::EstablishResult second = mc.establish(request);
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(second.error, "m-flow ID range exhausted");
  EXPECT_EQ(mc.rules_installed(), rules_before);
  EXPECT_EQ(mc.registry().active_flow_count(), 6u);
  EXPECT_EQ(mc.active_channel_count(), 1u);
  const audit::RunReport report = audit::run_all(fabric);
  EXPECT_TRUE(report.ok) << report.first_violation();

  // Tearing the first channel down returns its IDs.
  mc.teardown(first.channel);
  const core::EstablishResult third = mc.establish(request);
  EXPECT_TRUE(third.ok) << third.error;
  EXPECT_EQ(mc.registry().active_flow_count(), 6u);
  EXPECT_TRUE(audit::run_all(fabric).ok);
}

// --- channel pool ----------------------------------------------------------------

TEST(ChannelPool, ReusesIdleMatchingChannel) {
  Bed bed;
  core::MicChannelPool pool(bed.fabric.host(0), bed.fabric.mc(),
                            bed.fabric.rng());
  MicChannel& first = pool.acquire(bed.options());
  bed.fabric.simulator().run_until();
  ASSERT_TRUE(first.ready());
  const core::ChannelId id = first.id();
  const auto requests_before = bed.fabric.mc().requests_handled();

  pool.release(first);
  bed.fabric.simulator().run_until();
  EXPECT_EQ(pool.idle_count(), 1u);

  MicChannel& second = pool.acquire(bed.options());
  bed.fabric.simulator().run_until();
  EXPECT_EQ(&second, &first);                       // same channel object
  EXPECT_EQ(second.id(), id);                       // same mimic channel
  EXPECT_EQ(bed.fabric.mc().requests_handled(), requests_before);  // no new request
  EXPECT_EQ(pool.idle_count(), 0u);
}

TEST(ChannelPool, DifferentOptionsGetDifferentChannels) {
  Bed bed;
  core::MicChannelPool pool(bed.fabric.host(0), bed.fabric.mc(),
                            bed.fabric.rng());
  MicChannel& plain = pool.acquire(bed.options());
  bed.fabric.simulator().run_until();
  pool.release(plain);
  bed.fabric.simulator().run_until();

  auto options = bed.options();
  options.flow_count = 3;  // different shape: no reuse
  MicChannel& striped = pool.acquire(options);
  EXPECT_NE(&striped, &plain);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(ChannelPool, DrainTearsDownEverything) {
  Bed bed;
  core::MicChannelPool pool(bed.fabric.host(0), bed.fabric.mc(),
                            bed.fabric.rng());
  pool.acquire(bed.options());
  bed.fabric.simulator().run_until();
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 1u);
  pool.drain();
  bed.fabric.simulator().run_until();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 0u);
}

// --- rate-based analysis ------------------------------------------------------------

TEST(RateAnalysis, MultipleMFlowsHideChannelRate) {
  auto observed_rate = [](int flows) {
    Bed bed;
    auto options = bed.options();
    options.flow_count = flows;
    MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), options,
                       bed.fabric.rng());
    bed.fabric.simulator().run_until();
    const auto& plan = bed.fabric.mc().channel(channel.id())->flows[0];
    anonymity::Observer observer;
    observer.compromise_switch(bed.fabric.network(),
                               plan.path[plan.mn_positions[1]]);
    channel.send(transport::Chunk::virtual_bytes(1024 * 1024));
    bed.fabric.simulator().run_until();
    return anonymity::observed_rate_bps(observer.ingress(),
                                        plan.forward[1].src,
                                        plan.forward[1].dst);
  };

  const double single = observed_rate(1);
  const double striped = observed_rate(4);
  EXPECT_GT(single, 0.5e9);          // one m-flow shows ~the channel rate
  EXPECT_LT(striped, single * 0.6);  // striping hides it
  EXPECT_GT(striped, 0.0);
}

}  // namespace
}  // namespace mic
