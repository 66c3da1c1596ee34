// End-to-end tests of the MIC system: channel establishment, in-network
// rewriting, unlinkability on the wire, collision avoidance, hidden
// services, multiple m-flows, MIC-SSL, partial multicast, teardown, reuse.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "anonymity/observer.hpp"
#include "core/audit_registry.hpp"
#include "core/collision_audit.hpp"
#include "core/fabric.hpp"
#include "core/mic_client.hpp"
#include "core/socket_api.hpp"

namespace mic::core {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

struct MicBed {
  explicit MicBed(FabricOptions options = {}) : fabric(options) {}

  /// A server host listening for MIC channels on port 7000.
  MicServer& serve(std::size_t host_index, bool use_ssl = false) {
    server = std::make_unique<MicServer>(fabric.host(host_index), 7000,
                                         fabric.rng(), use_ssl);
    return *server;
  }

  MicChannelOptions options_to(std::size_t host_index) {
    MicChannelOptions options;
    options.responder_ip = fabric.ip(host_index);
    options.responder_port = 7000;
    return options;
  }

  Fabric fabric;
  std::unique_ptr<MicServer> server;
};

TEST(MicEstablish, PlanHasRequestedShape) {
  MicBed bed;
  EstablishRequest request;
  request.initiator_ip = bed.fabric.ip(0);
  request.responder_ip = bed.fabric.ip(12);  // different pod
  request.responder_port = 7000;
  request.flow_count = 2;
  request.mn_count = 3;
  request.initiator_sports = {40001, 40002};

  const EstablishResult result = bed.fabric.mc().establish(request);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.entries.size(), 2u);

  const ChannelState* state = bed.fabric.mc().channel(result.channel);
  ASSERT_NE(state, nullptr);
  ASSERT_EQ(state->flows.size(), 2u);
  for (const MFlowPlan& plan : state->flows) {
    EXPECT_EQ(plan.mn_positions.size(), 3u);
    EXPECT_TRUE(std::is_sorted(plan.mn_positions.begin(),
                               plan.mn_positions.end()));
    EXPECT_EQ(plan.forward.size(), 4u);
    EXPECT_EQ(plan.reverse.size(), 4u);
    // First segment: real initiator, fake destination.
    EXPECT_EQ(plan.forward[0].src, bed.fabric.ip(0));
    EXPECT_NE(plan.forward[0].dst, bed.fabric.ip(12));
    // Last segment: fake source, real responder.
    EXPECT_NE(plan.forward[3].src, bed.fabric.ip(0));
    EXPECT_EQ(plan.forward[3].dst, bed.fabric.ip(12));
    // Middle segments carry MF labels.
    EXPECT_NE(plan.forward[1].mpls, net::kNoMpls);
    EXPECT_NE(plan.forward[2].mpls, net::kNoMpls);
    EXPECT_EQ(plan.forward[3].mpls, net::kNoMpls);
  }
  // The two m-flows use distinct flow IDs and entries.
  EXPECT_NE(state->flows[0].flow_id, state->flows[1].flow_id);
  EXPECT_FALSE(result.entries[0].ip == result.entries[1].ip &&
               result.entries[0].port == result.entries[1].port);
}

TEST(MicEstablish, LongPathWhenMnCountExceedsShortest) {
  MicBed bed;
  EstablishRequest request;
  request.initiator_ip = bed.fabric.ip(0);
  request.responder_ip = bed.fabric.ip(1);  // same edge switch: 1 switch away
  request.responder_port = 7000;
  request.flow_count = 1;
  request.mn_count = 3;
  request.initiator_sports = {40001};
  const EstablishResult result = bed.fabric.mc().establish(request);
  ASSERT_TRUE(result.ok) << result.error;
  const ChannelState* state = bed.fabric.mc().channel(result.channel);
  ASSERT_EQ(state->flows.size(), 1u);
  EXPECT_GE(state->flows[0].path.size() - 2, 3u);
}

TEST(MicEstablish, RejectsMalformedRequests) {
  MicBed bed;
  EstablishRequest request;
  request.initiator_ip = bed.fabric.ip(0);
  request.responder_ip = bed.fabric.ip(0);  // self
  request.responder_port = 7000;
  request.initiator_sports = {40001};
  EXPECT_FALSE(bed.fabric.mc().establish(request).ok);

  request.responder_ip = bed.fabric.ip(1);
  request.flow_count = 2;  // but only one sport
  EXPECT_FALSE(bed.fabric.mc().establish(request).ok);

  request.flow_count = 1;
  request.responder_ip = net::Ipv4(192, 168, 0, 1);  // unknown host
  EXPECT_FALSE(bed.fabric.mc().establish(request).ok);

  EstablishRequest svc;
  svc.initiator_ip = bed.fabric.ip(0);
  svc.service_name = "no-such-service";
  svc.initiator_sports = {40001};
  EXPECT_FALSE(bed.fabric.mc().establish(svc).ok);
}

TEST(MicEndToEnd, DataRoundTripsThroughMimicChannel) {
  MicBed bed;
  bed.serve(12);
  std::string at_server;
  std::string at_client;
  bed.server->set_on_channel([&](MicServerChannel& channel) {
    channel.set_on_data([&](const transport::ChunkView& view) {
      at_server.append(view.bytes.begin(), view.bytes.end());
      if (at_server == "hello anonymous world") {
        channel.send(transport::Chunk::real(bytes_of("ack from hidden side")));
      }
    });
  });

  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options_to(12),
                     bed.fabric.rng());
  channel.set_on_data([&](const transport::ChunkView& view) {
    at_client.append(view.bytes.begin(), view.bytes.end());
  });
  channel.send(transport::Chunk::real(bytes_of("hello anonymous world")));
  bed.fabric.simulator().run_until();

  EXPECT_EQ(at_server, "hello anonymous world");
  EXPECT_EQ(at_client, "ack from hidden side");
  EXPECT_FALSE(channel.failed());
  EXPECT_GT(channel.setup_time(), 0u);
}

TEST(MicEndToEnd, MalformedSliceHeaderFailsOnlyItsConnection) {
  // Raw TCP clients skip the MC and open with bytes no MIC endpoint
  // writes.  A MIC responder gets a slice header with a bad magic, one with
  // an oversized length, and header bytes held as virtual.  A MIC-SSL
  // responder gets 4 KiB of virtual bytes, a record of unknown type 0x7f,
  // and a ClientHello header that claims 2^32-1 bytes.
  SliceHeader bad_magic;
  bad_magic.magic = 0xBAD0;
  SliceHeader too_long;
  too_long.length = kMaxSliceBytes + 1;
  struct Responder {
    bool use_ssl;
    std::vector<transport::Chunk> probes;
    std::string reason;  // why the initiator of a rogue responder fails
  };
  const Responder responders[] = {
      {false,
       {slice_header_chunk(bad_magic), slice_header_chunk(too_long),
        transport::Chunk::virtual_bytes(kSliceHeaderBytes)},
       "malformed slice header"},
      {true,
       {transport::Chunk::virtual_bytes(4096),
        transport::Chunk::real({0x7f, 0, 0, 0, 4, 0, 0, 0, 0}),
        transport::Chunk::real({1, 0xff, 0xff, 0xff, 0xff})},
       "malformed SSL record"},
  };
  for (const Responder& responder : responders) {
    SCOPED_TRACE(responder.use_ssl ? "MIC-SSL responder" : "MIC responder");
    MicBed bed;
    MicServer& server = bed.serve(12, responder.use_ssl);
    std::uint64_t at_server = 0;
    server.set_on_channel([&](MicServerChannel& channel) {
      channel.set_on_data(
          [&](const transport::ChunkView& view) { at_server += view.length; });
    });

    int closed = 0;
    for (std::size_t i = 0; i < responder.probes.size(); ++i) {
      transport::TcpConnection& conn =
          bed.fabric.host(1 + i).connect(bed.fabric.ip(12), 7000);
      conn.set_on_ready(
          [&conn, probe = responder.probes[i]] { conn.send(probe); });
      conn.set_on_closed([&closed] { ++closed; });
    }
    bed.fabric.simulator().run_until();
    EXPECT_EQ(closed, 3);
    EXPECT_EQ(server.malformed_flows(), 3u);
    EXPECT_EQ(server.channel_count(), 0u);

    // The server still serves a real channel.
    MicChannelOptions options = bed.options_to(12);
    options.use_ssl = responder.use_ssl;
    MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), options,
                       bed.fabric.rng());
    channel.send(transport::Chunk::virtual_bytes(100 * 1024));
    bed.fabric.simulator().run_until();
    EXPECT_FALSE(channel.failed());
    EXPECT_EQ(at_server, 100u * 1024);

    // A responder that answers with the first probe fails the initiator's
    // channel with a reason.
    bed.fabric.host(12).listen(
        7001, [probe = responder.probes[0]](transport::TcpConnection& conn) {
          conn.send(probe);
        });
    MicChannelOptions to_rogue = options;
    to_rogue.responder_port = 7001;
    MicChannel victim(bed.fabric.host(1), bed.fabric.mc(), to_rogue,
                      bed.fabric.rng());
    bed.fabric.simulator().run_until();
    EXPECT_TRUE(victim.failed());
    EXPECT_NE(victim.error().find(responder.reason), std::string::npos)
        << victim.error();
    EXPECT_FALSE(channel.failed());
  }
}

TEST(MicEndToEnd, NoWirePacketLinksInitiatorAndResponder) {
  // ROUTE-1 / unlinkability: tap EVERY link; no single packet may carry
  // both real endpoint addresses.
  MicBed bed;
  bed.serve(12);
  const net::Ipv4 init_ip = bed.fabric.ip(0);
  const net::Ipv4 resp_ip = bed.fabric.ip(12);

  std::uint64_t linking_packets = 0;
  std::uint64_t total_packets = 0;
  bed.fabric.network().add_global_tap(
      [&](topo::LinkId, topo::NodeId, topo::NodeId, const net::Packet& packet,
          sim::SimTime) {
        ++total_packets;
        const bool touches_init =
            packet.src == init_ip || packet.dst == init_ip;
        const bool touches_resp =
            packet.src == resp_ip || packet.dst == resp_ip;
        if (touches_init && touches_resp) ++linking_packets;
      });

  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options_to(12),
                     bed.fabric.rng());
  channel.send(transport::Chunk::virtual_bytes(256 * 1024));
  bed.fabric.simulator().run_until();

  EXPECT_GT(total_packets, 100u);
  EXPECT_EQ(linking_packets, 0u);
}

TEST(MicEndToEnd, ResponderSeesPresentedAddressNotInitiator) {
  MicBed bed;
  bed.serve(12);
  anonymity::Observer observer;
  // Tap the responder's access link.
  const auto resp_node = bed.fabric.host_node(12);
  observer.tap_link(bed.fabric.network(),
                    bed.fabric.network().graph().neighbors(resp_node)[0].link);

  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options_to(12),
                     bed.fabric.rng());
  channel.send(transport::Chunk::real(bytes_of("payload")));
  bed.fabric.simulator().run_until();

  ASSERT_FALSE(observer.records().empty());
  for (const auto& record : observer.records()) {
    // Initiator's address never appears at the responder.
    EXPECT_NE(record.src, bed.fabric.ip(0));
    EXPECT_NE(record.dst, bed.fabric.ip(0));
    // The last MN popped the label before delivery.
    EXPECT_EQ(record.mpls, net::kNoMpls);
  }
}

TEST(MicEndToEnd, CollisionAuditCleanWithManyChannels) {
  MicBed bed;
  Rng rng(1234);
  std::vector<ChannelId> ids;
  for (int i = 0; i < 20; ++i) {
    EstablishRequest request;
    const std::size_t a = rng.below(16);
    std::size_t b = a;
    while (b == a) b = rng.below(16);
    request.initiator_ip = bed.fabric.ip(a);
    request.responder_ip = bed.fabric.ip(b);
    request.responder_port = 7000;
    request.flow_count = 1 + static_cast<int>(rng.below(3));
    request.mn_count = 1 + static_cast<int>(rng.below(5));
    for (int f = 0; f < request.flow_count; ++f) {
      request.initiator_sports.push_back(
          static_cast<net::L4Port>(41000 + 10 * i + f));
    }
    const auto result = bed.fabric.mc().establish(request);
    ASSERT_TRUE(result.ok) << result.error;
    ids.push_back(result.channel);
  }
  const audit::CheckResult report = audit_collisions(bed.fabric.mc());
  for (const auto& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_TRUE(report.ok);
  EXPECT_GT(report.metric("mflow_rules"), 0u);

  // Tear half down; audit stays clean.
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    bed.fabric.mc().teardown(ids[i]);
  }
  EXPECT_TRUE(audit_collisions(bed.fabric.mc()).ok);
}

TEST(MicEndToEnd, TeardownRemovesAllRules) {
  MicBed bed;
  auto count_rules = [&] {
    std::size_t rules = 0;
    for (const topo::NodeId sw : bed.fabric.network().graph().switches()) {
      rules += bed.fabric.mc().switch_at(sw)->table().rule_count();
    }
    return rules;
  };
  const std::size_t baseline = count_rules();

  EstablishRequest request;
  request.initiator_ip = bed.fabric.ip(0);
  request.responder_ip = bed.fabric.ip(12);
  request.responder_port = 7000;
  request.initiator_sports = {40001};
  request.multicast_decoys = 2;
  const auto result = bed.fabric.mc().establish(request);
  ASSERT_TRUE(result.ok);
  EXPECT_GT(count_rules(), baseline);

  bed.fabric.mc().teardown(result.channel);
  EXPECT_EQ(count_rules(), baseline);
  EXPECT_EQ(bed.fabric.mc().registry().active_flow_count(), 0u);
  EXPECT_EQ(bed.fabric.mc().channel(result.channel), nullptr);
}

TEST(MicEndToEnd, HiddenServiceReachableByNickname) {
  MicBed bed;
  bed.serve(9);
  bed.fabric.mc().register_hidden_service("metadata-primary",
                                          bed.fabric.ip(9), 7000);
  std::string at_server;
  bed.server->set_on_channel([&](MicServerChannel& channel) {
    channel.set_on_data([&](const transport::ChunkView& view) {
      at_server.append(view.bytes.begin(), view.bytes.end());
    });
  });

  MicChannelOptions options;
  options.service_name = "metadata-primary";
  MicChannel channel(bed.fabric.host(3), bed.fabric.mc(), options,
                     bed.fabric.rng());
  channel.send(transport::Chunk::real(bytes_of("lookup /")));
  bed.fabric.simulator().run_until();
  EXPECT_EQ(at_server, "lookup /");
  // The entry address never reveals the hidden server.
  const ChannelState* state = bed.fabric.mc().channel(channel.id());
  ASSERT_NE(state, nullptr);
  EXPECT_NE(state->flows[0].forward[0].dst, bed.fabric.ip(9));
}

TEST(MicEndToEnd, MultiFlowStreamReassemblesInOrder) {
  MicBed bed;
  bed.serve(12);
  // A recognizable 200 KB pattern.
  std::vector<std::uint8_t> payload(200 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + (i >> 8));
  }
  std::vector<std::uint8_t> received;
  bed.server->set_on_channel([&](MicServerChannel& channel) {
    channel.set_on_data([&](const transport::ChunkView& view) {
      received.insert(received.end(), view.bytes.begin(), view.bytes.end());
    });
  });

  MicChannelOptions options = bed.options_to(12);
  options.flow_count = 4;
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), options,
                     bed.fabric.rng());
  channel.send(transport::Chunk::real(payload));
  bed.fabric.simulator().run_until();

  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
  // Striping actually used multiple flows.
  int used = 0;
  for (int f = 0; f < channel.flow_count(); ++f) {
    if (channel.bytes_sent_on_flow(static_cast<std::size_t>(f)) > 0) ++used;
  }
  EXPECT_GE(used, 2);
}

TEST(MicEndToEnd, MicSslEncryptsEndToEnd) {
  MicBed bed;
  bed.serve(12, /*use_ssl=*/true);
  std::string at_server;
  bed.server->set_on_channel([&](MicServerChannel& channel) {
    channel.set_on_data([&](const transport::ChunkView& view) {
      at_server.append(view.bytes.begin(), view.bytes.end());
    });
  });

  // Record all real payload bytes crossing the fabric.
  std::vector<std::uint8_t> wire;
  bed.fabric.network().add_global_tap(
      [&](topo::LinkId, topo::NodeId, topo::NodeId, const net::Packet& packet,
          sim::SimTime) {
        if (packet.payload != nullptr) {
          wire.insert(wire.end(), packet.payload->begin(),
                      packet.payload->end());
        }
      });

  MicChannelOptions options = bed.options_to(12);
  options.use_ssl = true;
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), options,
                     bed.fabric.rng());
  const std::string secret = "MIC-SSL-SECRET-PAYLOAD-42";
  channel.send(transport::Chunk::real(bytes_of(secret)));
  bed.fabric.simulator().run_until();

  EXPECT_EQ(at_server, secret);
  const std::string wire_str(wire.begin(), wire.end());
  EXPECT_EQ(wire_str.find(secret), std::string::npos);
}

TEST(MicEndToEnd, PartialMulticastDeliversExactlyOneCopy) {
  MicBed bed;
  bed.serve(12);
  std::uint64_t received = 0;
  bed.server->set_on_channel([&](MicServerChannel& channel) {
    channel.set_on_data([&](const transport::ChunkView& view) {
      received += view.length;
    });
  });

  MicChannelOptions options = bed.options_to(12);
  options.multicast_decoys = 2;
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), options,
                     bed.fabric.rng());
  channel.send(transport::Chunk::virtual_bytes(64 * 1024));
  bed.fabric.simulator().run_until();

  // Exactly the sent bytes arrive -- decoys died at their drop rules.
  EXPECT_EQ(received, 64u * 1024u);

  // The decoys were dropped at their next switches.
  const ChannelState* state = bed.fabric.mc().channel(channel.id());
  ASSERT_NE(state, nullptr);
  std::set<topo::NodeId> decoy_switches;
  for (const MFlowPlan& plan : state->flows) {
    for (const DecoyPlan& decoy : plan.decoys) {
      decoy_switches.insert(decoy.next_switch);
    }
  }
  EXPECT_FALSE(decoy_switches.empty());
  std::uint64_t decoy_drops = 0;
  for (const topo::NodeId sw : decoy_switches) {
    decoy_drops += bed.fabric.mc().switch_at(sw)->dropped();
  }
  EXPECT_GT(decoy_drops, 0u);
}

TEST(MicEndToEnd, CommonFlowsCoexistWithMimicFlows) {
  // A common (non-anonymous) TCP flow and an m-flow share the fabric; both
  // deliver correctly (the CF/MF label split prevents rule capture).
  MicBed bed;
  bed.serve(12);
  std::uint64_t mic_received = 0;
  bed.server->set_on_channel([&](MicServerChannel& channel) {
    channel.set_on_data([&](const transport::ChunkView& view) {
      mic_received += view.length;
    });
  });

  std::uint64_t common_received = 0;
  bed.fabric.host(13).listen(6000, [&](transport::TcpConnection& conn) {
    conn.set_on_data([&](const transport::ChunkView& view) {
      common_received += view.length;
    });
  });
  auto& common = bed.fabric.host(1).connect(bed.fabric.ip(13), 6000);
  common.set_on_ready(
      [&] { common.send(transport::Chunk::virtual_bytes(512 * 1024)); });

  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options_to(12),
                     bed.fabric.rng());
  channel.send(transport::Chunk::virtual_bytes(512 * 1024));
  bed.fabric.simulator().run_until();

  EXPECT_EQ(mic_received, 512u * 1024u);
  EXPECT_EQ(common_received, 512u * 1024u);
  EXPECT_TRUE(audit_collisions(bed.fabric.mc()).ok);
}

TEST(MicEndToEnd, SetupTimeIncludesControlRoundTrip) {
  MicBed bed;
  bed.serve(12);
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options_to(12),
                     bed.fabric.rng());
  bed.fabric.simulator().run_until();
  ASSERT_TRUE(channel.ready());
  // At least two control-channel traversals plus the TCP handshake.
  EXPECT_GT(channel.setup_time(),
            2 * bed.fabric.mc().mic_config().control_latency);
}

TEST(MicEndToEnd, PaperFigure2Example) {
  // The paper's didactic example (Fig. 2): Alice and Bob joined by a line
  // of three switches; every switch is an MN; the intermediate switches
  // are "not aware of the real 'src' ... and 'dst'".
  // Bystander hosts populate the 10.0.0.0/24 so the MC has cover addresses
  // to mimic (the figure's .2-.7) -- with only two hosts in the whole
  // network there would be nothing to hide behind.
  static topo::Graph line;
  static const topo::NodeId alice_node = line.add_node(topo::NodeKind::kHost);
  static const topo::NodeId s1 = line.add_node(topo::NodeKind::kSwitch);
  static const topo::NodeId s2 = line.add_node(topo::NodeKind::kSwitch);
  static const topo::NodeId s3 = line.add_node(topo::NodeKind::kSwitch);
  static const topo::NodeId bob_node = line.add_node(topo::NodeKind::kHost);
  static std::vector<topo::NodeId> bystanders;
  static const bool wired = [] {
    line.add_link(alice_node, s1);
    line.add_link(s1, s2);
    line.add_link(s2, s3);
    line.add_link(s3, bob_node);
    for (const topo::NodeId sw : {s1, s1, s2, s2, s3, s3}) {
      const topo::NodeId h = line.add_node(topo::NodeKind::kHost);
      bystanders.push_back(h);
      line.add_link(sw, h);
    }
    return true;
  }();
  (void)wired;

  const net::Ipv4 alice_ip(10, 0, 0, 1);
  const net::Ipv4 bob_ip(10, 0, 0, 8);
  std::vector<std::pair<topo::NodeId, net::Ipv4>> addrs{
      {alice_node, alice_ip}, {bob_node, bob_ip}};
  for (std::size_t i = 0; i < bystanders.size(); ++i) {
    addrs.push_back({bystanders[i], net::Ipv4(10, 0, 0, 2 + static_cast<int>(i))});
  }
  GenericFabric fabric(line, addrs);

  MicServer server(fabric.host(1), 7000, fabric.rng());
  std::string at_bob;
  server.set_on_channel([&](MicServerChannel& channel) {
    channel.set_on_data([&](const transport::ChunkView& view) {
      at_bob.append(view.bytes.begin(), view.bytes.end());
    });
  });

  MicChannelOptions options;
  options.responder_ip = bob_ip;
  options.responder_port = 7000;
  options.mn_count = 3;  // all three switches mimic, as in the figure
  MicChannel channel(fabric.host(0), fabric.mc(), options, fabric.rng());

  // Record the headers on each of the four links.
  std::vector<std::pair<net::Ipv4, net::Ipv4>> seen(4);
  fabric.network().add_global_tap(
      [&](topo::LinkId link, topo::NodeId, topo::NodeId, const net::Packet& p,
          sim::SimTime) {
        if (p.payload_bytes() > 0) seen[link] = {p.src, p.dst};
      });

  channel.send(transport::Chunk::real({'h', 'i', ' ', 'b', 'o', 'b'}));
  fabric.simulator().run_until();
  EXPECT_EQ(at_bob, "hi bob");

  // Link 0 (Alice -> S1): real src, fake dst.  Link 3 (S3 -> Bob): fake
  // src, real dst.  The middle links carry neither real address.
  EXPECT_EQ(seen[0].first, alice_ip);
  EXPECT_NE(seen[0].second, bob_ip);
  EXPECT_NE(seen[3].first, alice_ip);
  EXPECT_EQ(seen[3].second, bob_ip);
  for (int link = 1; link <= 2; ++link) {
    EXPECT_NE(seen[static_cast<std::size_t>(link)].first, alice_ip);
    EXPECT_NE(seen[static_cast<std::size_t>(link)].second, bob_ip);
  }
  // Three MNs => the header changes on every hop.
  EXPECT_NE(seen[0], seen[1]);
  EXPECT_NE(seen[1], seen[2]);
  EXPECT_NE(seen[2], seen[3]);
}

TEST(CollisionAudit, DetectsForeignMFlowRule) {
  // Negative test: the audit must actually catch violations.  Install a
  // hand-crafted "m-flow" rule whose label was never produced by the MC.
  MicBed bed;
  switchd::FlowRule rogue;
  rogue.priority = ctrl::kPriorityMFlow;
  rogue.match.src = net::Ipv4(10, 0, 0, 2);
  rogue.match.dst = net::Ipv4(10, 1, 0, 2);
  rogue.match.sport = 1111;
  rogue.match.dport = 2222;
  rogue.match.mpls = 0x12345678;
  rogue.actions = {switchd::Output{0}};
  rogue.cookie = 0xBAD;
  const topo::NodeId sw = bed.fabric.fattree().core_switches()[0];
  bed.fabric.mc().install(sw, rogue);

  const audit::CheckResult report = audit_collisions(bed.fabric.mc());
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.violations.empty());
}

TEST(CollisionAudit, DetectsRewriteToInactiveFlow) {
  // A stale rewrite rule (flow ID no longer active) must be flagged.
  MicBed bed;
  EstablishRequest request;
  request.initiator_ip = bed.fabric.ip(0);
  request.responder_ip = bed.fabric.ip(12);
  request.responder_port = 7000;
  request.initiator_sports = {40001};
  const auto result = bed.fabric.mc().establish(request);
  ASSERT_TRUE(result.ok);

  // Copy one MN rewrite rule, tear the channel down, then install the copy
  // under a different cookie at its own priority: its target flow ID is no
  // longer active.
  const auto* state = bed.fabric.mc().channel(result.channel);
  const auto& plan = state->flows[0];
  const topo::NodeId mn = plan.path[plan.mn_positions[0]];
  switchd::FlowRule clone;
  for (const auto& rule : bed.fabric.mc().switch_at(mn)->table().rules()) {
    if (rule.cookie == result.channel &&
        switchd::count_set_fields(rule.actions) > 0) {
      clone = rule;
      break;
    }
  }
  clone.cookie = 0xC10E;
  bed.fabric.mc().teardown(result.channel);
  bed.fabric.mc().install(mn, clone);

  EXPECT_FALSE(audit_collisions(bed.fabric.mc()).ok);
}


TEST(SocketApi, ConnectSendRecvClose) {
  MicBed bed;
  bed.serve(12);
  bed.server->set_on_channel([](MicServerChannel& channel) {
    auto* ch = &channel;
    channel.set_on_data([ch](const transport::ChunkView& view) {
      // Echo upper-cased.
      std::vector<std::uint8_t> reply(view.bytes.begin(), view.bytes.end());
      for (auto& b : reply) b = static_cast<std::uint8_t>(std::toupper(b));
      ch->send(transport::Chunk::real(std::move(reply)));
    });
  });

  MicSocketApi api(bed.fabric.host(0), bed.fabric.mc(), bed.fabric.rng());
  const int fd = api.mic_connect(bed.fabric.ip(12), 7000);
  EXPECT_FALSE(api.ready(fd));

  const std::string msg = "anonymize me";
  api.mic_send(fd, {reinterpret_cast<const std::uint8_t*>(msg.data()),
                    msg.size()});
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(api.ready(fd));
  ASSERT_EQ(api.readable(fd), msg.size());

  std::vector<std::uint8_t> buffer(64);
  const std::size_t n = api.mic_recv(fd, buffer);
  EXPECT_EQ(std::string(buffer.begin(), buffer.begin() + static_cast<long>(n)),
            "ANONYMIZE ME");
  EXPECT_EQ(api.readable(fd), 0u);

  api.mic_close(fd);
  bed.fabric.simulator().run_until();
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 0u);
}

TEST(SocketApi, HiddenServiceByNickname) {
  MicBed bed;
  bed.serve(9);
  bed.fabric.mc().register_hidden_service("kv-store", bed.fabric.ip(9), 7000);
  std::uint64_t served = 0;
  bed.server->set_on_channel([&](MicServerChannel& channel) {
    channel.set_on_data(
        [&](const transport::ChunkView& view) { served += view.length; });
  });

  MicSocketApi api(bed.fabric.host(3), bed.fabric.mc(), bed.fabric.rng());
  const int fd = api.mic_connect("kv-store");
  const std::vector<std::uint8_t> put{'P', 'U', 'T'};
  api.mic_send(fd, put);
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(api.ready(fd));
  EXPECT_EQ(served, 3u);

  // Unknown nicknames fail cleanly.
  const int bad = api.mic_connect("no-such-service");
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(api.failed(bad));
}

TEST(SocketApi, PartialRecvKeepsRemainder) {
  MicBed bed;
  bed.serve(12);
  bed.server->set_on_channel([](MicServerChannel& channel) {
    auto* ch = &channel;
    channel.set_on_data([ch](const transport::ChunkView&) {
      ch->send(transport::Chunk::real(
          std::vector<std::uint8_t>{'0', '1', '2', '3', '4', '5', '6', '7'}));
    });
  });
  MicSocketApi api(bed.fabric.host(0), bed.fabric.mc(), bed.fabric.rng());
  const int fd = api.mic_connect(bed.fabric.ip(12), 7000);
  api.mic_send(fd, std::vector<std::uint8_t>{'x'});
  bed.fabric.simulator().run_until();
  ASSERT_EQ(api.readable(fd), 8u);
  std::vector<std::uint8_t> buffer(3);
  EXPECT_EQ(api.mic_recv(fd, buffer), 3u);
  EXPECT_EQ(buffer, (std::vector<std::uint8_t>{'0', '1', '2'}));
  EXPECT_EQ(api.readable(fd), 5u);
}

TEST(SocketApi, ResponderClosingAfterMicCloseReachesNoFreedChannel) {
  // mic_close() destroys the channel right after close(), and the responder
  // closes before the MC's teardown removes the path: its FIN arrives at a
  // connection whose owner is gone.
  MicBed bed;
  bed.serve(12);
  MicServerChannel* served = nullptr;
  bed.server->set_on_channel([&](MicServerChannel& channel) {
    served = &channel;
  });
  MicSocketApi api(bed.fabric.host(0), bed.fabric.mc(), bed.fabric.rng());
  const int fd = api.mic_connect(bed.fabric.ip(12), 7000);
  api.mic_send(fd, std::vector<std::uint8_t>{'x'});
  bed.fabric.simulator().run_until();
  ASSERT_NE(served, nullptr);

  api.mic_close(fd);
  served->close();
  bed.fabric.simulator().run_until();
  EXPECT_EQ(bed.fabric.host(0).connection_count(), 0u);
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 0u);
}

// --- Owner lifetime ----------------------------------------------------------

TEST(MicLifetime, SynToADestroyedServerFindsNoListener) {
  MicBed bed;
  bed.serve(12);
  std::uint64_t served = 0;
  bed.server->set_on_channel([&](MicServerChannel& channel) {
    channel.set_on_data(
        [&](const transport::ChunkView& view) { served += view.length; });
  });
  {
    MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options_to(12),
                       bed.fabric.rng());
    channel.send(transport::Chunk::virtual_bytes(4096));
    bed.fabric.simulator().run_until();
    channel.close();
    bed.fabric.simulator().run_until();
  }
  EXPECT_EQ(served, 4096u);

  bed.server.reset();
  EXPECT_EQ(bed.fabric.host(12).listener_count(), 0u);
  transport::TcpConnection& probe =
      bed.fabric.host(1).connect(bed.fabric.ip(12), 7000);
  bed.fabric.simulator().run_until();
  EXPECT_FALSE(probe.ready());
  // The destroyed server's flow and the probe's SYN left nothing behind.
  EXPECT_EQ(bed.fabric.host(12).connection_count(), 0u);
}

TEST(MicLifetime, SequentialSessionsLeaveConstantStateOnBothHosts) {
  // Each session's owners are destroyed once it closed: the hosts free its
  // connections, so state stays O(1) however many sessions ran.
  constexpr int kSessions = 10000;
  MicBed bed;
  transport::Host& initiator = bed.fabric.host(0);
  transport::Host& responder = bed.fabric.host(12);
  std::size_t most_initiator = 0;
  std::size_t most_responder = 0;
  int completed = 0;
  for (int i = 0; i < kSessions; ++i) {
    MicServer server(responder, 7000, bed.fabric.rng());
    std::uint64_t served = 0;
    server.set_on_channel([&served](MicServerChannel& channel) {
      channel.set_on_data([&served](const transport::ChunkView& view) {
        served += view.length;
      });
    });
    MicChannel channel(initiator, bed.fabric.mc(), bed.options_to(12),
                       bed.fabric.rng());
    channel.send(transport::Chunk::virtual_bytes(1024));
    bed.fabric.simulator().run_until();
    channel.close();
    bed.fabric.simulator().run_until();
    completed += served == 1024 && !channel.failed();
    most_initiator = std::max(most_initiator, initiator.connection_count());
    most_responder = std::max(most_responder, responder.connection_count());
  }
  EXPECT_EQ(completed, kSessions);
  // A session's first segment on each host frees the previous session's
  // flow, so each host holds one m-flow: the running session's, and after
  // the loop the last session's, released but not yet freed.
  EXPECT_EQ(most_initiator, 1u);
  EXPECT_EQ(most_responder, 1u);
  EXPECT_EQ(initiator.connection_count(), 1u);
  EXPECT_EQ(responder.connection_count(), 1u);
  EXPECT_EQ(responder.listener_count(), 0u);
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 0u);
}

// A channel can die with control work pending: the MC holds its ack, its
// listener and its probe replies, and the simulator its one control timer.
// Each test below destroys it at one such moment; the ASan tier is what
// sees a use after free.

TEST(MicLifetime, ClosedRightAfterConnectLeavesTheMcNoChannel) {
  // The socket is closed, and its channel destroyed, before the MC
  // answers: the ack finds the channel gone and tears down what the MC
  // established for it.
  MicBed bed;
  bed.serve(12);
  MicSocketApi api(bed.fabric.host(0), bed.fabric.mc(), bed.fabric.rng());
  api.mic_close(api.mic_connect(bed.fabric.ip(12), 7000));
  bed.fabric.simulator().run_until();
  EXPECT_EQ(bed.fabric.mc().requests_handled(), 1u);
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 0u);
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();
}

TEST(MicLifetime, PoolDrainedMidEstablishmentLeavesTheMcNoChannel) {
  MicBed bed;
  bed.serve(12);
  MicChannelPool pool(bed.fabric.host(0), bed.fabric.mc(), bed.fabric.rng());
  pool.acquire(bed.options_to(12));
  pool.drain();
  bed.fabric.simulator().run_until();
  EXPECT_EQ(bed.fabric.mc().requests_handled(), 1u);
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 0u);
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();
}

TEST(MicLifetime, ChannelDestroyedDuringItsWatchdogLeavesNoEvent) {
  // A crashed MC answers nothing: the watchdog counts a silence and backs
  // off before it asks again, and the channel dies during that backoff.
  MicBed bed;
  bed.fabric.mc().crash();
  MicChannelOptions options = bed.options_to(12);
  options.control_timeout = sim::milliseconds(1);
  sim::Simulator& simulator = bed.fabric.simulator();
  {
    MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), options,
                       bed.fabric.rng());
    simulator.run_until(simulator.now() + sim::microseconds(1500));
    ASSERT_EQ(channel.controller_silences(), 1u);
  }
  EXPECT_TRUE(simulator.idle());
  simulator.run_until();
}

TEST(MicLifetime, ChannelDestroyedWithAHeartbeatPendingLeavesNoEvent) {
  MicBed bed;
  bed.serve(12);
  MicChannelOptions options = bed.options_to(12);
  options.heartbeat_interval = sim::milliseconds(1);
  sim::Simulator& simulator = bed.fabric.simulator();
  {
    MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), options,
                       bed.fabric.rng());
    simulator.run_until(simulator.now() + sim::milliseconds(5));
    ASSERT_TRUE(channel.ready());
  }
  // The probe in flight still lands at the MC; nothing probes again.
  simulator.run_until(simulator.now() + sim::milliseconds(50));
  EXPECT_TRUE(simulator.idle());
}

TEST(MicLifetime, ChannelDestroyedBeforeItsRepairNoticeLandsHearsNothing) {
  // The MC repairs the channel around a cut link and sends the kRepaired
  // notice with a copy of the channel's listener; the channel is
  // destroyed while the notice travels.
  MicBed bed;
  bed.serve(12);
  MimicController& mc = bed.fabric.mc();
  sim::Simulator& simulator = bed.fabric.simulator();
  auto channel = std::make_unique<MicChannel>(
      bed.fabric.host(0), mc, bed.options_to(12), bed.fabric.rng());
  simulator.run_until();
  ASSERT_TRUE(channel->ready());
  const MFlowPlan& plan = mc.channel(channel->id())->flows[0];
  const std::size_t mid = plan.path.size() / 2;  // a core-aggregation link
  bed.fabric.network().set_link_up(
      bed.fabric.network().graph().link_between(plan.path[mid],
                                                plan.path[mid + 1]),
      false);
  while (mc.channels_repaired() == 0 && !simulator.idle()) {
    simulator.run_until(simulator.now() + sim::microseconds(10));
  }
  ASSERT_EQ(mc.channels_repaired(), 1u);
  channel.reset();
  simulator.run_until();
  EXPECT_EQ(mc.active_channel_count(), 1u);  // destroyed, never closed
}

TEST(MicWire, SliceHeaderRoundTrip) {
  SliceHeader header;
  header.channel = 0xdeadbeef;
  header.seq = 12345;
  header.length = 4096;
  header.flow = 3;
  const auto bytes = serialize_slice_header(header);
  EXPECT_EQ(bytes.size(), kSliceHeaderBytes);
  const std::optional<SliceHeader> parsed = parse_slice_header(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->channel, header.channel);
  EXPECT_EQ(parsed->seq, header.seq);
  EXPECT_EQ(parsed->length, header.length);
  EXPECT_EQ(parsed->flow, header.flow);

  // The longest slice still parses; a longer one or a bad magic does not.
  header.length = kMaxSliceBytes;
  EXPECT_TRUE(parse_slice_header(serialize_slice_header(header)).has_value());
  header.length = kMaxSliceBytes + 1;
  EXPECT_FALSE(parse_slice_header(serialize_slice_header(header)).has_value());
  header.length = 4096;
  header.magic = 0xBAD0;
  EXPECT_FALSE(parse_slice_header(serialize_slice_header(header)).has_value());
}

TEST(MicWire, LongServiceNamesSurviveSerialization) {
  EstablishRequest request;
  request.initiator_ip = net::Ipv4(10, 0, 0, 2);
  request.service_name = std::string(200, 'x');  // near the u8 length cap
  request.flow_count = 1;
  request.initiator_sports = {40001};
  const auto bytes = serialize_request(request);
  const auto parsed = deserialize_request(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->service_name, request.service_name);
}

TEST(MicWire, ReordererIgnoresDuplicates) {
  SliceReorderer reorderer;
  int delivered = 0;
  auto deliver = [&](transport::Chunk) { ++delivered; };
  reorderer.push(0, transport::Chunk::virtual_bytes(10), deliver);
  EXPECT_EQ(delivered, 1);
  reorderer.push(0, transport::Chunk::virtual_bytes(10), deliver);  // dup
  EXPECT_EQ(delivered, 1);
  reorderer.push(2, transport::Chunk::virtual_bytes(10), deliver);  // hole
  EXPECT_EQ(delivered, 1);
  reorderer.push(1, transport::Chunk::virtual_bytes(10), deliver);
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(reorderer.buffered(), 0u);
}

TEST(MicWire, ZeroLengthSlicesAdvanceWithoutDelivery) {
  SliceReorderer reorderer;
  int delivered = 0;
  reorderer.push(0, transport::Chunk::virtual_bytes(0),
                 [&](transport::Chunk) { ++delivered; });
  reorderer.push(1, transport::Chunk::virtual_bytes(5),
                 [&](transport::Chunk) { ++delivered; });
  EXPECT_EQ(delivered, 1);  // the hello slice was skipped, the data wasn't
}

TEST(MicEstablish, EntryAddressesUniqueAcrossManyChannels) {
  MicBed bed;
  std::set<std::pair<std::uint32_t, net::L4Port>> entries;
  for (int i = 0; i < 40; ++i) {
    EstablishRequest request;
    request.initiator_ip = bed.fabric.ip(0);
    request.responder_ip = bed.fabric.ip(12);
    request.responder_port = 7000;
    request.initiator_sports = {static_cast<net::L4Port>(42000 + i)};
    const auto result = bed.fabric.mc().establish(request);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(entries
                    .insert({result.entries[0].ip.value,
                             result.entries[0].port})
                    .second)
        << "duplicate entry address at channel " << i;
  }
}

TEST(MicEstablish, HiddenServiceReRegistrationMoves) {
  MicBed bed;
  bed.fabric.mc().register_hidden_service("svc", bed.fabric.ip(9), 7000);
  bed.fabric.mc().register_hidden_service("svc", bed.fabric.ip(10), 7500);

  EstablishRequest request;
  request.initiator_ip = bed.fabric.ip(0);
  request.service_name = "svc";
  request.initiator_sports = {40001};
  const auto result = bed.fabric.mc().establish(request);
  ASSERT_TRUE(result.ok);
  const auto* state = bed.fabric.mc().channel(result.channel);
  EXPECT_EQ(state->flows[0].forward.back().dst, bed.fabric.ip(10));
  EXPECT_EQ(state->flows[0].forward.back().dport, 7500);
}

TEST(MicWire, ControlMessageRoundTrip) {
  EstablishRequest request;
  request.initiator_ip = net::Ipv4(10, 1, 0, 2);
  request.responder_ip = net::Ipv4(10, 3, 1, 3);
  request.responder_port = 7000;
  request.flow_count = 3;
  request.mn_count = 4;
  request.multicast_decoys = 2;
  request.service_name = "svc";
  request.initiator_sports = {40001, 40002, 40003};

  auto bytes = serialize_request(request);
  crypto::Aes128::Key key{};
  key[0] = 0x42;
  const auto plaintext = bytes;
  crypt_control_message(key, 7, bytes);
  EXPECT_NE(bytes, plaintext);
  crypt_control_message(key, 7, bytes);
  EXPECT_EQ(bytes, plaintext);

  const auto parsed = deserialize_request(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->initiator_ip, request.initiator_ip);
  EXPECT_EQ(parsed->responder_ip, request.responder_ip);
  EXPECT_EQ(parsed->flow_count, 3);
  EXPECT_EQ(parsed->mn_count, 4);
  EXPECT_EQ(parsed->multicast_decoys, 2);
  EXPECT_EQ(parsed->service_name, "svc");
  EXPECT_EQ(parsed->initiator_sports, request.initiator_sports);
}

}  // namespace
}  // namespace mic::core
