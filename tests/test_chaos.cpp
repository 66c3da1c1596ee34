// Chaos / robustness tests: the failure-detection pipeline, transactional
// (all-or-nothing) rule installation with retry, switch-scope failures,
// teardown/reclaim racing repairs, and the seeded chaos soak across three
// topologies (fat-tree, leaf-spine, BCube).  Every run must end with a
// clean audit::run_all checkpoint (FT-1, CA-1, PE-1, FD-1) and surviving
// channels still delivering.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>

#include "core/audit_registry.hpp"
#include "core/fabric.hpp"
#include "core/fault_injector.hpp"
#include "core/mic_client.hpp"
#include "net/trace.hpp"
#include "topology/bcube.hpp"
#include "topology/leafspine.hpp"

namespace mic {
namespace {

using core::Fabric;
using core::FabricOptions;
using core::FaultInjector;
using core::FaultInjectorOptions;
using core::GenericFabric;
using core::MicChannel;
using core::MicChannelOptions;
using core::MicServer;
using core::MimicController;

topo::LinkId link_on_path(const topo::Graph& graph, const topo::Path& path,
                          std::size_t hop) {
  return graph.link_between(path[hop], path[hop + 1]);
}

/// A fabric-interior link in the middle of the first m-flow's path.
topo::LinkId interior_victim(MimicController& mc, core::ChannelId id) {
  const auto& plan = mc.channel(id)->flows[0];
  return link_on_path(mc.graph(), plan.path, plan.path.size() / 2);
}

bool path_uses_link(const topo::Graph& graph, const topo::Path& path,
                    topo::LinkId link) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (link_on_path(graph, path, i) == link) return true;
  }
  return false;
}

// --- failure detection --------------------------------------------------------

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

TEST(FailureDetection, LinkCutAloneTriggersRepair) {
  // No manual fail_link report anywhere: cutting the PHY must be enough.
  Bed bed;
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options(),
                     bed.fabric.rng());
  bed.fabric.simulator().run_until();
  ASSERT_TRUE(channel.ready());

  const topo::LinkId victim =
      interior_victim(bed.fabric.mc(), channel.id());
  constexpr std::uint64_t kBytes = 512 * 1024;
  channel.send(transport::Chunk::virtual_bytes(kBytes));
  bed.fabric.simulator().run_until(bed.fabric.simulator().now() +
                                   sim::milliseconds(2));
  bed.fabric.network().set_link_up(victim, false);

  // Detection latency + southbound latency later the MC knows by itself.
  bed.fabric.simulator().run_until(bed.fabric.simulator().now() +
                                   sim::milliseconds(2));
  EXPECT_TRUE(bed.fabric.mc().failed_links().contains(victim));

  bed.fabric.simulator().run_until();
  EXPECT_EQ(bed.received, kBytes);
  EXPECT_EQ(channel.repair_count(), 1u);
  EXPECT_FALSE(path_uses_link(
      bed.fabric.network().graph(),
      bed.fabric.mc().channel(channel.id())->flows[0].path, victim));

  // Raising the PHY again clears the failure by itself too.
  bed.fabric.network().set_link_up(victim, true);
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(bed.fabric.mc().failed_links().empty());
  const auto report = audit::run_all(bed.fabric);
  EXPECT_TRUE(report.ok) << report.first_violation();
}

TEST(FailureDetection, RestoreReoptimizesCommonFlowRouting) {
  // Satellite regression: a CF detour installed by reroute_around must not
  // outlive the failure.  The same TCP connection (same 5-tuple, same ECMP
  // hashes) must use its original links again once the link is back.
  Bed bed;
  bed.fabric.host(12).listen(9000, [](transport::TcpConnection&) {});
  auto& conn = bed.fabric.host(0).connect(bed.fabric.ip(12), 9000);
  bed.fabric.simulator().run_until();
  ASSERT_EQ(conn.state(), transport::TcpConnection::State::kEstablished);

  // Record which links the forward direction of this CF uses.
  std::set<topo::LinkId> forward_links;
  const net::Ipv4 dst = bed.fabric.ip(12);
  bed.fabric.network().add_global_tap(
      [&](topo::LinkId link, topo::NodeId, topo::NodeId, const net::Packet& p,
          sim::SimTime) {
        if (p.dst == dst && p.dport == 9000) forward_links.insert(link);
      });
  conn.send(transport::Chunk::virtual_bytes(64 * 1024));
  bed.fabric.simulator().run_until();
  const std::set<topo::LinkId> original = forward_links;
  ASSERT_FALSE(original.empty());

  // Pick an interior link off the recorded path and cut it.
  topo::LinkId victim = topo::kInvalidLink;
  for (const topo::LinkId link : original) {
    const auto [a, b] = bed.fabric.network().graph().link_endpoints(link);
    if (bed.fabric.network().graph().is_switch(a) &&
        bed.fabric.network().graph().is_switch(b)) {
      victim = link;
      break;
    }
  }
  ASSERT_NE(victim, topo::kInvalidLink);
  bed.fabric.network().set_link_up(victim, false);
  bed.fabric.simulator().run_until(bed.fabric.simulator().now() +
                                   sim::milliseconds(5));

  // Under the failure the detour avoids the victim...
  forward_links.clear();
  conn.send(transport::Chunk::virtual_bytes(64 * 1024));
  bed.fabric.simulator().run_until();
  EXPECT_FALSE(forward_links.contains(victim));

  // ...and after restoration the original route comes back exactly.
  bed.fabric.network().set_link_up(victim, true);
  bed.fabric.simulator().run_until();
  forward_links.clear();
  conn.send(transport::Chunk::virtual_bytes(64 * 1024));
  bed.fabric.simulator().run_until();
  EXPECT_EQ(forward_links, original);
}

// --- switch-scope failures ----------------------------------------------------

TEST(SwitchFailure, CrashRepairsChannelsAndRestoreRefillsTable) {
  Bed bed;
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options(),
                     bed.fabric.rng());
  bed.fabric.simulator().run_until();
  ASSERT_TRUE(channel.ready());

  // Crash an interior switch on the channel's path.
  const auto& plan = bed.fabric.mc().channel(channel.id())->flows[0];
  const topo::NodeId victim = plan.path[plan.path.size() / 2];
  ASSERT_TRUE(bed.fabric.network().graph().is_switch(victim));

  constexpr std::uint64_t kBytes = 512 * 1024;
  channel.send(transport::Chunk::virtual_bytes(kBytes));
  const auto outcome = bed.fabric.mc().fail_switch(victim);
  EXPECT_EQ(outcome.repaired, 1u);
  EXPECT_EQ(outcome.lost, 0u);
  EXPECT_EQ(bed.fabric.mc().switch_at(victim)->table().rule_count(), 0u);

  bed.fabric.simulator().run_until();
  EXPECT_EQ(bed.received, kBytes);
  // The repaired path avoids the dead node entirely.
  const auto& new_plan = bed.fabric.mc().channel(channel.id())->flows[0];
  for (const topo::NodeId node : new_plan.path) {
    EXPECT_NE(node, victim);
  }
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);

  // Recovery repopulates the rebooted switch's (cleared) table with CF
  // routing and clears the failure bookkeeping.
  bed.fabric.mc().restore_switch(victim);
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(bed.fabric.mc().failed_switches().empty());
  EXPECT_TRUE(bed.fabric.mc().failed_links().empty());
  EXPECT_GT(bed.fabric.mc().switch_at(victim)->table().rule_count(), 0u);
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);
}

// --- transactional installs ---------------------------------------------------

TEST(InstallFailure, EstablishmentRollsBackAndRetries) {
  // Every switch rejects every flow-mod: establishment must fail after the
  // retry budget and leave zero rules behind (all-or-nothing).
  Bed bed;
  for (const topo::NodeId sw : bed.fabric.network().graph().switches()) {
    bed.fabric.mc().switch_at(sw)->inject_install_faults(1.0, 99);
  }
  auto doomed = std::make_unique<MicChannel>(
      bed.fabric.host(0), bed.fabric.mc(), bed.options(), bed.fabric.rng());
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(doomed->failed());
  EXPECT_FALSE(doomed->ready());
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 0u);
  EXPECT_GE(bed.fabric.mc().install_retries(), 1u);
  const auto report = audit::run_all(bed.fabric);
  EXPECT_TRUE(report.ok) << report.first_violation();
  // literally no channel rules anywhere
  EXPECT_EQ(report.check("FD-1").metric("mflow_rules"), 0u);
  doomed.reset();

  // Once the faults clear, the same request succeeds.
  for (const topo::NodeId sw : bed.fabric.network().graph().switches()) {
    bed.fabric.mc().switch_at(sw)->clear_install_faults();
  }
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options(),
                     bed.fabric.rng());
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(channel.ready());
  constexpr std::uint64_t kBytes = 64 * 1024;
  channel.send(transport::Chunk::virtual_bytes(kBytes));
  bed.fabric.simulator().run_until();
  EXPECT_EQ(bed.received, kBytes);
}

TEST(InstallFailure, RetryWithBackoffSucceedsOnceFaultClears) {
  // A transient fault burst: the first commit attempt fails, a backoff
  // retry lands after the burst ends, and the channel comes up anyway.
  Bed bed;
  for (const topo::NodeId sw : bed.fabric.network().graph().switches()) {
    bed.fabric.mc().switch_at(sw)->inject_install_faults(1.0, 7);
  }
  auto rejected = [&bed] {
    std::uint64_t total = 0;
    for (const topo::NodeId sw : bed.fabric.network().graph().switches()) {
      total += bed.fabric.mc().switch_at(sw)->installs_rejected();
    }
    return total;
  };
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options(),
                     bed.fabric.rng());
  // Let the burst reject the whole first commit attempt, then lift it so a
  // backoff retry can land.
  while (rejected() == 0 &&
         bed.fabric.simulator().now() < sim::seconds(1)) {
    bed.fabric.simulator().run_until(bed.fabric.simulator().now() +
                                     sim::microseconds(100));
  }
  ASSERT_GT(rejected(), 0u);
  for (const topo::NodeId sw : bed.fabric.network().graph().switches()) {
    bed.fabric.mc().switch_at(sw)->clear_install_faults();
  }
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(channel.ready());
  EXPECT_FALSE(channel.failed());
  EXPECT_GE(bed.fabric.mc().install_retries(), 1u);
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);
}

// --- teardown / reclaim racing failures ---------------------------------------

TEST(TeardownRace, TeardownAcrossFailedLinkLeavesNoOrphans) {
  // Close a channel whose path just lost a link, before the MC has even
  // detected the cut.  Rule removal travels the out-of-band control
  // channel, so it must succeed everywhere -- no orphans, no repair of the
  // closed channel.
  Bed bed;
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options(),
                     bed.fabric.rng());
  bed.fabric.simulator().run_until();
  ASSERT_TRUE(channel.ready());

  const topo::LinkId victim =
      interior_victim(bed.fabric.mc(), channel.id());
  bed.fabric.network().set_link_up(victim, false);
  channel.close();  // teardown races the detection pipeline
  bed.fabric.simulator().run_until();

  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 0u);
  EXPECT_EQ(bed.fabric.mc().channels_repaired(), 0u);
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);

  bed.fabric.network().set_link_up(victim, true);
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(bed.fabric.mc().failed_links().empty());
}

TEST(TeardownRace, ReclaimIdleMidRepairLeavesNoOrphans) {
  // The repair's re-install commit is still in flight when the idle
  // reclaimer tears the channel down.  The superseded commit must not
  // resurrect any rules (FD-1).
  Bed bed;
  MicChannel channel(bed.fabric.host(0), bed.fabric.mc(), bed.options(),
                     bed.fabric.rng());
  bed.fabric.simulator().run_until();
  ASSERT_TRUE(channel.ready());
  bool lost = false;
  std::string reason;
  channel.set_on_lost([&](const std::string& r) {
    lost = true;
    reason = r;
  });
  channel.release_for_reuse();
  bed.fabric.simulator().run_until();

  const topo::LinkId victim =
      interior_victim(bed.fabric.mc(), channel.id());
  bed.fabric.network().set_link_up(victim, false);
  bed.fabric.mc().fail_link(victim);   // repair commit now in flight...
  bed.fabric.mc().reclaim_idle(0);     // ...and the channel is reclaimed
  bed.fabric.simulator().run_until();

  EXPECT_TRUE(lost);
  EXPECT_EQ(reason, "idle channel reclaimed");
  EXPECT_TRUE(channel.failed());
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 0u);
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);

  bed.fabric.network().set_link_up(victim, true);
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(bed.fabric.mc().failed_links().empty());
}

// --- chaos soak ---------------------------------------------------------------

struct ChaosOutcome {
  std::uint64_t received = 0;
  std::size_t survivors = 0;
  std::uint64_t lost = 0;
  std::uint64_t repaired = 0;
  std::uint64_t install_retries = 0;
  std::uint64_t control_drops = 0;
  int reestablishments = 0;
  // Event-trace fingerprint (SIM-1): every packet on every link, in firing
  // order, with timestamps.  Far stronger than the counter fields above --
  // two runs agree on the hash only if the schedulers fired the identical
  // event sequence.  The timing-wheel migration was validated by recording
  // these hashes under the binary-heap scheduler and replaying the same
  // seeds on the wheel.
  std::uint64_t trace_hash = 0;
  std::uint64_t trace_packets = 0;

  bool operator==(const ChaosOutcome&) const = default;
};

/// One seeded chaos schedule against an already-built fabric: establish a
/// handful of channels (half with automatic re-establishment), start
/// transfers, unleash the injector, then check every robustness invariant
/// at quiescence.
template <typename FabricT>
ChaosOutcome run_chaos(FabricT& fabric, std::size_t server_idx,
                       const std::vector<std::size_t>& client_idx,
                       std::uint64_t seed, int mn_count = 3) {
  net::TraceHash trace(fabric.network());
  MicServer server(fabric.host(server_idx), 7000, fabric.rng());
  std::uint64_t received = 0;
  server.set_on_channel([&](core::MicServerChannel& channel) {
    channel.set_on_data(
        [&](const transport::ChunkView& view) { received += view.length; });
  });

  std::vector<std::unique_ptr<MicChannel>> clients;
  for (std::size_t i = 0; i < client_idx.size(); ++i) {
    MicChannelOptions o;
    o.responder_ip = fabric.ip(server_idx);
    o.responder_port = 7000;
    o.flow_count = 1 + static_cast<int>(i % 2);
    o.mn_count = mn_count;
    o.auto_reestablish = (i % 2 == 0);
    clients.push_back(std::make_unique<MicChannel>(
        fabric.host(client_idx[i]), fabric.mc(), o, fabric.rng()));
  }
  fabric.simulator().run_until();
  for (const auto& client : clients) {
    EXPECT_TRUE(client->ready());
  }

  // Big enough that the early faults land mid-transfer.
  constexpr std::uint64_t kInitial = 1024 * 1024;
  for (const auto& client : clients) {
    client->send(transport::Chunk::virtual_bytes(kInitial));
  }

  FaultInjectorOptions fo;
  fo.seed = seed;
  FaultInjector injector(fabric.network(), fabric.mc(), fo);
  injector.arm();
  fabric.simulator().run_until();

  // Quiescence invariants: the simulator drained, the schedule healed
  // every fault it injected, and the rule state is exactly the live
  // channel state (FD-1) with no collisions.
  EXPECT_TRUE(fabric.simulator().idle());
  EXPECT_TRUE(fabric.mc().failed_links().empty());
  EXPECT_TRUE(fabric.mc().failed_switches().empty());
  const audit::RunReport report = audit::run_all(fabric.mc());
  EXPECT_TRUE(report.ok) << report.first_violation();

  // Every surviving channel still delivers, byte for byte.
  constexpr std::uint64_t kProbe = 16 * 1024;
  const std::uint64_t before = received;
  std::uint64_t expected = 0;
  ChaosOutcome out;
  for (const auto& client : clients) {
    if (client->failed() || !client->ready()) continue;
    EXPECT_NE(fabric.mc().channel(client->id()), nullptr);
    client->send(transport::Chunk::virtual_bytes(kProbe));
    expected += kProbe;
    ++out.survivors;
  }
  fabric.simulator().run_until();
  EXPECT_EQ(received - before, expected);

  out.received = received;
  out.lost = fabric.mc().channels_lost();
  out.repaired = fabric.mc().channels_repaired();
  out.install_retries = fabric.mc().install_retries();
  out.control_drops = fabric.mc().control_messages_dropped();
  for (const auto& client : clients) {
    out.reestablishments += client->reestablish_attempts();
  }
  out.trace_hash = trace.value();
  out.trace_packets = trace.packets();
  if (std::getenv("MIC_PRINT_TRACE_HASH") != nullptr) {
    std::fprintf(stderr, "TRACE_HASH chaos seed=%llu hash=%016llx n=%llu\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(out.trace_hash),
                 static_cast<unsigned long long>(out.trace_packets));
  }
  return out;
}

constexpr std::uint64_t kSoakSeeds = 7;  // x3 topologies = 21 schedules

TEST(ChaosSoak, FatTree) {
  for (std::uint64_t seed = 1; seed <= kSoakSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FabricOptions fo;
    fo.seed = 100 + seed;
    Fabric fabric(fo);
    run_chaos(fabric, 12, {0, 3, 5, 9}, seed);
  }
}

TEST(ChaosSoak, LeafSpine) {
  static const topo::LeafSpine ls(3, 4, 4);  // 16 hosts
  std::vector<std::pair<topo::NodeId, net::Ipv4>> addrs;
  for (const topo::NodeId h : ls.hosts()) {
    addrs.push_back({h, net::Ipv4{ls.host_ip(h)}});
  }
  for (std::uint64_t seed = 1; seed <= kSoakSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FabricOptions fo;
    fo.seed = 200 + seed;
    GenericFabric fabric(ls.graph(), addrs, fo);
    run_chaos(fabric, 12, {0, 5, 10, 15}, seed);
  }
}

TEST(ChaosSoak, BCube) {
  static const topo::BCube bc(4, 1);  // 16 servers, 8 switches
  std::vector<std::pair<topo::NodeId, net::Ipv4>> addrs;
  for (const topo::NodeId s : bc.servers()) {
    addrs.push_back({s, net::Ipv4{bc.server_ip(s)}});
  }
  for (std::uint64_t seed = 1; seed <= kSoakSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FabricOptions fo;
    fo.seed = 300 + seed;
    GenericFabric fabric(bc.graph(), addrs, fo);
    // MIC never transits hosts (MNs are switches) and the simulated hosts
    // have a single NIC (everything leaves via port 0, i.e. the level-0
    // switch), so on server-centric BCube only servers sharing their
    // level-0 switch can talk.  Server 12 = (3,0) and clients 13/14/15 all
    // hang off level-0 switch 3; each path crosses that one switch, so the
    // privacy level is 1.
    run_chaos(fabric, 12, {13, 14, 15}, seed, /*mn_count=*/1);
  }
}

// --- MC-crash chaos soak ------------------------------------------------------

struct CrashChaosOutcome {
  std::uint64_t received = 0;
  std::size_t alive = 0;
  std::uint64_t lost = 0;
  std::uint64_t repaired = 0;
  std::uint64_t silences = 0;
  int reestablishments = 0;
  std::size_t crashes = 0;
  std::size_t recovered = 0;
  std::size_t kept = 0;
  std::size_t reinstalled = 0;
  std::size_t replanned = 0;
  std::size_t orphans = 0;
  std::uint64_t trace_hash = 0;  // see ChaosOutcome::trace_hash
  std::uint64_t trace_packets = 0;

  bool operator==(const CrashChaosOutcome&) const = default;
};

/// Chaos with the controller itself as a casualty: the full fault mix plus
/// MC crash/recover cycles (optionally recovering from a tail-truncated
/// journal).  Clients run the survival machinery -- establishment timeout,
/// heartbeat, auto re-establishment -- so the run is bounded-time rather
/// than run-to-quiescence (a heartbeat never lets the event queue drain)
/// until the final close.
CrashChaosOutcome run_mc_crash_chaos(Fabric& fabric, std::uint64_t seed,
                                     int truncate_records) {
  net::TraceHash trace(fabric.network());
  MicServer server(fabric.host(12), 7000, fabric.rng());
  std::uint64_t received = 0;
  server.set_on_channel([&](core::MicServerChannel& channel) {
    channel.set_on_data(
        [&](const transport::ChunkView& view) { received += view.length; });
  });

  const std::vector<std::size_t> client_idx = {0, 3, 5, 9};
  std::vector<std::unique_ptr<MicChannel>> clients;
  for (std::size_t i = 0; i < client_idx.size(); ++i) {
    MicChannelOptions o;
    o.responder_ip = fabric.ip(12);
    o.responder_port = 7000;
    o.flow_count = 1 + static_cast<int>(i % 2);
    o.auto_reestablish = true;
    o.control_timeout = sim::milliseconds(10);
    o.control_retry_limit = 20;
    o.heartbeat_interval = sim::milliseconds(2);
    clients.push_back(std::make_unique<MicChannel>(
        fabric.host(client_idx[i]), fabric.mc(), o, fabric.rng()));
  }
  auto run_for = [&fabric](sim::SimTime dt) {
    fabric.simulator().run_until(fabric.simulator().now() + dt);
  };
  run_for(sim::milliseconds(30));
  for (const auto& client : clients) {
    EXPECT_TRUE(client->ready());
  }

  constexpr std::uint64_t kInitial = 256 * 1024;
  for (const auto& client : clients) {
    client->send(transport::Chunk::virtual_bytes(kInitial));
  }

  FaultInjectorOptions fo;
  fo.seed = seed;
  fo.mc_crashes = 2;
  fo.mc_crash_truncate_records = truncate_records;
  FaultInjector injector(fabric.network(), fabric.mc(), fo);
  injector.arm();
  // Window + outages + client backoffs, with slack: every fault healed,
  // every recovery settled, every surviving client re-attached.
  run_for(sim::milliseconds(400));

  EXPECT_GE(injector.mc_crashes_fired(), 1u);
  EXPECT_FALSE(fabric.mc().crashed());
  EXPECT_TRUE(fabric.mc().failed_links().empty());
  EXPECT_TRUE(fabric.mc().failed_switches().empty());

  // Zero orphan rules (FD-1) and journal/switch agreement (RC-1) after
  // every crash the schedule threw at us.
  const audit::RunReport report = audit::run_all(fabric.mc());
  EXPECT_TRUE(report.ok) << report.first_violation();

  // Every client that thinks it is up really is: the heartbeat has had
  // ample time to expose zombies, so a ready client maps to a live MC
  // channel and still delivers byte-for-byte.
  constexpr std::uint64_t kProbe = 16 * 1024;
  const std::uint64_t before = received;
  std::uint64_t expected = 0;
  CrashChaosOutcome out;
  for (const auto& client : clients) {
    if (client->failed() || !client->ready()) continue;
    EXPECT_NE(fabric.mc().channel(client->id()), nullptr);
    client->send(transport::Chunk::virtual_bytes(kProbe));
    expected += kProbe;
    ++out.alive;
  }
  run_for(sim::milliseconds(100));
  EXPECT_EQ(received - before, expected);

  out.received = received;
  out.lost = fabric.mc().channels_lost();
  out.repaired = fabric.mc().channels_repaired();
  out.crashes = injector.mc_crashes_fired();
  for (const auto& client : clients) {
    out.silences += client->controller_silences();
    out.reestablishments += client->reestablish_attempts();
  }
  for (const auto& recovery : injector.recoveries()) {
    out.recovered += recovery.channels_recovered;
    out.kept += recovery.channels_kept;
    out.reinstalled += recovery.channels_reinstalled;
    out.replanned += recovery.channels_replanned;
    out.orphans += recovery.orphan_rules_removed;
  }

  // Closing the clients stops the heartbeats; the simulator must then
  // drain completely (no stray timers, no immortal retransmissions).
  for (const auto& client : clients) client->close();
  fabric.simulator().run_until();
  EXPECT_TRUE(fabric.simulator().idle());
  EXPECT_TRUE(audit::run_all(fabric.mc()).ok);
  out.trace_hash = trace.value();
  out.trace_packets = trace.packets();
  if (std::getenv("MIC_PRINT_TRACE_HASH") != nullptr) {
    std::fprintf(stderr, "TRACE_HASH mc-crash seed=%llu hash=%016llx n=%llu\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(out.trace_hash),
                 static_cast<unsigned long long>(out.trace_packets));
  }
  return out;
}

TEST(McCrashSoak, FatTree) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FabricOptions fo;
    fo.seed = 400 + seed;
    Fabric fabric(fo);
    run_mc_crash_chaos(fabric, seed, /*truncate_records=*/0);
  }
}

TEST(McCrashSoak, TruncatedJournal) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FabricOptions fo;
    fo.seed = 500 + seed;
    Fabric fabric(fo);
    run_mc_crash_chaos(fabric, seed, /*truncate_records=*/2);
  }
}

TEST(McCrashSoak, SameSeedSameOutcome) {
  auto once = [] {
    FabricOptions fo;
    fo.seed = 509;
    Fabric fabric(fo);
    return run_mc_crash_chaos(fabric, 21, /*truncate_records=*/1);
  };
  const CrashChaosOutcome first = once();
  const CrashChaosOutcome second = once();
  EXPECT_EQ(first, second);
}

TEST(ChaosSoak, SameSeedSameOutcome) {
  // SIM-1 under chaos: an identical seed must reproduce the identical
  // end-to-end outcome, loss/repair counts and all.
  auto once = [] {
    FabricOptions fo;
    fo.seed = 107;
    Fabric fabric(fo);
    return run_chaos(fabric, 12, {0, 5, 9}, 42);
  };
  const ChaosOutcome first = once();
  const ChaosOutcome second = once();
  EXPECT_EQ(first.received, second.received);
  EXPECT_EQ(first.survivors, second.survivors);
  EXPECT_EQ(first.lost, second.lost);
  EXPECT_EQ(first.repaired, second.repaired);
  EXPECT_EQ(first.install_retries, second.install_retries);
  EXPECT_EQ(first.control_drops, second.control_drops);
  EXPECT_EQ(first.reestablishments, second.reestablishments);
}

}  // namespace
}  // namespace mic
