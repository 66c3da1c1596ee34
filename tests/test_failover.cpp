// Warm-standby controller failover (src/ctrl/standby.hpp): journal
// replication over the commit stream, missed-heartbeat takeover with the
// primary's successor chain redirecting live clients, id-safety across a
// chain of failovers, stale-replica takeovers that sweep and re-establish,
// zombie ex-primary fencing (RC-2), standbys destroyed while they probe or
// after they took over, and the seeded failover chaos soak across all
// three primary-kill modes -- bit-reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/audit_registry.hpp"
#include "core/fabric.hpp"
#include "core/fault_injector.hpp"
#include "core/mic_client.hpp"
#include "ctrl/standby.hpp"
#include "net/trace.hpp"
#include "support/l3_tables.hpp"

namespace mic {
namespace {

using core::ChannelId;
using core::Fabric;
using core::FabricOptions;
using core::FaultInjector;
using core::FaultInjectorOptions;
using core::MicChannel;
using core::MicChannelOptions;
using core::MicServer;
using ctrl::StandbyController;
using ctrl::StandbyOptions;

/// Primary + warm standby + a responder, the way a deployment would wire
/// them.  Clients resolve the MC through the primary's successor chain, so
/// they survive the failover without reconfiguration.
struct FailoverBed {
  explicit FailoverBed(FabricOptions fo = {}, StandbyOptions so = {})
      : fabric(fo), standby(fabric.mc(), so) {
    standby.start();
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
    // The survival machinery every failover test depends on.
    o.heartbeat_interval = sim::milliseconds(2);
    o.control_timeout = sim::milliseconds(10);
    o.control_retry_limit = 20;
    o.auto_reestablish = true;
    return o;
  }

  std::unique_ptr<MicChannel> client(std::size_t host, MicChannelOptions o) {
    return std::make_unique<MicChannel>(fabric.host(host), fabric.mc(), o,
                                        fabric.rng());
  }

  void kill_primary() { fabric.mc().crash(); }

  void run_for(sim::SimTime dt) {
    fabric.simulator().run_until(fabric.simulator().now() + dt);
  }

  Fabric fabric;
  StandbyController standby;
  std::unique_ptr<MicServer> server;
  std::uint64_t received = 0;
};

StandbyOptions follow_only() {
  StandbyOptions so;
  so.heartbeat_interval = 0;  // never takes over on its own
  return so;
}

/// The replica replays to the primary's image: the same channels, each
/// structurally equal, and the same allocator marks.
void expect_same_image(const core::ChannelJournal& replica,
                       const core::ChannelJournal& primary) {
  const core::JournalImage ours = replica.replay();
  const core::JournalImage theirs = primary.replay();
  ASSERT_EQ(ours.channels.size(), theirs.channels.size());
  for (const auto& [id, state] : theirs.channels) {
    ASSERT_TRUE(ours.channels.contains(id)) << "channel " << id;
    EXPECT_TRUE(ours.channels.at(id) == state) << "channel " << id;
  }
  EXPECT_EQ(ours.next_channel, theirs.next_channel);
  EXPECT_EQ(ours.next_group, theirs.next_group);
}

// --- replication -------------------------------------------------------------

TEST(StandbyReplication, FollowerMirrorsTheCommittedJournal) {
  FailoverBed bed({}, follow_only());
  auto c1 = bed.client(0, bed.options());
  auto c2 = bed.client(3, bed.options());
  bed.run_for(sim::milliseconds(30));
  ASSERT_TRUE(c1->ready() && c2->ready());

  // Every appended record crossed, after the replication lag, into the
  // standby's replica -- and the replica replays to the primary's image.
  EXPECT_EQ(bed.standby.records_replicated(),
            bed.fabric.mc().journal().records_shipped());
  EXPECT_GE(bed.standby.records_replicated(), 2u);
  expect_same_image(bed.standby.replica(), bed.fabric.mc().journal());

  c1->close();
  c2->close();
  bed.run_for(sim::milliseconds(10));
  // Teardown tombstones replicate too.
  EXPECT_EQ(bed.standby.records_replicated(),
            bed.fabric.mc().journal().records_shipped());
  EXPECT_TRUE(bed.standby.replica().replay().channels.empty());
}

TEST(StandbyReplication, ReplicaCompactsLikeThePrimary) {
  // The replica compacts on the primary's cadence: under steady churn it
  // stays within the primary's log bound instead of keeping every record
  // ever shipped (which a takeover would then replay in full).
  constexpr std::size_t kFloor = 16;
  constexpr std::size_t kLive = 8;
  constexpr std::size_t kCycles = 200;
  FabricOptions fo;
  fo.mic.journal_compaction_threshold = kFloor;
  FailoverBed bed(fo, follow_only());
  core::MimicController& mc = bed.fabric.mc();
  // Slot i: host i (pods 0/1) to host 8 + i (pods 2/3), one m-flow.
  const auto establish = [&](std::size_t slot) {
    core::EstablishRequest r;
    r.initiator_ip = bed.fabric.ip(slot);
    r.responder_ip = bed.fabric.ip(8 + slot);
    r.responder_port = static_cast<net::L4Port>(7100 + slot);
    r.initiator_sports = {static_cast<net::L4Port>(30000 + slot)};
    const core::EstablishResult result = mc.establish(r);
    EXPECT_TRUE(result.ok) << result.error;
    return result.channel;
  };
  std::vector<ChannelId> live;
  for (std::size_t slot = 0; slot < kLive; ++slot) {
    live.push_back(establish(slot));
  }
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    const std::size_t slot = cycle % kLive;
    mc.teardown(live[slot]);
    live[slot] = establish(slot);
  }
  bed.run_for(sim::milliseconds(5));  // well past the replication lag

  const core::ChannelJournal& replica = bed.standby.replica();
  EXPECT_EQ(bed.standby.records_replicated(), mc.journal().records_shipped());
  EXPECT_GT(replica.compactions(), 0u);
  EXPECT_LE(replica.size(), std::max(kFloor, 2 * kLive) + 1);
  expect_same_image(replica, mc.journal());
}

TEST(StandbyReplication, DestroyedFollowerDetachesFromThePrimaryStream) {
  // A follower that dies while the primary lives must unhook its commit
  // listener: the primary's next appended record would otherwise call
  // into freed memory (the ASan tier enforces the "freed" part).
  Fabric fabric;
  MicServer server(fabric.host(12), 7000, fabric.rng());
  server.set_on_channel([](core::MicServerChannel&) {});
  {
    StandbyController standby(fabric.mc(), follow_only());
    standby.start();
  }
  MicChannelOptions o;
  o.responder_ip = fabric.ip(12);
  o.responder_port = 7000;
  MicChannel c(fabric.host(0), fabric.mc(), o, fabric.rng());
  fabric.simulator().run_until();
  EXPECT_TRUE(c.ready());
  // The journal still appends and counts shipments; there is simply no
  // listener left to deliver them to.
  EXPECT_GE(fabric.mc().journal().records_shipped(), 1u);
}

TEST(StandbyReplication, StandbyDestroyedWhileItProbesLeavesNoEvent) {
  // The standby dies with a probe reply on its way back from the primary,
  // the probe's timeout pending and a record crossing the replication
  // channel; none of them reaches it afterwards.
  Fabric fabric;
  sim::Simulator& simulator = fabric.simulator();
  {
    StandbyController standby(fabric.mc());  // probes every 2 ms
    standby.start();
    simulator.run_until(simulator.now() + sim::microseconds(2100));
    core::EstablishRequest r;
    r.initiator_ip = fabric.ip(0);
    r.responder_ip = fabric.ip(8);
    r.responder_port = 7100;
    r.initiator_sports = {30000};
    ASSERT_TRUE(fabric.mc().establish(r).ok);
  }
  simulator.run_until(simulator.now() + sim::milliseconds(10));
  EXPECT_TRUE(simulator.idle());
  EXPECT_EQ(&fabric.mc().current(), &fabric.mc());
}

// --- takeover ----------------------------------------------------------------

TEST(Failover, MissedHeartbeatsPromoteTheStandby) {
  FailoverBed bed;
  auto c1 = bed.client(0, bed.options());
  auto c2 = bed.client(3, bed.options());
  bed.run_for(sim::milliseconds(30));
  ASSERT_TRUE(c1->ready() && c2->ready());
  const std::uint64_t epoch_before = bed.fabric.mc().journal().epoch();

  bed.kill_primary();
  EXPECT_FALSE(bed.standby.active());
  bed.run_for(sim::milliseconds(30));

  // The probe budget ran out and the standby recovered from its replica:
  // both channels came back without touching a single installed rule.
  ASSERT_TRUE(bed.standby.active());
  EXPECT_GE(bed.standby.probes_missed(), 3u);
  EXPECT_EQ(&bed.fabric.mc().current(), &bed.standby.mc());
  const auto& report = bed.standby.takeover_report();
  EXPECT_EQ(report.channels_recovered, 2u);
  EXPECT_EQ(report.channels_kept, 2u);
  EXPECT_EQ(report.channels_lost, 0u);
  EXPECT_GT(bed.standby.mc().journal().epoch(), epoch_before);

  // Clients keep forwarding through the new primary, byte for byte.
  constexpr std::uint64_t kBytes = 64 * 1024;
  c1->send(transport::Chunk::virtual_bytes(kBytes));
  c2->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run_for(sim::milliseconds(50));
  EXPECT_EQ(bed.received, 2 * kBytes);

  // RC-2 (and everything else) is clean on the new primary.
  const audit::RunReport audit = audit::run_all(bed.standby.mc());
  EXPECT_TRUE(audit.ok) << audit.first_violation();
  EXPECT_GT(audit.check("RC-2").metric("journal_epoch"), epoch_before);

  // A fresh establishment lands on the new primary, the primary's
  // successor.
  auto c3 = bed.client(5, bed.options());
  bed.run_for(sim::milliseconds(30));
  ASSERT_TRUE(c3->ready());
  EXPECT_NE(bed.standby.mc().channel(c3->id()), nullptr);

  c1->close();
  c2->close();
  c3->close();
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(bed.fabric.simulator().idle());
}

TEST(Failover, DoubleFailoverNeverReusesIds) {
  // Satellite regression: across a crash chain primary -> standby ->
  // standby-of-standby, no ChannelId (rule cookie) and no SELECT-group id
  // watermark ever goes backwards -- a reused cookie could adopt rules it
  // does not own.
  FailoverBed bed;
  auto c1 = bed.client(0, bed.options());
  auto c2 = bed.client(3, bed.options());
  bed.run_for(sim::milliseconds(30));
  ASSERT_TRUE(c1->ready() && c2->ready());
  std::vector<ChannelId> ids = {c1->id(), c2->id()};
  std::uint64_t group_watermark =
      bed.fabric.mc().journal().replay().next_group;

  bed.kill_primary();
  bed.run_for(sim::milliseconds(30));
  ASSERT_TRUE(bed.standby.active());
  core::MimicController& second = bed.standby.mc();

  auto c3 = bed.client(5, bed.options());
  bed.run_for(sim::milliseconds(30));
  ASSERT_TRUE(c3->ready());
  ids.push_back(c3->id());
  {
    const core::JournalImage image = second.journal().replay();
    EXPECT_GE(image.next_group, group_watermark);
    group_watermark = image.next_group;
  }

  // Second hop of the chain: a fresh standby follows the new primary, the
  // new primary dies too.
  StandbyController next(second, follow_only());
  next.start();
  bed.run_for(sim::milliseconds(5));
  second.crash();
  ASSERT_TRUE(next.take_over("test: second failover"));
  bed.run_for(sim::milliseconds(30));
  EXPECT_EQ(&bed.fabric.mc().current(), &next.mc());
  EXPECT_GT(next.mc().journal().epoch(), second.journal().epoch() - 1);

  auto c4 = bed.client(9, bed.options());
  bed.run_for(sim::milliseconds(30));
  ASSERT_TRUE(c4->ready());
  ids.push_back(c4->id());
  {
    const core::JournalImage image = next.mc().journal().replay();
    EXPECT_GE(image.next_group, group_watermark);
  }

  // Every id across the whole chain is distinct, and later generations
  // allocate strictly above the earlier watermarks.
  std::vector<ChannelId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_GT(ids[2], ids[1]);
  EXPECT_GT(ids[3], ids[2]);

  const audit::RunReport audit = audit::run_all(next.mc());
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  c1->close();
  c2->close();
  c3->close();
  c4->close();
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(bed.fabric.simulator().idle());
  // `next` owns the chain's final controller and dies before c1-c3; it
  // leaves the chain as it goes, so their destructors resolve `second`.
}

TEST(Failover, TakeoverOutranksAPrimaryWhoseReplicaCompactedToEmpty) {
  // A replica compacted while no channel was live holds no record, so its
  // replayed image carries no epoch.  The takeover must still fence above
  // the primary's generation, or the zombie's ops would keep passing.
  FabricOptions fo;
  fo.mic.journal_compaction_threshold = 4;
  FailoverBed bed(fo, follow_only());
  core::MimicController& mc = bed.fabric.mc();
  const auto establish = [&] {
    core::EstablishRequest r;
    r.initiator_ip = bed.fabric.ip(0);
    r.responder_ip = bed.fabric.ip(8);
    r.responder_port = 7100;
    r.initiator_sports = {30000};
    const core::EstablishResult result = mc.establish(r);
    EXPECT_TRUE(result.ok) << result.error;
    return result.channel;
  };
  const ChannelId first = establish();
  mc.crash();
  mc.recover(mc.journal());  // the primary's second generation
  const std::uint64_t primary_epoch = mc.journal().epoch();
  ASSERT_GT(primary_epoch, 1u);
  mc.teardown(first);
  mc.teardown(establish());
  bed.run_for(sim::milliseconds(5));
  ASSERT_GT(bed.standby.replica().compactions(), 0u);
  ASSERT_TRUE(bed.standby.replica().empty());

  bed.kill_primary();
  ASSERT_TRUE(bed.standby.take_over("test: empty replica"));
  EXPECT_GT(bed.standby.mc().journal().epoch(), primary_epoch);
}

/// The first link of the `index`-th core switch: a core-aggregation link.
topo::LinkId core_link(Fabric& fabric, std::size_t index) {
  const topo::NodeId core = fabric.fattree().core_switches().at(index);
  return fabric.network().graph().neighbors(core).front().link;
}

TEST(Failover, TakeoverDropsDetoursOfAFailureThatHealedDuringTheOutage) {
  // The primary reroutes the default routing around a core link cut, then
  // dies; the link heals while no controller is up.  The standby's view,
  // resynced from the PHY, has no failure -- so the detour rules the dead
  // primary left must not survive the takeover, nor any later reroute.
  FailoverBed bed({}, follow_only());
  const ctrl::L3Snapshot healthy = ctrl::l3_tables(bed.fabric.mc());
  const topo::LinkId cut = core_link(bed.fabric, 0);
  bed.fabric.network().set_link_up(cut, false);
  bed.run_for(sim::milliseconds(5));
  ASSERT_FALSE(
      ctrl::differing_switches(healthy, ctrl::l3_tables(bed.fabric.mc()))
          .empty());  // the primary did detour

  bed.kill_primary();
  bed.fabric.network().set_link_up(cut, true);
  bed.run_for(sim::milliseconds(5));
  ASSERT_TRUE(bed.standby.take_over("test: failure healed during outage"));
  EXPECT_TRUE(bed.standby.mc().failed_links().empty());
  EXPECT_EQ(ctrl::differing_switches(healthy,
                                     ctrl::l3_tables(bed.standby.mc())),
            std::vector<topo::NodeId>{});

  // A later failure elsewhere and its repair leave the healthy tables.
  const topo::LinkId other = core_link(bed.fabric, 1);
  bed.fabric.network().set_link_up(other, false);
  bed.run_for(sim::milliseconds(5));
  bed.fabric.network().set_link_up(other, true);
  bed.run_for(sim::milliseconds(5));
  EXPECT_TRUE(bed.standby.mc().failed_links().empty());
  EXPECT_EQ(ctrl::differing_switches(healthy,
                                     ctrl::l3_tables(bed.standby.mc())),
            std::vector<topo::NodeId>{});
}

TEST(Failover, DestroyedStandbyLeavesTheChainAndHearsNoPortStatus) {
  // A standby that took over subscribed its controller to every switch's
  // port status and became the primary's successor.  Once it is gone the
  // primary's clients resolve the primary again, and a link going down
  // reaches only the controllers still alive.
  Fabric fabric;
  {
    StandbyController standby(fabric.mc(), follow_only());
    standby.start();
    fabric.mc().crash();
    ASSERT_TRUE(standby.take_over("test: short-lived standby"));
    EXPECT_EQ(&fabric.mc().current(), &standby.mc());
    fabric.simulator().run_until();
  }
  EXPECT_EQ(&fabric.mc().current(), &fabric.mc());
  const topo::LinkId cut = core_link(fabric, 0);
  fabric.network().set_link_up(cut, false);
  fabric.simulator().run_until();
  fabric.mc().recover(fabric.mc().journal());
  EXPECT_TRUE(fabric.mc().failed_links().contains(cut));
}

TEST(Failover, StaleReplicaSweepsAndClientsReestablish) {
  // Negative test: the replication stream lagged behind the failure.  The
  // standby takes over from a truncated replica; the unexplained channel's
  // rules are swept (reconcile-by-audit, exactly the PR-5 degradation) and
  // its client auto-re-establishes against the new primary.
  FailoverBed bed;
  auto c1 = bed.client(0, bed.options());
  bed.run_for(sim::milliseconds(30));
  auto c2 = bed.client(3, bed.options());
  bed.run_for(sim::milliseconds(30));
  ASSERT_TRUE(c1->ready() && c2->ready());

  bed.standby.drop_replica_tail(1);  // c2's establish never replicated
  bed.kill_primary();
  bed.run_for(sim::milliseconds(60));

  ASSERT_TRUE(bed.standby.active());
  const auto& report = bed.standby.takeover_report();
  EXPECT_EQ(report.channels_recovered, 1u);
  EXPECT_GT(report.orphan_rules_removed, 0u);

  // c2's heartbeat noticed the sweep and rebuilt the channel under a new
  // id on the new primary; both clients deliver.
  ASSERT_TRUE(c2->ready());
  EXPECT_FALSE(c2->failed());
  EXPECT_GE(c2->reestablish_attempts(), 1);
  // The id may legitimately be reused: the watermark record was exactly
  // what the replica lost, and the sweep removed every rule the old cookie
  // owned, so a fresh allocation of it collides with nothing (FD-1/CA-1
  // below would catch it otherwise).
  EXPECT_NE(bed.standby.mc().channel(c2->id()), nullptr);
  constexpr std::uint64_t kBytes = 64 * 1024;
  c1->send(transport::Chunk::virtual_bytes(kBytes));
  c2->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run_for(sim::milliseconds(50));
  EXPECT_EQ(bed.received, 2 * kBytes);

  const audit::RunReport audit = audit::run_all(bed.standby.mc());
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  c1->close();
  c2->close();
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(bed.fabric.simulator().idle());
}

TEST(Failover, ZombieExPrimaryIsFencedOutAndStepsDown) {
  // The partition scenario: the primary is alive but unreachable from the
  // standby, which takes over anyway.  Dual primaries exist for a moment --
  // the fencing epoch guarantees the zombie's next southbound op is refused
  // and forces it to step down, so the fabric only ever obeys one master.
  FailoverBed bed;
  auto c1 = bed.client(0, bed.options());
  bed.run_for(sim::milliseconds(30));
  ASSERT_TRUE(c1->ready());

  bed.standby.set_partitioned(true);
  bed.run_for(sim::milliseconds(30));
  ASSERT_TRUE(bed.standby.active());
  EXPECT_FALSE(bed.fabric.mc().crashed());  // the zombie lives...

  // ...until a link event makes it issue a fenced op: cut a link on the
  // channel's path.  Both controllers hear the port status; the new
  // primary repairs the channel, the zombie's competing repair is refused
  // at every switch and it deposes itself.
  const auto& plan = bed.standby.mc().channel(c1->id())->flows[0];
  const topo::LinkId victim = bed.fabric.network().graph().link_between(
      plan.path[plan.path.size() / 2], plan.path[plan.path.size() / 2 + 1]);
  bed.fabric.network().set_link_up(victim, false);
  bed.run_for(sim::milliseconds(30));

  EXPECT_TRUE(bed.fabric.mc().deposed() || bed.fabric.mc().crashed());
  EXPECT_GT(bed.fabric.mc().fenced_ops(), 0u);
  bed.run_for(sim::milliseconds(5));
  EXPECT_TRUE(bed.fabric.mc().crashed());  // the deferred self-crash landed

  bed.fabric.network().set_link_up(victim, true);
  bed.run_for(sim::milliseconds(30));
  ASSERT_TRUE(c1->ready());
  constexpr std::uint64_t kBytes = 64 * 1024;
  c1->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run_for(sim::milliseconds(50));
  EXPECT_EQ(bed.received, kBytes);

  // RC-2 on the survivor: journal and fence epochs agree, no switch obeys
  // a higher generation, and the zombie's refusals are visible.
  const audit::RunReport audit = audit::run_all(bed.standby.mc());
  EXPECT_TRUE(audit.ok) << audit.first_violation();
  EXPECT_GT(audit.check("RC-2").metric("stale_ops_rejected"), 0u);

  c1->close();
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(bed.fabric.simulator().idle());
}

// --- failover chaos soak ------------------------------------------------------

struct FailoverOutcome {
  std::uint64_t received = 0;
  std::size_t alive = 0;
  std::size_t kills = 0;
  bool took_over = false;  // the standby is the primary's successor
  std::uint64_t replicated = 0;
  std::uint64_t stale_ops = 0;
  std::size_t recovered = 0;
  std::size_t orphans = 0;
  int reestablishments = 0;
  std::uint64_t trace_hash = 0;  // see ChaosOutcome::trace_hash
  std::uint64_t trace_packets = 0;

  bool operator==(const FailoverOutcome&) const = default;
};

/// One seeded primary-kill schedule on top of the regular fault mix: the
/// standby performs the takeover on its own (heartbeat machinery) and
/// becomes the primary's successor, which the clients resolve.  The run
/// must end with every surviving channel delivering and a clean audit --
/// including RC-2 -- on whichever controller is primary at the end.
FailoverOutcome run_failover_chaos(
    Fabric& fabric, std::uint64_t seed,
    FaultInjectorOptions::PrimaryKillMode mode) {
  net::TraceHash trace(fabric.network());
  StandbyController standby(fabric.mc(), {});
  standby.start();

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
  fo.primary_kills = 1;
  fo.primary_kill_mode = mode;
  FaultInjector injector(fabric.network(), fabric.mc(), fo);
  injector.attach_standby(&standby);
  injector.arm();
  run_for(sim::milliseconds(400));

  EXPECT_EQ(injector.primary_kills_fired(), 1u);
  EXPECT_TRUE(standby.active());
  core::MimicController& mc = fabric.mc().current();
  EXPECT_EQ(&mc, &standby.mc());
  EXPECT_FALSE(mc.crashed());

  using KillMode = FaultInjectorOptions::PrimaryKillMode;
  if (mode == KillMode::kZombie &&
      !(fabric.mc().deposed() || fabric.mc().crashed())) {
    // No post-takeover event made the zombie act yet: provoke one fenced
    // op (a switch-switch link flap both controllers react to) so the run
    // always ends with a single primary.
    const auto& graph = fabric.network().graph();
    topo::LinkId link = topo::kInvalidLink;
    for (const topo::NodeId sw : graph.switches()) {
      for (const auto& adj : graph.neighbors(sw)) {
        if (graph.is_switch(adj.peer)) {
          link = adj.link;
          break;
        }
      }
      if (link != topo::kInvalidLink) break;
    }
    EXPECT_NE(link, topo::kInvalidLink);
    if (link != topo::kInvalidLink) {
      fabric.network().set_link_up(link, false);
      run_for(sim::milliseconds(10));
      fabric.network().set_link_up(link, true);
      run_for(sim::milliseconds(30));
    }
  }
  if (mode == KillMode::kZombie) {
    EXPECT_TRUE(fabric.mc().deposed() || fabric.mc().crashed());
  } else {
    EXPECT_TRUE(fabric.mc().crashed());
  }
  EXPECT_TRUE(mc.failed_links().empty());
  EXPECT_TRUE(mc.failed_switches().empty());

  const audit::RunReport report = audit::run_all(mc);
  EXPECT_TRUE(report.ok) << report.first_violation();

  // Surviving channels keep forwarding (or auto-re-established) through
  // the new primary, byte for byte.
  constexpr std::uint64_t kProbe = 16 * 1024;
  const std::uint64_t before = received;
  std::uint64_t expected = 0;
  FailoverOutcome out;
  for (const auto& client : clients) {
    if (client->failed() || !client->ready()) continue;
    EXPECT_NE(mc.channel(client->id()), nullptr);
    client->send(transport::Chunk::virtual_bytes(kProbe));
    expected += kProbe;
    ++out.alive;
  }
  run_for(sim::milliseconds(100));
  EXPECT_EQ(received - before, expected);

  out.received = received;
  out.kills = injector.primary_kills_fired();
  out.took_over = &mc == &standby.mc();
  out.replicated = standby.records_replicated();
  out.stale_ops = report.check("RC-2").metric("stale_ops_rejected");
  out.recovered = standby.takeover_report().channels_recovered;
  out.orphans = standby.takeover_report().orphan_rules_removed;
  for (const auto& client : clients) {
    out.reestablishments += client->reestablish_attempts();
  }

  for (const auto& client : clients) client->close();
  fabric.simulator().run_until();
  EXPECT_TRUE(fabric.simulator().idle());
  const audit::RunReport final_report = audit::run_all(mc);
  EXPECT_TRUE(final_report.ok) << final_report.first_violation();
  out.trace_hash = trace.value();
  out.trace_packets = trace.packets();
  if (std::getenv("MIC_PRINT_TRACE_HASH") != nullptr) {
    const char* mode_name = "?";
    switch (mode) {
      case FaultInjectorOptions::PrimaryKillMode::kClean:
        mode_name = "clean"; break;
      case FaultInjectorOptions::PrimaryKillMode::kTornTail:
        mode_name = "torn-tail"; break;
      case FaultInjectorOptions::PrimaryKillMode::kZombie:
        mode_name = "zombie"; break;
    }
    std::fprintf(stderr,
                 "TRACE_HASH failover-%s seed=%llu hash=%016llx n=%llu\n",
                 mode_name, static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(out.trace_hash),
                 static_cast<unsigned long long>(out.trace_packets));
  }
  return out;
}

using KillMode = FaultInjectorOptions::PrimaryKillMode;

void soak(KillMode mode, std::uint64_t fabric_seed_base) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FabricOptions fo;
    fo.seed = fabric_seed_base + seed;
    Fabric fabric(fo);
    const FailoverOutcome out = run_failover_chaos(fabric, seed, mode);
    EXPECT_TRUE(out.took_over);
    EXPECT_GT(out.replicated, 0u);
  }
}

TEST(FailoverSoak, CleanKill) { soak(KillMode::kClean, 600); }

TEST(FailoverSoak, TornTail) { soak(KillMode::kTornTail, 610); }

TEST(FailoverSoak, ZombieExPrimary) { soak(KillMode::kZombie, 630); }

TEST(FailoverSoak, SameSeedSameOutcome) {
  auto once = [] {
    FabricOptions fo;
    fo.seed = 641;
    Fabric fabric(fo);
    return run_failover_chaos(fabric, 17, KillMode::kTornTail);
  };
  const FailoverOutcome first = once();
  const FailoverOutcome second = once();
  EXPECT_EQ(first, second);  // includes trace_hash and trace_packets
  EXPECT_NE(first.trace_hash, 0u);
}

// --- non-invasiveness ---------------------------------------------------------

TEST(FailoverSoak, FollowOnlyStandbyIsTraceInvisible) {
  // The acceptance bar for enabling the standby by default: with the
  // standby in follow-only mode (no probes, no takeover), a seeded chaos
  // run's packet trace is bit-identical to the same run without it --
  // replication is pure simulator events and never touches a link.
  auto once = [](bool with_standby) {
    FabricOptions fo;
    fo.seed = 650;
    Fabric fabric(fo);
    net::TraceHash trace(fabric.network());
    std::unique_ptr<StandbyController> standby;
    if (with_standby) {
      standby = std::make_unique<StandbyController>(fabric.mc(),
                                                    follow_only());
      standby->start();
    }

    MicServer server(fabric.host(12), 7000, fabric.rng());
    server.set_on_channel([](core::MicServerChannel&) {});
    std::vector<std::unique_ptr<MicChannel>> clients;
    for (const std::size_t host : {0ul, 3ul, 5ul}) {
      MicChannelOptions o;
      o.responder_ip = fabric.ip(12);
      o.responder_port = 7000;
      o.auto_reestablish = true;
      clients.push_back(std::make_unique<MicChannel>(
          fabric.host(host), fabric.mc(), o, fabric.rng()));
    }
    fabric.simulator().run_until();
    for (const auto& client : clients) {
      EXPECT_TRUE(client->ready());
    }
    for (const auto& client : clients) {
      client->send(transport::Chunk::virtual_bytes(512 * 1024));
    }
    FaultInjectorOptions fo2;
    fo2.seed = 7;
    FaultInjector injector(fabric.network(), fabric.mc(), fo2);
    injector.arm();
    fabric.simulator().run_until();
    if (with_standby) {
      EXPECT_GT(standby->records_replicated(), 0u);
    }
    return std::pair<std::uint64_t, std::uint64_t>{trace.value(),
                                                   trace.packets()};
  };
  const auto bare = once(false);
  const auto followed = once(true);
  EXPECT_EQ(bare, followed);
  EXPECT_NE(bare.first, 0u);
}

}  // namespace
}  // namespace mic
