// Controller crash-recovery: the write-ahead channel journal (round-trip,
// compaction, truncation), crash()/recover() with switch resync and
// orphan-rule reconciliation (RC-1), the recovery and failure branches
// that decoy channels, rebooted switches and lost repair records reach,
// client-side survival of controller silence (establishment timeout,
// heartbeat re-attach), and the selective L3 reinstall counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/audit_registry.hpp"
#include "core/channel_journal.hpp"
#include "core/fabric.hpp"
#include "core/mic_client.hpp"
#include "support/l3_tables.hpp"

namespace mic::core {
namespace {

/// Fabric + responder + one-line counters, like the chaos-test beds.
struct RecoveryBed {
  explicit RecoveryBed(FabricOptions fo = {}) : fabric(fo) {
    server = std::make_unique<MicServer>(fabric.host(12), 7000, fabric.rng());
    server->set_on_channel([this](MicServerChannel& channel) {
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

  std::unique_ptr<MicChannel> client(std::size_t host,
                                     MicChannelOptions o) {
    return std::make_unique<MicChannel>(fabric.host(host), fabric.mc(), o,
                                        fabric.rng());
  }

  void run() { fabric.simulator().run_until(); }
  void run_for(sim::SimTime dt) {
    fabric.simulator().run_until(fabric.simulator().now() + dt);
  }

  Fabric fabric;
  std::unique_ptr<MicServer> server;
  std::uint64_t received = 0;
};

// --- journal -----------------------------------------------------------------

TEST(ChannelJournal, ReplayMatchesLiveChannelsAcrossTeardown) {
  RecoveryBed bed;
  auto c1 = bed.client(0, bed.options());
  auto c2 = bed.client(3, bed.options());
  bed.run();
  ASSERT_TRUE(c1->ready());
  ASSERT_TRUE(c2->ready());

  const ChannelJournal& journal = bed.fabric.mc().journal();
  JournalImage image = journal.replay();
  ASSERT_EQ(image.channels.size(), 2u);
  for (const ChannelId id : bed.fabric.mc().channel_ids()) {
    ASSERT_TRUE(image.channels.contains(id));
    EXPECT_TRUE(image.channels.at(id) == *bed.fabric.mc().channel(id));
  }
  // The high-water marks cover every id that may be wired into a switch.
  EXPECT_GT(image.next_channel, c2->id());

  // A teardown folds into the replay as an absence, not a special case.
  const ChannelId gone = c1->id();
  c1->close();
  bed.run();
  image = bed.fabric.mc().journal().replay();
  EXPECT_EQ(image.channels.size(), 1u);
  EXPECT_FALSE(image.channels.contains(gone));
  EXPECT_GE(journal.appends(), 3u);  // two establishes + a tombstone
}

TEST(ChannelJournal, AutoCompactionBoundsTheLog) {
  FabricOptions fo;
  fo.mic.journal_compaction_threshold = 4;
  RecoveryBed bed(fo);

  // Churn: establish + teardown repeatedly so tombstones pile up past the
  // threshold and compaction rewrites the log as snapshots.
  for (int i = 0; i < 6; ++i) {
    auto c = bed.client(static_cast<std::size_t>(i % 4), bed.options());
    bed.run();
    ASSERT_TRUE(c->ready());
    c->close();
    bed.run();
  }
  auto keeper = bed.client(5, bed.options());
  bed.run();
  ASSERT_TRUE(keeper->ready());

  const ChannelJournal& journal = bed.fabric.mc().journal();
  EXPECT_GT(journal.compactions(), 0u);
  // max(floor 4, 2 x the one live channel) + the latest append.
  EXPECT_LE(journal.size(), 4u + 1u);
  const JournalImage image = journal.replay();
  ASSERT_EQ(image.channels.size(), 1u);
  EXPECT_TRUE(image.channels.contains(keeper->id()));
  // Compaction must not lose the allocator high-water marks.
  EXPECT_GT(image.next_channel, keeper->id());
}

TEST(ChannelJournal, TruncateTailModelsACrashMidCommit) {
  RecoveryBed bed;
  auto c1 = bed.client(0, bed.options());
  bed.run();
  auto c2 = bed.client(3, bed.options());
  bed.run();
  ASSERT_TRUE(c1->ready());
  ASSERT_TRUE(c2->ready());

  ChannelJournal damaged = bed.fabric.mc().journal();
  damaged.truncate_tail(1);  // the second establish never hit stable storage
  const JournalImage image = damaged.replay();
  ASSERT_EQ(image.channels.size(), 1u);
  EXPECT_TRUE(image.channels.contains(c1->id()));
  EXPECT_FALSE(image.channels.contains(c2->id()));
}

// --- crash / recover ---------------------------------------------------------

TEST(CrashRecovery, DataPlaneOutlivesACrashedController) {
  RecoveryBed bed;
  auto client = bed.client(0, bed.options());
  bed.run();
  ASSERT_TRUE(client->ready());

  bed.fabric.mc().crash();
  EXPECT_TRUE(bed.fabric.mc().crashed());

  // Control plane: silent (a synchronous establish is refused, the async
  // path simply never answers).
  EstablishRequest request;
  request.initiator_ip = bed.fabric.ip(1);
  request.responder_ip = bed.fabric.ip(12);
  request.responder_port = 7000;
  request.initiator_sports = {41001};
  EXPECT_FALSE(bed.fabric.mc().establish(request).ok);

  // Data plane: the installed rules keep forwarding without the MC.
  constexpr std::uint64_t kBytes = 128 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);

  const auto report = bed.fabric.mc().recover(bed.fabric.mc().journal());
  EXPECT_FALSE(bed.fabric.mc().crashed());
  EXPECT_EQ(report.channels_recovered, 1u);
  bed.run();
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);
}

TEST(CrashRecovery, CleanJournalRecoversEverythingInPlace) {
  RecoveryBed bed;
  auto c1 = bed.client(0, bed.options());
  auto c2 = bed.client(3, bed.options());
  bed.run();
  ASSERT_TRUE(c1->ready() && c2->ready());
  const std::uint64_t rules_before =
      audit::run_all(bed.fabric).check("FD-1").metric("mflow_rules");

  bed.fabric.mc().crash();
  const auto report = bed.fabric.mc().recover(bed.fabric.mc().journal());
  bed.run();

  // Nothing moved: every switch already held exactly its journaled rules,
  // so recovery verifies in place and issues zero flow-mods.
  EXPECT_EQ(report.channels_recovered, 2u);
  EXPECT_EQ(report.channels_kept, 2u);
  EXPECT_EQ(report.channels_reinstalled, 0u);
  EXPECT_EQ(report.channels_replanned, 0u);
  EXPECT_EQ(report.channels_lost, 0u);
  EXPECT_EQ(report.orphan_rules_removed, 0u);
  EXPECT_GT(report.switches_resynced, 0u);

  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();
  EXPECT_EQ(audit.check("FD-1").metric("mflow_rules"), rules_before);

  // Surviving channels still deliver byte-for-byte.
  constexpr std::uint64_t kBytes = 64 * 1024;
  c1->send(transport::Chunk::virtual_bytes(kBytes));
  c2->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, 2 * kBytes);
  EXPECT_EQ(bed.fabric.mc().crashes(), 1u);
}

TEST(CrashRecovery, RecoverRebuildsALargeJournalInFewCompactions) {
  // recover() clears the journal and re-records every live channel.  With
  // four times the floor live, that rebuild must compact once per doubling
  // of the log, not once per re-recorded channel.
  FabricOptions fo;
  fo.mic.journal_compaction_threshold = 4;
  RecoveryBed bed(fo);
  std::vector<std::unique_ptr<MicChannel>> clients;
  for (std::size_t i = 0; i < 16; ++i) {
    clients.push_back(bed.client(i % 8, bed.options()));
  }
  bed.run();
  for (const auto& client : clients) ASSERT_TRUE(client->ready());

  MimicController& mc = bed.fabric.mc();
  mc.crash();
  const std::uint64_t compactions_before = mc.journal().compactions();
  const auto report = mc.recover(mc.journal());
  bed.run();
  EXPECT_EQ(report.channels_recovered, 16u);
  EXPECT_LE(mc.journal().compactions() - compactions_before, 2u);

  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();
  const JournalImage image = mc.journal().replay();
  ASSERT_EQ(image.channels.size(), mc.active_channel_count());
  for (const ChannelId id : mc.channel_ids()) {
    ASSERT_TRUE(image.channels.contains(id)) << "channel " << id;
    EXPECT_TRUE(image.channels.at(id) == *mc.channel(id)) << "channel " << id;
  }
}

TEST(CrashRecovery, TruncatedJournalSweepsTheUnexplainedChannel) {
  RecoveryBed bed;
  auto c1 = bed.client(0, bed.options());
  bed.run();
  auto c2 = bed.client(3, bed.options());
  bed.run();
  ASSERT_TRUE(c1->ready() && c2->ready());

  bed.fabric.mc().crash();
  ChannelJournal damaged = bed.fabric.mc().journal();
  damaged.truncate_tail(1);  // c2's establish record is gone
  const auto report = bed.fabric.mc().recover(damaged);
  bed.run();

  // The journal can no longer explain c2's rules: reconcile-by-audit tears
  // down every cookie the replayed image does not own.
  EXPECT_EQ(report.channels_recovered, 1u);
  EXPECT_GT(report.orphan_rules_removed, 0u);
  EXPECT_EQ(bed.fabric.mc().active_channel_count(), 1u);
  EXPECT_EQ(bed.fabric.mc().channel(c2->id()), nullptr);

  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  // The survivor is untouched.
  constexpr std::uint64_t kBytes = 64 * 1024;
  c1->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);
}

TEST(CrashRecovery, RecoveryRepairsChannelsWhoseLinksDiedMeanwhile) {
  // The MC is down when a path link fails: nobody repairs, nothing is
  // lost -- recovery's failure-view resync derives the cut from the PHY
  // and re-plans the stranded channel before reopening the control plane.
  RecoveryBed bed;
  auto client = bed.client(0, bed.options());
  bed.run();
  ASSERT_TRUE(client->ready());
  const auto& plan = bed.fabric.mc().channel(client->id())->flows[0];
  const topo::LinkId victim = bed.fabric.network().graph().link_between(
      plan.path[plan.path.size() / 2], plan.path[plan.path.size() / 2 + 1]);

  bed.fabric.mc().crash();
  bed.fabric.network().set_link_up(victim, false);
  bed.run();  // the port-status reports fall on deaf ears

  const auto report = bed.fabric.mc().recover(bed.fabric.mc().journal());
  bed.run();
  EXPECT_GT(report.links_resynced, 0u);
  EXPECT_EQ(report.channels_replanned, 1u);
  EXPECT_TRUE(bed.fabric.mc().failed_links().contains(victim));

  constexpr std::uint64_t kBytes = 64 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);

  bed.fabric.network().set_link_up(victim, true);
  bed.run();
  EXPECT_TRUE(bed.fabric.mc().failed_links().empty());
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);
}

// --- recovery and failure branches --------------------------------------------

/// Cut every link of `sw` in the PHY and report the switch dead, as the
/// fault injector's switch crash does.
void crash_switch(RecoveryBed& bed, topo::NodeId sw) {
  for (const auto& adj : bed.fabric.network().graph().neighbors(sw)) {
    bed.fabric.network().set_link_up(adj.link, false);
  }
  bed.fabric.mc().fail_switch(sw);
}

TEST(CrashRecovery, DecoyChannelsPassRc1BeforeAndAfterRecovery) {
  // RC-1 compares a partially-multicast channel's ALL groups through their
  // buckets.  Eight two-decoy channels pass it before and after a crash
  // (each kept in place), and again once half of them have closed, which
  // compacts the group lists they shared switches with.
  RecoveryBed bed;
  MicChannelOptions o = bed.options();
  o.multicast_decoys = 2;
  std::vector<std::unique_ptr<MicChannel>> channels;
  for (std::size_t host = 0; host < 8; ++host) {
    channels.push_back(bed.client(host, o));
  }
  bed.run();
  MimicController& mc = bed.fabric.mc();
  for (const auto& channel : channels) {
    ASSERT_TRUE(channel->ready());
    ASSERT_FALSE(mc.channel(channel->id())->flows[0].decoys.empty());
  }
  audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  mc.crash();
  const auto report = mc.recover(mc.journal());
  bed.run();
  EXPECT_EQ(report.channels_recovered, 8u);
  EXPECT_EQ(report.channels_kept, 8u);
  EXPECT_EQ(report.channels_reinstalled, 0u);
  audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  for (std::size_t i = 0; i < 4; ++i) channels[i]->close();
  bed.run();
  EXPECT_EQ(mc.active_channel_count(), 4u);
  audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  constexpr std::uint64_t kBytes = 64 * 1024;
  for (std::size_t i = 4; i < 8; ++i) {
    channels[i]->send(transport::Chunk::virtual_bytes(kBytes));
  }
  bed.run();
  EXPECT_EQ(bed.received, 4 * kBytes);
}

TEST(SwitchFailure, LosingOnlyADecoyDropRuleReplansTheChannel) {
  // A switch off the channel's path that holds nothing of it but a decoy's
  // drop rule still carries the channel: without that rule the decoy copy
  // would leak on as live-looking traffic, so its failure replans.
  RecoveryBed bed;
  MicChannelOptions o = bed.options();
  o.multicast_decoys = 2;
  auto client = bed.client(0, o);
  bed.run();
  ASSERT_TRUE(client->ready());
  MimicController& mc = bed.fabric.mc();
  const MFlowPlan& plan = mc.channel(client->id())->flows[0];
  topo::NodeId victim = topo::kInvalidNode;
  for (const DecoyPlan& decoy : plan.decoys) {
    if (std::ranges::find(plan.path, decoy.next_switch) == plan.path.end()) {
      victim = decoy.next_switch;
      break;
    }
  }
  ASSERT_NE(victim, topo::kInvalidNode);

  const std::uint64_t repaired_before = mc.channels_repaired();
  crash_switch(bed, victim);
  bed.run();
  EXPECT_EQ(mc.channels_repaired(), repaired_before + 1);
  const MFlowPlan& replanned = mc.channel(client->id())->flows[0];
  EXPECT_EQ(std::ranges::find(replanned.path, victim), replanned.path.end());
  for (const DecoyPlan& decoy : replanned.decoys) {
    EXPECT_NE(decoy.next_switch, victim);
  }
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  constexpr std::uint64_t kBytes = 64 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);
}

TEST(CrashRecovery, SwitchThatRebootedDuringTheOutageIsRestored) {
  // The switch dies while the MC is up and comes back while it is down:
  // the resync finds every link of a "failed" switch up again, restores
  // the switch and refills its table.
  RecoveryBed bed;
  auto client = bed.client(0, bed.options());
  bed.run();
  ASSERT_TRUE(client->ready());
  MimicController& mc = bed.fabric.mc();
  const topo::NodeId victim = bed.fabric.fattree().core_switches().front();
  crash_switch(bed, victim);
  bed.run();
  ASSERT_TRUE(mc.failed_switches().contains(victim));

  mc.crash();
  for (const auto& adj : bed.fabric.network().graph().neighbors(victim)) {
    bed.fabric.network().set_link_up(adj.link, true);
  }
  bed.run();  // the port-status reports fall on deaf ears
  const auto report = mc.recover(mc.journal());
  bed.run();
  EXPECT_EQ(report.links_resynced, 4u);  // each of the core switch's links
  EXPECT_TRUE(mc.failed_switches().empty());
  EXPECT_TRUE(mc.failed_links().empty());
  EXPECT_TRUE(mc.switch_at(victim)->table().has_cookie(ctrl::kL3Cookie));
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  constexpr std::uint64_t kBytes = 64 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);
}

TEST(CrashRecovery, MissedTransitionsCostOneReroute) {
  // Four core links go down while the MC is crashed.  The resync records
  // all four transitions before it reacts, so the default routing is
  // re-derived once for the final view, not once per link.
  RecoveryBed bed;
  auto client = bed.client(0, bed.options());
  bed.run();
  ASSERT_TRUE(client->ready());
  MimicController& mc = bed.fabric.mc();
  const topo::NodeId core = bed.fabric.fattree().core_switches().front();

  mc.crash();
  for (const auto& adj : bed.fabric.network().graph().neighbors(core)) {
    bed.fabric.network().set_link_up(adj.link, false);
  }
  bed.run();  // the port-status reports fall on deaf ears
  const std::uint64_t reroutes_before = mc.reroute_stats().reroutes;
  const auto report = mc.recover(mc.journal());
  bed.run();
  EXPECT_EQ(report.links_resynced, 4u);
  EXPECT_EQ(mc.reroute_stats().reroutes, reroutes_before + 1);
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  constexpr std::uint64_t kBytes = 64 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);
}

/// Raise every link of `sw` but the one to `crashed_peer`, then report the
/// reboot, as the fault injector's switch recovery does.
void reboot_switch(RecoveryBed& bed, topo::NodeId sw,
                   topo::NodeId crashed_peer = topo::kInvalidNode) {
  for (const auto& adj : bed.fabric.network().graph().neighbors(sw)) {
    if (adj.peer != crashed_peer) {
      bed.fabric.network().set_link_up(adj.link, true);
    }
  }
  bed.fabric.mc().restore_switch(sw);
}

/// The first aggregation switch and the first core switch adjacent to it.
std::pair<topo::NodeId, topo::NodeId> agg_and_its_core(RecoveryBed& bed) {
  const topo::NodeId agg = bed.fabric.fattree().agg_switches().front();
  for (const auto& adj : bed.fabric.network().graph().neighbors(agg)) {
    if (bed.fabric.fattree().pod_of(adj.peer) < 0) return {agg, adj.peer};
  }
  ADD_FAILURE() << "aggregation switch without a core";
  return {agg, topo::kInvalidNode};
}

TEST(CrashRecovery, LinkToASwitchThatCrashedDuringTheOutageStaysDown) {
  // Aggregation switch A fails with the MC up, and its core C crashes
  // while the MC is down.  After recovery A reboots with A-C still down in
  // the PHY: the link stays failed, and C stays dead until it reboots.
  RecoveryBed bed;
  MimicController& mc = bed.fabric.mc();
  const auto [agg, core] = agg_and_its_core(bed);
  const topo::LinkId agg_core =
      bed.fabric.network().graph().link_between(agg, core);
  crash_switch(bed, agg);
  bed.run();
  mc.crash();
  crash_switch(bed, core);
  bed.run();
  mc.recover(mc.journal());
  bed.run();
  reboot_switch(bed, agg, core);
  bed.run();
  EXPECT_TRUE(mc.failed_links().contains(agg_core));
  EXPECT_FALSE(bed.fabric.network().link_up(agg_core));
  EXPECT_EQ(mc.failed_switches(), std::unordered_set<topo::NodeId>{core});
  audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  reboot_switch(bed, core);
  bed.run();
  EXPECT_TRUE(mc.failed_links().empty());
  EXPECT_TRUE(mc.failed_switches().empty());
  auto client = bed.client(0, bed.options());
  bed.run();
  ASSERT_TRUE(client->ready());
  constexpr std::uint64_t kBytes = 64 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);
  audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();
}

TEST(CrashRecovery, SwitchThatRebootedBeforeItsNeighbourCrashedIsRestored) {
  // Aggregation switch A fails with the MC up, reboots while the MC is
  // down, and then its core C crashes.  Recovery brings A back with only
  // C's links failed, so new channels may route through A again.
  RecoveryBed bed;
  MimicController& mc = bed.fabric.mc();
  const auto [agg, core] = agg_and_its_core(bed);
  crash_switch(bed, agg);
  bed.run();
  mc.crash();
  reboot_switch(bed, agg);
  crash_switch(bed, core);
  bed.run();
  mc.recover(mc.journal());
  bed.run();
  EXPECT_EQ(mc.failed_switches(), std::unordered_set<topo::NodeId>{core});
  std::unordered_set<topo::LinkId> core_links;
  for (const auto& adj : bed.fabric.network().graph().neighbors(core)) {
    core_links.insert(adj.link);
  }
  EXPECT_EQ(core_links.size(), 4u);
  EXPECT_EQ(mc.failed_links(), core_links);

  std::vector<std::unique_ptr<MicChannel>> channels;
  for (std::size_t host = 0; host < 4; ++host) {
    channels.push_back(bed.client(host, bed.options()));
  }
  bed.run();
  std::size_t through_agg = 0;
  for (const auto& channel : channels) {
    ASSERT_TRUE(channel->ready());
    const MFlowPlan& plan = mc.channel(channel->id())->flows[0];
    if (std::ranges::find(plan.path, agg) != plan.path.end()) ++through_agg;
  }
  EXPECT_GE(through_agg, 1u);
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();
}

TEST(SwitchFailure, PhyUpOfADeadSwitchLinkWaitsForTheWholeSwitch) {
  // A failed switch comes back whole or not at all: one of its links
  // coming up in the PHY leaves that link down in the failure view, and
  // the last one restores the switch and refills its default routing.
  RecoveryBed bed;
  MimicController& mc = bed.fabric.mc();
  const topo::NodeId core = bed.fabric.fattree().core_switches().front();
  const auto links = bed.fabric.network().graph().neighbors(core);
  crash_switch(bed, core);
  bed.run();
  ASSERT_TRUE(mc.failed_switches().contains(core));

  bed.fabric.network().set_link_up(links.front().link, true);
  bed.run();
  EXPECT_TRUE(mc.failed_links().contains(links.front().link));
  EXPECT_TRUE(mc.failed_switches().contains(core));
  EXPECT_FALSE(mc.switch_at(core)->table().has_cookie(ctrl::kL3Cookie));

  for (const auto& adj : links.subspan(1)) {
    bed.fabric.network().set_link_up(adj.link, true);
  }
  bed.run();
  EXPECT_TRUE(mc.failed_switches().empty());
  EXPECT_TRUE(mc.failed_links().empty());
  EXPECT_TRUE(mc.switch_at(core)->table().has_cookie(ctrl::kL3Cookie));
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();
}

TEST(SwitchFailure, RebootSeenOnlyThroughThePhyKeepsAuditsClean) {
  // Nobody calls restore_switch: the MC learns of the reboot from the
  // port-status reports alone, and channels planned afterwards may route
  // through the switch again.
  RecoveryBed bed;
  MimicController& mc = bed.fabric.mc();
  const topo::NodeId core = bed.fabric.fattree().core_switches().front();
  crash_switch(bed, core);
  bed.run();
  for (const auto& adj : bed.fabric.network().graph().neighbors(core)) {
    bed.fabric.network().set_link_up(adj.link, true);
  }
  bed.run();
  EXPECT_TRUE(mc.failed_switches().empty());

  std::vector<std::unique_ptr<MicChannel>> channels;
  for (std::size_t host = 0; host < 8; ++host) {
    channels.push_back(bed.client(host, bed.options()));
  }
  bed.run();
  std::size_t through_core = 0;
  for (const auto& channel : channels) {
    ASSERT_TRUE(channel->ready());
    const MFlowPlan& plan = mc.channel(channel->id())->flows[0];
    if (std::ranges::find(plan.path, core) != plan.path.end()) ++through_core;
  }
  EXPECT_GE(through_core, 1u);
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();
}

TEST(CrashRecovery, TruncatedRepairRecordReplansTheDeadPath) {
  // The channel was rerouted around a cut that is still down, but the
  // repair record never reached stable storage: recovery replays the old
  // route across the dead link, sweeps the repaired rules the journal no
  // longer explains and replans.
  RecoveryBed bed;
  auto client = bed.client(0, bed.options());
  bed.run();
  ASSERT_TRUE(client->ready());
  MimicController& mc = bed.fabric.mc();
  const auto& plan = mc.channel(client->id())->flows[0];
  const topo::LinkId victim = bed.fabric.network().graph().link_between(
      plan.path[plan.path.size() / 2], plan.path[plan.path.size() / 2 + 1]);
  bed.fabric.network().set_link_up(victim, false);
  bed.run();
  ASSERT_EQ(mc.channels_repaired(), 1u);
  ASSERT_EQ(mc.journal().records().back().type, JournalRecordType::kRepair);

  mc.crash();
  ChannelJournal damaged = mc.journal();
  damaged.truncate_tail(1);
  const auto report = mc.recover(damaged);
  bed.run();
  EXPECT_EQ(report.links_resynced, 0u);  // the failure view outlived it
  EXPECT_EQ(report.channels_replanned, 1u);
  EXPECT_EQ(report.channels_lost, 0u);
  EXPECT_TRUE(mc.failed_links().contains(victim));
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  constexpr std::uint64_t kBytes = 64 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);
}

// --- client-side survival ----------------------------------------------------

TEST(ClientSurvival, EstablishmentRetriesAcrossControllerOutage) {
  RecoveryBed bed;
  bed.fabric.mc().crash();

  // Recovery lands 5 ms in; the client's timeout machinery must bridge it.
  bed.fabric.simulator().schedule_in(sim::milliseconds(5), [&bed] {
    bed.fabric.mc().recover(bed.fabric.mc().journal());
  });

  MicChannelOptions o = bed.options();
  o.control_timeout = sim::milliseconds(1);
  o.control_retry_limit = 16;
  auto client = bed.client(0, o);
  bed.run();

  EXPECT_TRUE(client->ready());
  EXPECT_FALSE(client->failed());
  EXPECT_GE(client->controller_silences(), 1u);

  constexpr std::uint64_t kBytes = 64 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run();
  EXPECT_EQ(bed.received, kBytes);
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);
}

TEST(ClientSurvival, SilenceBudgetExhaustionFailsTheChannel) {
  RecoveryBed bed;
  bed.fabric.mc().crash();  // and never recovers

  MicChannelOptions o = bed.options();
  o.control_timeout = sim::milliseconds(1);
  o.control_retry_limit = 3;
  auto client = bed.client(0, o);
  bed.run();

  EXPECT_TRUE(client->failed());
  EXPECT_FALSE(client->ready());
  EXPECT_EQ(client->controller_silences(), 4u);  // limit + the final straw
  EXPECT_NE(client->error().find("unreachable"), std::string::npos);
}

TEST(ClientSurvival, HeartbeatReattachesTheListenerAfterRecovery) {
  // crash() wipes channel listeners; without the heartbeat a kept channel
  // would never hear about later repairs.  The probe re-registers on its
  // next beat, so a post-recovery link cut is announced as kRepaired.
  RecoveryBed bed;
  MicChannelOptions o = bed.options();
  o.heartbeat_interval = sim::milliseconds(1);
  // Generous: the first contact pays the ~4.5 ms DH key exchange before
  // the request even leaves, and that must not read as MC silence.
  o.control_timeout = sim::milliseconds(10);
  auto client = bed.client(0, o);
  bed.run_for(sim::milliseconds(20));
  ASSERT_TRUE(client->ready());

  bed.fabric.mc().crash();
  bed.fabric.mc().recover(bed.fabric.mc().journal());
  ASSERT_EQ(bed.fabric.mc().last_recovery().channels_kept, 1u);
  bed.run_for(sim::milliseconds(5));  // at least one heartbeat round trip

  const auto& plan = bed.fabric.mc().channel(client->id())->flows[0];
  const topo::LinkId victim = bed.fabric.network().graph().link_between(
      plan.path[plan.path.size() / 2], plan.path[plan.path.size() / 2 + 1]);
  bed.fabric.network().set_link_up(victim, false);
  bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(client->repair_count(), 1u);  // the re-registered listener heard

  bed.fabric.network().set_link_up(victim, true);
  bed.run_for(sim::milliseconds(5));
  const audit::RunReport report = audit::run_all(bed.fabric);
  EXPECT_TRUE(report.ok) << report.first_violation();

  // close() stops the heartbeat, so the simulator can actually drain.
  client->close();
  bed.run();
  EXPECT_TRUE(bed.fabric.simulator().idle());
}

TEST(ClientSurvival, ProbeReportsDeadChannelAndClientReestablishes) {
  // The client's channel was in the truncated journal tail: recovery
  // swept its rules, the heartbeat learns the channel is gone, and
  // auto-reestablishment builds a fresh one.
  RecoveryBed bed;
  MicChannelOptions o = bed.options();
  o.heartbeat_interval = sim::milliseconds(1);
  o.control_timeout = sim::milliseconds(10);
  o.auto_reestablish = true;
  auto client = bed.client(0, o);
  bed.run_for(sim::milliseconds(20));
  ASSERT_TRUE(client->ready());

  bed.fabric.mc().crash();
  ChannelJournal damaged = bed.fabric.mc().journal();
  damaged.truncate_tail(damaged.size());  // stable storage lost everything
  const auto report = bed.fabric.mc().recover(damaged);
  EXPECT_EQ(report.channels_recovered, 0u);
  EXPECT_GT(report.orphan_rules_removed, 0u);

  bed.run_for(sim::milliseconds(30));
  EXPECT_TRUE(client->ready());
  EXPECT_FALSE(client->failed());
  EXPECT_GE(client->reestablish_attempts(), 1);

  constexpr std::uint64_t kBytes = 64 * 1024;
  client->send(transport::Chunk::virtual_bytes(kBytes));
  bed.run_for(sim::milliseconds(50));
  EXPECT_EQ(bed.received, kBytes);
  const audit::RunReport audit = audit::run_all(bed.fabric);
  EXPECT_TRUE(audit.ok) << audit.first_violation();

  client->close();
  bed.run();
  EXPECT_TRUE(bed.fabric.simulator().idle());
}

// --- selective L3 reinstall (satellite) --------------------------------------

TEST(SelectiveReroute, OnlySwitchesWithChangedNextHopsReinstall) {
  RecoveryBed bed;
  const ctrl::RerouteStats before = bed.fabric.mc().reroute_stats();

  // Cut one core-aggregation link.  In a k=4 fat-tree most switches keep
  // identical next-hop sets (multipath absorbs the loss), so the reroute
  // must skip them and reinstall only the switches the cut actually moved.
  const auto& graph = bed.fabric.network().graph();
  topo::LinkId victim = topo::kInvalidLink;
  for (const topo::NodeId core : bed.fabric.fattree().core_switches()) {
    for (const auto& adj : graph.neighbors(core)) {
      victim = adj.link;
      break;
    }
    if (victim != topo::kInvalidLink) break;
  }
  ASSERT_NE(victim, topo::kInvalidLink);
  bed.fabric.network().set_link_up(victim, false);
  bed.run();

  const ctrl::RerouteStats after = bed.fabric.mc().reroute_stats();
  EXPECT_GT(after.reroutes, before.reroutes);
  EXPECT_GT(after.switches_scanned, before.switches_scanned);
  EXPECT_GT(after.switches_reinstalled, before.switches_reinstalled);
  EXPECT_GT(after.switches_skipped, before.switches_skipped);
  EXPECT_EQ(after.switches_scanned,
            after.switches_reinstalled + after.switches_skipped);

  bed.fabric.network().set_link_up(victim, true);
  bed.run();
  EXPECT_TRUE(bed.fabric.mc().failed_links().empty());
  EXPECT_TRUE(audit::run_all(bed.fabric).ok);
}

TEST(SelectiveReroute, LeavesTheTablesAFullReinstallWould) {
  // Skipping a switch is only sound if its signature covers everything its
  // rules are derived from: under a core-aggregation cut, every switch's
  // L3 table after the selective reroute must equal what reinstalling the
  // whole fabric for the same failure view gives, and the restore must
  // bring back the healthy tables exactly.
  RecoveryBed bed;
  MimicController& mc = bed.fabric.mc();
  const ctrl::L3Snapshot healthy = ctrl::l3_tables(mc);
  const topo::NodeId core = bed.fabric.fattree().core_switches().front();
  const topo::LinkId victim =
      bed.fabric.network().graph().neighbors(core).front().link;
  bed.fabric.network().set_link_up(victim, false);
  bed.run();
  ASSERT_EQ(mc.failed_links().size(), 1u);

  const ctrl::L3Snapshot selective = ctrl::l3_tables(mc);
  ASSERT_FALSE(ctrl::differing_switches(healthy, selective).empty());
  mc.install_default_routing();
  EXPECT_EQ(ctrl::differing_switches(selective, ctrl::l3_tables(mc)),
            std::vector<topo::NodeId>{});

  bed.fabric.network().set_link_up(victim, true);
  bed.run();
  EXPECT_TRUE(mc.failed_links().empty());
  EXPECT_EQ(ctrl::differing_switches(healthy, ctrl::l3_tables(mc)),
            std::vector<topo::NodeId>{});
}

}  // namespace
}  // namespace mic::core
