// Differential oracle for ChannelJournal::compact().
//
// compact() folds the log in place: it keeps each channel's latest record,
// drops channels whose latest record is a tombstone, and moves the
// surviving states into re-stamped kSnapshot records.  It must produce the
// log that replaying into a JournalImage and writing one snapshot per live
// channel produces, record for record and at the same moments: standby
// shipping and the golden soak hashes depend on it.  The reference below
// is that replay()-based compaction, driving a plain record vector through
// the same fuzzed operations as the real journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/channel_journal.hpp"

namespace mic::core {
namespace {

/// The replay()-based compaction: replay the whole log into an image,
/// then write one snapshot per live channel in id order, stamped with
/// fresh seqs and the journal's epoch.
std::vector<JournalRecord> reference_compaction(
    const std::vector<JournalRecord>& log, std::uint64_t& next_seq,
    std::uint64_t epoch) {
  ChannelJournal replayer;
  for (const JournalRecord& record : log) replayer.adopt_record(record);
  JournalImage image = replayer.replay();
  std::vector<JournalRecord> out;
  for (auto& [id, state] : image.channels) {
    JournalRecord record;
    record.type = JournalRecordType::kSnapshot;
    record.channel = id;
    record.state = std::move(state);
    record.next_channel = image.next_channel;
    record.next_group = image.next_group;
    record.seq = next_seq++;
    record.epoch = epoch;
    out.push_back(std::move(record));
  }
  return out;
}

/// The journal's append / adopt / truncate semantics over a plain vector,
/// compacting with reference_compaction() whenever the log outgrows both
/// the threshold and twice the live set the last compaction kept.
struct ReferenceJournal {
  std::vector<JournalRecord> log;
  std::uint64_t next_seq = 1;
  std::uint64_t epoch = 0;
  std::size_t threshold = 0;
  std::size_t compacted_size = 0;
  std::uint64_t compactions = 0;

  void append(JournalRecord record) {
    record.seq = next_seq++;
    record.epoch = epoch;
    log.push_back(std::move(record));
    maybe_compact();
  }
  void adopt(JournalRecord record) {
    next_seq = std::max(next_seq, record.seq + 1);
    epoch = std::max(epoch, record.epoch);
    log.push_back(std::move(record));
    maybe_compact();
  }
  void truncate_tail(std::size_t n) {
    log.resize(log.size() - std::min(n, log.size()));
  }
  void maybe_compact() {
    if (threshold == 0 ||
        log.size() <= std::max(threshold, 2 * compacted_size)) {
      return;
    }
    log = reference_compaction(log, next_seq, epoch);
    compacted_size = log.size();
    ++compactions;
  }
};

/// A channel state with every field populated.
ChannelState random_state(Rng& rng, ChannelId id) {
  ChannelState state;
  state.id = id;
  state.initiator = static_cast<topo::NodeId>(rng.below(128));
  state.responder = static_cast<topo::NodeId>(rng.below(128));
  state.install_txn = rng.below(8);
  const std::size_t flows = 1 + rng.below(2);
  for (std::size_t f = 0; f < flows; ++f) {
    MFlowPlan plan;
    plan.flow_id = static_cast<FlowId>(1 + rng.below(500));
    plan.path = {state.initiator, static_cast<topo::NodeId>(128 + rng.below(80)),
                 static_cast<topo::NodeId>(128 + rng.below(80)),
                 state.responder};
    plan.mn_positions = {1, 2};
    MTuple hop;
    hop.src = net::Ipv4{static_cast<std::uint32_t>(rng.next())};
    hop.dst = net::Ipv4{static_cast<std::uint32_t>(rng.next())};
    hop.sport = static_cast<net::L4Port>(rng.next());
    hop.mpls = static_cast<net::MplsLabel>(rng.below(1 << 20));
    plan.forward = {hop, hop};
    plan.reverse = {hop};
    plan.decoys.resize(rng.below(2));
    state.touched_switches.push_back(plan.path[1]);
    state.flows.push_back(std::move(plan));
  }
  return state;
}

/// Every field compaction sets.
bool same_record(const JournalRecord& a, const JournalRecord& b) {
  return a.type == b.type && a.seq == b.seq && a.epoch == b.epoch &&
         a.channel == b.channel && a.next_channel == b.next_channel &&
         a.next_group == b.next_group && a.state == b.state;
}

std::string describe(const JournalRecord& r) {
  return "{type " + std::to_string(static_cast<int>(r.type)) + ", seq " +
         std::to_string(r.seq) + ", epoch " + std::to_string(r.epoch) +
         ", channel " + std::to_string(r.channel) + ", marks " +
         std::to_string(r.next_channel) + "/" + std::to_string(r.next_group) +
         ", txn " + std::to_string(r.state.install_txn) + "}";
}

void expect_same_log(const std::vector<JournalRecord>& actual,
                     const std::vector<JournalRecord>& expected,
                     const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (!same_record(actual[i], expected[i])) {
      ADD_FAILURE() << where << ", record " << i << ": got "
                    << describe(actual[i]) << ", reference "
                    << describe(expected[i]);
      return;
    }
  }
}

/// Live channels a program keeps at most: enough for multi-record folds,
/// few enough that the reference's full replay stays cheap.
constexpr std::size_t kMaxLive = 24;

/// Drive the real journal and the reference through one seeded program of
/// establish / repair / teardown / adopt_record / truncate_tail / epoch
/// bumps, comparing the logs after every operation.  Returns the number
/// of auto-compactions the program triggered.
std::uint64_t run_program(std::uint64_t seed, std::size_t threshold,
                          int ops) {
  Rng rng(seed);
  ChannelJournal journal;
  journal.set_compaction_threshold(threshold);
  ReferenceJournal reference;
  reference.threshold = threshold;

  std::vector<ChannelId> live;  // the workload's view, not the journal's
  ChannelId next_id = 1;
  for (int op = 0; op < ops; ++op) {
    const std::string where = "seed " + std::to_string(seed) +
                              ", threshold " + std::to_string(threshold) +
                              ", op " + std::to_string(op);
    // Allocator marks are not monotone here: compaction must take the
    // maximum over every state record, torn-down channels included.
    const ChannelId mark_channel = next_id + rng.below(4);
    const auto mark_group = static_cast<std::uint32_t>(rng.below(1000));
    std::uint64_t roll = rng.below(100);
    if (roll < 35 && live.size() >= kMaxLive) roll = 60;  // tear one down
    if (roll < 35 || live.empty()) {
      const ChannelState state = random_state(rng, next_id++);
      live.push_back(state.id);
      journal.record_establish(state, mark_channel, mark_group);
      JournalRecord record;
      record.type = JournalRecordType::kEstablish;
      record.channel = state.id;
      record.state = state;
      record.next_channel = mark_channel;
      record.next_group = mark_group;
      reference.append(std::move(record));
    } else if (roll < 55) {
      const ChannelId id = live[rng.below(live.size())];
      const ChannelState state = random_state(rng, id);
      journal.record_repair(state, mark_channel, mark_group);
      JournalRecord record;
      record.type = JournalRecordType::kRepair;
      record.channel = id;
      record.state = state;
      record.next_channel = mark_channel;
      record.next_group = mark_group;
      reference.append(std::move(record));
    } else if (roll < 80) {
      // Mostly live channels; sometimes a tombstone for an unknown id.
      ChannelId id = next_id + 100;
      if (rng.chance(0.9)) {
        const std::size_t pick = rng.below(live.size());
        id = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      journal.record_teardown(id);
      JournalRecord record;
      record.type = JournalRecordType::kTeardown;
      record.channel = id;
      reference.append(std::move(record));
    } else if (roll < 90) {
      // A shipped or reloaded record: any type, a seq behind or ahead of
      // the journal's, sometimes a newer epoch.
      JournalRecord record;
      record.type = static_cast<JournalRecordType>(rng.below(4));
      record.channel = rng.chance(0.5) && !live.empty()
                           ? live[rng.below(live.size())]
                           : next_id++;
      if (record.type != JournalRecordType::kTeardown) {
        record.state = random_state(rng, record.channel);
        record.next_channel = mark_channel;
        record.next_group = mark_group;
      }
      record.seq = reference.next_seq + rng.below(5) - 2;
      record.epoch = reference.epoch + (rng.chance(0.2) ? 1 : 0);
      journal.adopt_record(record);
      reference.adopt(std::move(record));
    } else if (roll < 97) {
      const std::size_t n = rng.below(4);
      journal.truncate_tail(n);
      reference.truncate_tail(n);
    } else {
      journal.set_epoch(journal.epoch() + 1);
      reference.epoch += 1;
    }

    expect_same_log(journal.records(), reference.log, where);
    EXPECT_EQ(journal.compactions(), reference.compactions) << where;
    EXPECT_EQ(journal.appends() + 1, reference.next_seq) << where;
    if (::testing::Test::HasFailure()) break;  // one divergence is enough
  }
  return journal.compactions();
}

TEST(ChannelJournalCompaction, FoldEqualsTheReplayReference) {
  // Every threshold runs both kinds of compaction moment.  At 1 and 4 the
  // live set soon outgrows half the floor and doubling sets most of them;
  // at 32 and 64 the floor sets the early ones and doubling takes over
  // once the live set (adopted records included) passes half the floor.
  for (const std::size_t threshold : {1u, 4u, 32u, 64u}) {
    std::uint64_t compactions = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      compactions +=
          run_program(seed * 0x9e3779b9ULL + threshold, threshold, 600);
    }
    // Every threshold must actually exercise the fold, many times over.
    EXPECT_GE(compactions, 12u) << "threshold " << threshold;
  }
}

TEST(ChannelJournalCompaction, SteadyChurnCompactsOncePerLiveSet) {
  // A live set four times the floor, churned one teardown + establish at
  // a time: the log stays within twice the live set, and a compaction
  // runs once per live set's worth of appends, not on every append.
  constexpr std::size_t kFloor = 64;
  constexpr std::size_t kLive = 256;
  constexpr std::size_t kCycles = 2560;
  Rng rng(19);
  ChannelJournal journal;
  journal.set_compaction_threshold(kFloor);
  std::map<ChannelId, ChannelState> live;
  ChannelId next_id = 1;
  const auto establish = [&] {
    const ChannelState state = random_state(rng, next_id++);
    journal.record_establish(state, next_id, 0);
    live.emplace(state.id, state);
  };
  constexpr std::size_t kBound = std::max(kFloor, 2 * kLive) + 1;
  for (std::size_t i = 0; i < kLive; ++i) {
    establish();
    ASSERT_LE(journal.size(), kBound);
  }
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    auto victim = live.begin();
    std::advance(victim, static_cast<std::ptrdiff_t>(rng.below(live.size())));
    journal.record_teardown(victim->first);
    live.erase(victim);
    ASSERT_LE(journal.size(), kBound) << "cycle " << cycle;
    establish();
    ASSERT_LE(journal.size(), kBound) << "cycle " << cycle;
  }

  // appends() also counts the seqs compaction stamps on its snapshots;
  // the cadence is measured against the records the workload wrote.
  const std::size_t written = kLive + 2 * kCycles;
  EXPECT_LE(journal.compactions(), written / kLive + 2);
  const JournalImage image = journal.replay();
  ASSERT_EQ(image.channels.size(), live.size());
  for (const auto& [id, state] : live) {
    ASSERT_TRUE(image.channels.contains(id)) << "channel " << id;
    EXPECT_TRUE(image.channels.at(id) == state) << "channel " << id;
  }
}

TEST(ChannelJournalCompaction, SnapshotsAreIdOrderedLatestStates) {
  // A hand-checked case: out-of-order ids, a repair superseding an
  // establish and a torn-down channel.
  ChannelJournal journal;
  Rng rng(5);
  ChannelState a = random_state(rng, 9);
  ChannelState b = random_state(rng, 3);
  ChannelState c = random_state(rng, 6);
  journal.record_establish(a, 10, 7);
  journal.record_establish(b, 11, 9);
  journal.record_establish(c, 12, 8);
  ChannelState a2 = a;
  a2.install_txn += 1;
  journal.record_repair(a2, 12, 8);
  journal.record_teardown(c.id);
  journal.compact();

  const auto& records = journal.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].channel, 3u);
  EXPECT_EQ(records[1].channel, 9u);
  EXPECT_TRUE(records[1].state == a2);
  for (const JournalRecord& record : records) {
    EXPECT_EQ(record.type, JournalRecordType::kSnapshot);
    // The maxima over every state record, the torn-down channel's included.
    EXPECT_EQ(record.next_channel, 12u);
    EXPECT_EQ(record.next_group, 9u);
  }
  EXPECT_EQ(records[0].seq, 6u);  // five appends, then the snapshots
  EXPECT_EQ(records[1].seq, 7u);
}

}  // namespace
}  // namespace mic::core
