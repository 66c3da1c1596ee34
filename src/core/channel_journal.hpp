// Write-ahead channel journal: the Mimic Controller's durable record of
// every channel it has planned.  Each establish/repair commits a compact
// record (channel id, flow ids, MN list, m-address tuples, MPLS labels,
// install-txn generation — i.e. the full ChannelState) together with the
// allocator high-water marks needed to restart id allocation; teardowns
// append a tombstone.  `replay()` folds the log into the image a restarted
// MC adopts, `compact()` rewrites the log as one snapshot record per live
// channel, and `truncate_tail()` models a crash mid-commit (the tail
// record never made it to stable storage).
//
// The journal is the model's stable storage: it survives
// MimicController::crash() by definition.  Every record ships to a
// subscribed follower (the warm standby's replica stream) as it is
// appended.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/channel.hpp"

namespace mic::core {

enum class JournalRecordType : std::uint8_t {
  kEstablish,  // full ChannelState at plan time
  kRepair,     // full ChannelState after a replan (install_txn bumped)
  kTeardown,   // tombstone: only `channel` is meaningful
  kSnapshot,   // one live channel, produced by compact()
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kEstablish;
  std::uint64_t seq = 0;  // monotone across compactions
  /// Journal epoch (controller generation) at commit time: bumped on every
  /// recovery/takeover, stamped into this record and fenced at the
  /// switches so a deposed ex-primary's ops are refused.
  std::uint64_t epoch = 0;
  ChannelId channel = 0;
  /// Valid for kEstablish/kRepair/kSnapshot.
  ChannelState state;
  /// Allocator high-water marks at commit time (kEstablish/kRepair/
  /// kSnapshot): the next channel id and the next SELECT-group id the MC
  /// would hand out.  Replay takes the max so a recovered MC never reuses
  /// an id that may still be wired into a switch.
  ChannelId next_channel = 0;
  std::uint32_t next_group = 0;
};

/// The folded view of the log: what a restarted MC believes exists.
struct JournalImage {
  std::map<ChannelId, ChannelState> channels;  // ordered => deterministic
  ChannelId next_channel = 0;
  std::uint32_t next_group = 0;
  /// Highest epoch seen in the log; a recovering controller resumes at
  /// epoch + 1.
  std::uint64_t epoch = 0;
};

class ChannelJournal {
 public:
  ChannelJournal() = default;
  /// Copies carry the log, not the commit listener: it stays with the
  /// original (the chaos harness copies journals to model torn tails; a
  /// copy must never ship to the primary's standby).
  ChannelJournal(const ChannelJournal& other);
  ChannelJournal& operator=(const ChannelJournal&) = delete;

  void record_establish(const ChannelState& state, ChannelId next_channel,
                        std::uint32_t next_group);
  void record_repair(const ChannelState& state, ChannelId next_channel,
                     std::uint32_t next_group);
  void record_teardown(ChannelId channel);

  /// Append a record verbatim, preserving its seq/epoch stamps: how a
  /// standby's replica ingests shipped records.
  void adopt_record(JournalRecord record);

  /// Fold the log into the image a recovering MC adopts.
  JournalImage replay() const;

  /// Rewrite the log as one kSnapshot record per live channel (id order),
  /// carrying the state replay() would give it.  The log is folded in
  /// place: each channel's latest record is re-stamped and moved, so the
  /// cost is a sort of the log plus a move per live channel, with no
  /// per-channel copies.  Sequence numbers keep increasing: a snapshot is
  /// an append that obsoletes the prefix, not a history rewrite.
  void compact();

  /// Drop the last `n` records, as if the process died before they hit
  /// stable storage.  Clamped to the log length.
  void truncate_tail(std::size_t n);

  void clear();

  /// Auto-compact once the log exceeds both `records` entries and twice the
  /// live set the last compaction kept (0 = never).  The threshold is a
  /// floor, not a cap: a compaction's O(live) fold runs only after at
  /// least as many appends as it keeps, so an append costs O(1) amortized,
  /// and an append returns with at most max(records, 2 x that live set)
  /// records in the log.
  void set_compaction_threshold(std::size_t records) {
    compaction_threshold_ = records;
  }

  // --- replication -----------------------------------------------------------

  /// Subscribe a follower (the warm standby's replication stream): the
  /// whole log is delivered immediately, then every record as it is
  /// appended.
  void set_commit_listener(std::function<void(const JournalRecord&)> listener);

  std::uint64_t epoch() const noexcept { return epoch_; }
  void set_epoch(std::uint64_t epoch) noexcept { epoch_ = epoch; }

  const std::vector<JournalRecord>& records() const noexcept {
    return records_;
  }
  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }
  /// Sequence numbers stamped so far: every append, plus every snapshot a
  /// compaction re-stamped (monotone; survives compaction).
  std::uint64_t appends() const noexcept { return next_seq_ - 1; }
  std::uint64_t compactions() const noexcept { return compactions_; }
  /// Records appended through record_*() so far, counted whether or not
  /// a commit listener was subscribed to receive them.
  std::uint64_t records_shipped() const noexcept { return shipped_; }

 private:
  void append(JournalRecord record);
  /// Compact if the log has outgrown the floor and twice compacted_size_.
  void maybe_compact();

  std::vector<JournalRecord> records_;
  std::uint64_t next_seq_ = 1;
  std::size_t compaction_threshold_ = 0;
  /// Log length the last compaction left (its live snapshot count); 0
  /// after construction and clear().
  std::size_t compacted_size_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t epoch_ = 0;

  std::function<void(const JournalRecord&)> listener_;
  std::uint64_t shipped_ = 0;
};

}  // namespace mic::core
