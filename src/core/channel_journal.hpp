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
// The in-memory log can be backed by a JournalStore (journal_store.hpp):
// every append is mirrored into the store's CRC-framed segment log, and the
// store's fsync policy decides when a record becomes *committed* (durable).
// Committed records are what the journal ships to a subscribed follower
// (the warm standby's replica stream): a record lost to a crash before its
// fsync is, by construction, also a record the standby never saw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "core/channel.hpp"

namespace mic::core {

class JournalStore;

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

/// Structural identity of two channel states: everything the data plane
/// and the allocators depend on.  Soft liveness state (`idle`,
/// `idle_since`) is deliberately excluded — it is not journaled and a
/// recovered channel restarts its idle clock.
bool structurally_equal(const ChannelState& a, const ChannelState& b);

class ChannelJournal {
 public:
  ChannelJournal() = default;
  /// Copies carry the log, not the plumbing: an attached store, commit
  /// listener, and unshipped queue stay with the original (the chaos
  /// harness copies journals to model torn tails; a copy must never write
  /// to the primary's disk or ship to its standby).
  ChannelJournal(const ChannelJournal& other);
  ChannelJournal& operator=(const ChannelJournal& other);

  void record_establish(const ChannelState& state, ChannelId next_channel,
                        std::uint32_t next_group);
  void record_repair(const ChannelState& state, ChannelId next_channel,
                     std::uint32_t next_group);
  void record_teardown(ChannelId channel);

  /// Append a record verbatim, preserving its seq/epoch stamps: how a
  /// standby's replica ingests shipped records, and how a log loaded from
  /// a JournalStore is rebuilt.
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

  /// Auto-compact whenever the log exceeds `records` entries (0 = never).
  void set_compaction_threshold(std::size_t records) {
    compaction_threshold_ = records;
  }

  // --- durability + replication plumbing -------------------------------------

  /// Mirror every subsequent append into `store` (nullptr detaches).  Must
  /// be attached before the first record is written: the store is the
  /// journal's stable storage, not a partial backup.
  void attach_store(JournalStore* store);
  JournalStore* store() const noexcept { return store_; }

  /// Subscribe to committed records (the standby's replication stream).
  /// Records already committed are delivered immediately, then every
  /// record as soon as its bytes are durable under the store's fsync
  /// policy (instantly when no store is attached).
  void set_commit_listener(std::function<void(const JournalRecord&)> listener);

  /// Transaction boundary: under FsyncPolicy::kCommitBoundary this is
  /// where the store syncs and pending records become committed/shipped.
  void commit_boundary();

  std::uint64_t epoch() const noexcept { return epoch_; }
  void set_epoch(std::uint64_t epoch) noexcept { epoch_ = epoch; }

  const std::vector<JournalRecord>& records() const noexcept {
    return records_;
  }
  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }
  /// Total records ever appended (monotone; survives compaction).
  std::uint64_t appends() const noexcept { return next_seq_ - 1; }
  std::uint64_t compactions() const noexcept { return compactions_; }
  /// Committed records delivered to the commit listener so far.
  std::uint64_t records_shipped() const noexcept { return shipped_; }

 private:
  void append(JournalRecord record);
  /// Deliver queued records whose bytes the store has made durable.
  void maybe_ship();
  std::uint64_t durable_frontier() const;

  std::vector<JournalRecord> records_;
  std::uint64_t next_seq_ = 1;
  std::size_t compaction_threshold_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t epoch_ = 0;

  JournalStore* store_ = nullptr;
  std::function<void(const JournalRecord&)> listener_;
  /// Appended but not yet known-durable records, pending shipment.
  std::deque<JournalRecord> unshipped_;
  std::uint64_t real_appends_ = 0;  // via append(); excludes snapshots
  std::uint64_t shipped_ = 0;
};

}  // namespace mic::core
