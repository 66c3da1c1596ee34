// Durable storage engine under the write-ahead ChannelJournal.
//
// The journal's records are serialized into an append-only segment log:
// every record is framed as [u32 payload length][u32 CRC32][payload], the
// active segment rotates once it exceeds a size threshold, and compaction
// rewrites the live records into a fresh segment and atomically swaps it
// for the old ones.  The byte-level storage sits behind StorageBackend so
// the same engine runs against two worlds:
//
//   FileBackend  - real POSIX files (open/write/fsync/rename) with a
//                  configurable fsync policy: every record, every N
//                  records, or on explicit commit boundaries.
//   SimBackend   - a deterministic in-memory model whose simulated
//                  volatile page cache makes the fsync policy observable:
//                  appended bytes sit in the cache until sync(), and
//                  crash() drops everything unsynced.  Seeded fault hooks
//                  (torn tail, bit flip, fsync lapse) let the chaos
//                  harness corrupt stable storage deterministically.
//
// Recovery (load()) treats a CRC-failed or torn record as end-of-log: the
// scan stops cleanly with the offending offset, and the records decoded so
// far form the recovered prefix.  A reader never trusts a length field
// beyond the bytes actually present, so corrupt input degrades to a parse
// error -- never UB (proven by the journal-bytes fuzzer in
// tests/test_journal_store.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/channel_journal.hpp"

namespace mic::core {

/// CRC32 (IEEE 802.3 polynomial, reflected) over a byte range.
std::uint32_t journal_crc32(const std::uint8_t* data, std::size_t size);

// --- record codec -----------------------------------------------------------

/// Serialize one journal record (including the full ChannelState) into the
/// frame payload.  Soft liveness state (idle, idle_since) is deliberately
/// not encoded -- replay resets it anyway.
std::vector<std::uint8_t> encode_journal_record(const JournalRecord& record);

struct RecordParse {
  enum class Status : std::uint8_t {
    kOk,          // record decoded; next_offset points past its frame
    kEndOfLog,    // offset == log size: clean end
    kTorn,        // frame or payload extends past the bytes present
    kBadCrc,      // payload present but its CRC32 does not match
    kBadPayload,  // CRC ok but the payload does not parse (impossible for
                  // bytes we wrote; reachable for spliced/forged input)
  };
  Status status = Status::kOk;
  /// Offset of the first byte after the decoded frame (kOk only).
  std::size_t next_offset = 0;
  /// Where the scan stopped (the start of the offending frame).
  std::size_t error_offset = 0;
  std::string error;  // human-readable parse error (non-kOk)
};

/// Decode the record framed at `offset`.  Never reads past `size`; a
/// malformed frame yields a status + offset instead of a crash.
RecordParse decode_journal_record(const std::uint8_t* log, std::size_t size,
                                  std::size_t offset, JournalRecord* out);

// --- storage backend --------------------------------------------------------

/// The slice of POSIX the segment engine needs: a flat directory of
/// append-only files with atomic rename.  Names are engine-chosen;
/// list() returns them sorted so segment order is their creation order.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Create (or truncate) a file.
  virtual void create(const std::string& name) = 0;
  virtual void append(const std::string& name, const std::uint8_t* data,
                      std::size_t size) = 0;
  /// Make every byte appended so far durable (fsync).
  virtual void sync(const std::string& name) = 0;
  /// Atomic replace: `to` is created or replaced in one step.
  virtual void rename(const std::string& from, const std::string& to) = 0;
  virtual void remove(const std::string& name) = 0;
  /// All file names, lexicographically sorted.
  virtual std::vector<std::string> list() const = 0;
  /// Current contents (durable + still-volatile bytes).
  virtual std::vector<std::uint8_t> read(const std::string& name) const = 0;
};

/// Real files under a directory.  Failures of the underlying syscalls are
/// programming/environment errors for this simulation and assert.
/// Namespace mutations (create/rename/remove) fsync the directory too:
/// a new or renamed name is not durable until its directory entry is.
class FileBackend final : public StorageBackend {
 public:
  /// `dir` must exist and be writable.
  explicit FileBackend(std::string dir);

  void create(const std::string& name) override;
  void append(const std::string& name, const std::uint8_t* data,
              std::size_t size) override;
  void sync(const std::string& name) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& name) override;
  std::vector<std::string> list() const override;
  std::vector<std::uint8_t> read(const std::string& name) const override;

  const std::string& dir() const noexcept { return dir_; }

 private:
  std::string path_of(const std::string& name) const;
  /// fsync the backing directory, making create/rename/remove durable.
  void sync_dir() const;

  std::string dir_;
};

/// Deterministic in-memory storage with a simulated volatile page cache:
/// append() lands in the cache, sync() moves the file's bytes to the
/// durable prefix, crash() drops everything above it.  The fault hooks
/// model the three classic stable-storage betrayals; all of them are
/// armed with values the FaultInjector draws at arm() time, so a seeded
/// schedule replays bit-identically.
class SimBackend final : public StorageBackend {
 public:
  void create(const std::string& name) override;
  void append(const std::string& name, const std::uint8_t* data,
              std::size_t size) override;
  void sync(const std::string& name) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& name) override;
  std::vector<std::string> list() const override;
  std::vector<std::uint8_t> read(const std::string& name) const override;

  /// Power loss: every file keeps only its durable prefix -- except that a
  /// pending torn-tail arms `arm_torn_tail(k)` lets k unsynced bytes of
  /// the *last-appended* file survive, modelling a partial sector write
  /// that splits the final record (the CRC scan stops there).
  void crash();

  /// The next crash() keeps up to `keep_bytes` of the unsynced tail.
  void arm_torn_tail(std::size_t keep_bytes) { torn_tail_bytes_ = keep_bytes; }
  /// Flip one bit of the last-appended file's durable bytes; `which` is
  /// reduced modulo the durable size (no-op while nothing is durable).
  void flip_bit(std::uint64_t which);
  /// The next `count` sync() calls silently do nothing (firmware lies /
  /// write-cache lapse): the caller believes the bytes are durable.
  void lapse_fsyncs(int count) { fsync_lapses_ += count; }

  std::uint64_t crashes() const noexcept { return crashes_; }
  std::uint64_t syncs() const noexcept { return syncs_; }
  std::uint64_t syncs_lapsed() const noexcept { return syncs_lapsed_; }
  std::uint64_t torn_tails_applied() const noexcept { return torn_applied_; }
  std::uint64_t bits_flipped() const noexcept { return bits_flipped_; }
  std::uint64_t bytes_dropped() const noexcept { return bytes_dropped_; }

  /// Durable prefix length of one file (tests).
  std::size_t durable_bytes(const std::string& name) const;

 private:
  struct File {
    std::vector<std::uint8_t> bytes;
    std::size_t durable = 0;
  };

  std::map<std::string, File> files_;  // ordered => deterministic list()
  std::string last_appended_;
  std::size_t torn_tail_bytes_ = 0;
  int fsync_lapses_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t syncs_lapsed_ = 0;
  std::uint64_t torn_applied_ = 0;
  std::uint64_t bits_flipped_ = 0;
  std::uint64_t bytes_dropped_ = 0;
};

// --- segment engine ---------------------------------------------------------

enum class FsyncPolicy : std::uint8_t {
  kEveryRecord,     // sync after every append (safest, slowest)
  kEveryN,          // sync once per fsync_every_n appends
  kCommitBoundary,  // sync only at explicit commit_boundary() calls
};

struct JournalStoreOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryRecord;
  std::size_t fsync_every_n = 8;
  /// Rotate the active segment once it holds at least this many bytes.
  std::size_t segment_rotate_bytes = 256 * 1024;
};

struct JournalLoadResult {
  std::vector<JournalRecord> records;
  std::size_t segments_scanned = 0;
  std::size_t bytes_scanned = 0;
  /// False when the scan stopped early (torn tail / CRC failure).  The
  /// decoded records are still the valid prefix: recovery proceeds with
  /// them and the switch resync sweeps whatever the lost tail explained.
  bool clean = true;
  std::string error;          // why the scan stopped (clean == false)
  std::string error_segment;  // which segment
  std::size_t error_offset = 0;  // byte offset inside that segment
};

/// The append-only segment engine.  One instance owns the backend's
/// namespace: segment files are "seg-<index>", plus a "compact.tmp"
/// scratch file during compaction.
class JournalStore {
 public:
  explicit JournalStore(StorageBackend& backend,
                        JournalStoreOptions options = {});

  /// Frame + append one record to the active segment, then sync per
  /// policy.  Rotates first when the active segment is over the limit.
  void append(const JournalRecord& record);

  /// Sync point for FsyncPolicy::kCommitBoundary (no-op otherwise unless
  /// appends are pending under kEveryN, which it also flushes).
  void commit_boundary();

  /// Rewrite the log as exactly `records` (the journal's post-compaction
  /// contents): they are written to a scratch file, synced, atomically
  /// renamed to a fresh segment, and the old segments removed.
  void compact(const std::vector<JournalRecord>& records);

  /// Decode every segment in order.  Stops cleanly at the first torn or
  /// CRC-failed record (end-of-log semantics).
  JournalLoadResult load() const;

  /// Records whose bytes have been handed to sync() -- the durability
  /// frontier the journal uses to ship only committed records.
  std::uint64_t records_durable() const noexcept { return records_durable_; }

  std::uint64_t syncs_requested() const noexcept { return syncs_requested_; }
  std::uint64_t segments_rotated() const noexcept { return segments_rotated_; }
  std::uint64_t compactions() const noexcept { return compactions_; }
  std::size_t segment_count() const noexcept { return segments_.size(); }

  const JournalStoreOptions& options() const noexcept { return options_; }

 private:
  std::string segment_name(std::uint64_t index) const;
  void open_fresh_segment();
  void sync_active();
  void rotate_if_needed();

  StorageBackend& backend_;
  JournalStoreOptions options_;
  std::vector<std::string> segments_;  // oldest first; back() is active
  std::uint64_t next_segment_index_ = 0;
  std::size_t active_bytes_ = 0;
  std::size_t unsynced_records_ = 0;
  std::uint64_t records_durable_ = 0;
  std::uint64_t records_appended_ = 0;
  std::uint64_t syncs_requested_ = 0;
  std::uint64_t segments_rotated_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace mic::core
