#include "core/journal_store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace mic::core {
namespace {

constexpr std::size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc
/// A single record cannot plausibly exceed this; a bigger length field is
/// corruption, reported as such instead of waiting for more bytes forever.
constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024u * 1024u;
constexpr char kCompactScratch[] = "compact.tmp";

/// Engine-owned segment files are exactly "seg-<digits>".  Anything else
/// in the backend (a stray file, an editor backup) is not ours: adopting
/// it would corrupt segment ordering, and parsing its name as an index
/// would read past short strings.
bool is_segment_name(const std::string& name) {
  if (name.size() <= 4 || name.compare(0, 4, "seg-") != 0) return false;
  for (std::size_t i = 4; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return true;
}

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

// --- bounded little-endian writer/reader ------------------------------------

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    out_.resize(out_.size() + 4);
    store_le32(out_.data() + out_.size() - 4, v);
  }
  void u64(std::uint64_t v) {
    out_.resize(out_.size() + 8);
    store_le64(out_.data() + out_.size() - 8, v);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Every read is bounds-checked: past-the-end sets `failed` and yields
/// zeros, so a forged length or count degrades to a parse error upstream.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    const std::uint32_t v = load_le32(data_ + pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    const std::uint64_t v = load_le64(data_ + pos_);
    pos_ += 8;
    return v;
  }
  /// Element count for a vector whose elements need >= `min_elem` bytes
  /// each; a count the remaining payload cannot possibly hold fails the
  /// parse immediately instead of attempting a huge allocation.
  std::size_t count(std::size_t min_elem) {
    const std::uint32_t n = u32();
    if (failed_ || (min_elem > 0 && n > (size_ - pos_) / min_elem)) {
      failed_ = true;
      return 0;
    }
    return n;
  }

  bool failed() const noexcept { return failed_; }
  bool exhausted() const noexcept { return pos_ == size_; }

 private:
  bool need(std::size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

void encode_hop(Writer& w, const HopAddresses& hop) {
  w.u32(hop.src.value);
  w.u32(hop.dst.value);
  w.u16(hop.sport);
  w.u16(hop.dport);
  w.u32(hop.mpls);
}

HopAddresses decode_hop(Reader& r) {
  HopAddresses hop;
  hop.src.value = r.u32();
  hop.dst.value = r.u32();
  hop.sport = r.u16();
  hop.dport = r.u16();
  hop.mpls = r.u32();
  return hop;
}

void encode_flow(Writer& w, const MFlowPlan& flow) {
  w.u16(flow.flow_id);
  w.u32(static_cast<std::uint32_t>(flow.path.size()));
  for (const topo::NodeId node : flow.path) w.u32(node);
  w.u32(static_cast<std::uint32_t>(flow.mn_positions.size()));
  for (const std::size_t pos : flow.mn_positions) w.u64(pos);
  w.u32(static_cast<std::uint32_t>(flow.forward.size()));
  for (const HopAddresses& hop : flow.forward) encode_hop(w, hop);
  w.u32(static_cast<std::uint32_t>(flow.reverse.size()));
  for (const HopAddresses& hop : flow.reverse) encode_hop(w, hop);
  w.u32(static_cast<std::uint32_t>(flow.decoys.size()));
  for (const DecoyPlan& decoy : flow.decoys) {
    w.u32(decoy.tuple.src.value);
    w.u32(decoy.tuple.dst.value);
    w.u16(decoy.tuple.sport);
    w.u16(decoy.tuple.dport);
    w.u32(decoy.tuple.mpls);
    w.u16(decoy.out_port);
    w.u32(decoy.next_switch);
    w.u16(decoy.next_in_port);
    w.u16(decoy.flow_id);
  }
}

MFlowPlan decode_flow(Reader& r) {
  MFlowPlan flow;
  flow.flow_id = r.u16();
  flow.path.resize(r.count(4));
  for (topo::NodeId& node : flow.path) node = r.u32();
  flow.mn_positions.resize(r.count(8));
  for (std::size_t& pos : flow.mn_positions) {
    pos = static_cast<std::size_t>(r.u64());
  }
  flow.forward.resize(r.count(16));
  for (HopAddresses& hop : flow.forward) hop = decode_hop(r);
  flow.reverse.resize(r.count(16));
  for (HopAddresses& hop : flow.reverse) hop = decode_hop(r);
  flow.decoys.resize(r.count(26));
  for (DecoyPlan& decoy : flow.decoys) {
    decoy.tuple.src.value = r.u32();
    decoy.tuple.dst.value = r.u32();
    decoy.tuple.sport = r.u16();
    decoy.tuple.dport = r.u16();
    decoy.tuple.mpls = r.u32();
    decoy.out_port = r.u16();
    decoy.next_switch = r.u32();
    decoy.next_in_port = r.u16();
    decoy.flow_id = r.u16();
  }
  return flow;
}

}  // namespace

std::uint32_t journal_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kCrc32Table[(crc ^ data[i]) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t> encode_journal_record(const JournalRecord& record) {
  std::vector<std::uint8_t> payload;
  payload.reserve(64);
  Writer w(payload);
  w.u8(static_cast<std::uint8_t>(record.type));
  w.u64(record.seq);
  w.u64(record.epoch);
  w.u64(record.channel);
  w.u64(record.next_channel);
  w.u32(record.next_group);
  if (record.type == JournalRecordType::kTeardown) {
    return payload;  // tombstone: only `channel` is meaningful
  }
  const ChannelState& state = record.state;
  w.u64(state.id);
  w.u32(state.initiator);
  w.u32(state.responder);
  w.u64(state.install_txn);
  w.u32(static_cast<std::uint32_t>(state.touched_switches.size()));
  for (const topo::NodeId sw : state.touched_switches) w.u32(sw);
  w.u32(static_cast<std::uint32_t>(state.flows.size()));
  for (const MFlowPlan& flow : state.flows) encode_flow(w, flow);
  return payload;
}

RecordParse decode_journal_record(const std::uint8_t* log, std::size_t size,
                                  std::size_t offset, JournalRecord* out) {
  RecordParse parse;
  parse.error_offset = offset;
  if (offset == size) {
    parse.status = RecordParse::Status::kEndOfLog;
    return parse;
  }
  MIC_ASSERT(offset < size);
  if (size - offset < kFrameHeaderBytes) {
    parse.status = RecordParse::Status::kTorn;
    parse.error = "torn frame header";
    return parse;
  }
  const std::uint32_t length = load_le32(log + offset);
  const std::uint32_t crc = load_le32(log + offset + 4);
  if (length > kMaxPayloadBytes) {
    parse.status = RecordParse::Status::kBadPayload;
    parse.error = "implausible record length (corrupt header)";
    return parse;
  }
  if (size - offset - kFrameHeaderBytes < length) {
    parse.status = RecordParse::Status::kTorn;
    parse.error = "torn record payload";
    return parse;
  }
  const std::uint8_t* payload = log + offset + kFrameHeaderBytes;
  if (journal_crc32(payload, length) != crc) {
    parse.status = RecordParse::Status::kBadCrc;
    parse.error = "record CRC mismatch";
    return parse;
  }

  Reader r(payload, length);
  JournalRecord record;
  record.type = static_cast<JournalRecordType>(r.u8());
  record.seq = r.u64();
  record.epoch = r.u64();
  record.channel = r.u64();
  record.next_channel = r.u64();
  record.next_group = r.u32();
  if (static_cast<std::uint8_t>(record.type) >
      static_cast<std::uint8_t>(JournalRecordType::kSnapshot)) {
    parse.status = RecordParse::Status::kBadPayload;
    parse.error = "unknown record type";
    return parse;
  }
  if (record.type != JournalRecordType::kTeardown) {
    record.state.id = r.u64();
    record.state.initiator = r.u32();
    record.state.responder = r.u32();
    record.state.install_txn = r.u64();
    record.state.touched_switches.resize(r.count(4));
    for (topo::NodeId& sw : record.state.touched_switches) sw = r.u32();
    record.state.flows.resize(r.count(2));
    for (MFlowPlan& flow : record.state.flows) flow = decode_flow(r);
  }
  if (r.failed() || !r.exhausted()) {
    parse.status = RecordParse::Status::kBadPayload;
    parse.error = r.failed() ? "payload truncated mid-field"
                             : "trailing bytes after payload";
    return parse;
  }
  if (out != nullptr) *out = std::move(record);
  parse.status = RecordParse::Status::kOk;
  parse.next_offset = offset + kFrameHeaderBytes + length;
  return parse;
}

// --- FileBackend ------------------------------------------------------------

FileBackend::FileBackend(std::string dir) : dir_(std::move(dir)) {
  struct stat st{};
  MIC_ASSERT_MSG(::stat(dir_.c_str(), &st) == 0 && S_ISDIR(st.st_mode),
                 "FileBackend directory missing");
}

std::string FileBackend::path_of(const std::string& name) const {
  return dir_ + "/" + name;
}

void FileBackend::sync_dir() const {
  const int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  MIC_ASSERT_MSG(fd >= 0, "journal directory open-for-fsync failed");
  MIC_ASSERT_MSG(::fsync(fd) == 0, "journal directory fsync failed");
  ::close(fd);
}

void FileBackend::create(const std::string& name) {
  const int fd = ::open(path_of(name).c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  MIC_ASSERT_MSG(fd >= 0, "journal segment create failed");
  ::close(fd);
  sync_dir();
}

void FileBackend::append(const std::string& name, const std::uint8_t* data,
                         std::size_t size) {
  const int fd = ::open(path_of(name).c_str(),
                        O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  MIC_ASSERT_MSG(fd >= 0, "journal segment open failed");
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0 && errno == EINTR) continue;
    MIC_ASSERT_MSG(n > 0, "journal segment write failed");
    written += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

void FileBackend::sync(const std::string& name) {
  const int fd = ::open(path_of(name).c_str(), O_RDONLY | O_CLOEXEC);
  MIC_ASSERT_MSG(fd >= 0, "journal segment open-for-fsync failed");
  MIC_ASSERT_MSG(::fsync(fd) == 0, "journal segment fsync failed");
  ::close(fd);
}

void FileBackend::rename(const std::string& from, const std::string& to) {
  MIC_ASSERT_MSG(::rename(path_of(from).c_str(), path_of(to).c_str()) == 0,
                 "journal segment rename failed");
  // File fsync makes the bytes durable; only the directory fsync makes the
  // *name* durable.  Without it the compaction atomic-swap rename (or a
  // just-created segment) can vanish across power loss.
  sync_dir();
}

void FileBackend::remove(const std::string& name) {
  MIC_ASSERT_MSG(::unlink(path_of(name).c_str()) == 0,
                 "journal segment unlink failed");
  sync_dir();
}

std::vector<std::string> FileBackend::list() const {
  std::vector<std::string> names;
  DIR* dir = ::opendir(dir_.c_str());
  MIC_ASSERT_MSG(dir != nullptr, "journal directory opendir failed");
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::uint8_t> FileBackend::read(const std::string& name) const {
  const int fd = ::open(path_of(name).c_str(), O_RDONLY | O_CLOEXEC);
  MIC_ASSERT_MSG(fd >= 0, "journal segment open-for-read failed");
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    MIC_ASSERT_MSG(n >= 0, "journal segment read failed");
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

// --- SimBackend -------------------------------------------------------------

void SimBackend::create(const std::string& name) {
  files_[name] = File{};
}

void SimBackend::append(const std::string& name, const std::uint8_t* data,
                        std::size_t size) {
  auto it = files_.find(name);
  MIC_ASSERT_MSG(it != files_.end(), "append to missing sim file");
  it->second.bytes.insert(it->second.bytes.end(), data, data + size);
  last_appended_ = name;
}

void SimBackend::sync(const std::string& name) {
  auto it = files_.find(name);
  MIC_ASSERT_MSG(it != files_.end(), "sync of missing sim file");
  if (fsync_lapses_ > 0) {
    --fsync_lapses_;
    ++syncs_lapsed_;
    return;  // the lie: caller believes the bytes are durable
  }
  it->second.durable = it->second.bytes.size();
  ++syncs_;
}

void SimBackend::rename(const std::string& from, const std::string& to) {
  auto it = files_.find(from);
  MIC_ASSERT_MSG(it != files_.end(), "rename of missing sim file");
  File file = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(file);
  if (last_appended_ == from) last_appended_ = to;
}

void SimBackend::remove(const std::string& name) {
  files_.erase(name);
  if (last_appended_ == name) last_appended_.clear();
}

std::vector<std::string> SimBackend::list() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, file] : files_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

std::vector<std::uint8_t> SimBackend::read(const std::string& name) const {
  const auto it = files_.find(name);
  MIC_ASSERT_MSG(it != files_.end(), "read of missing sim file");
  return it->second.bytes;
}

void SimBackend::crash() {
  ++crashes_;
  for (auto& [name, file] : files_) {
    std::size_t keep = file.durable;
    if (torn_tail_bytes_ > 0 && name == last_appended_ &&
        file.bytes.size() > file.durable) {
      keep = std::min(file.bytes.size(), file.durable + torn_tail_bytes_);
      ++torn_applied_;
    }
    bytes_dropped_ += file.bytes.size() - keep;
    file.bytes.resize(keep);
    file.durable = keep;
  }
  torn_tail_bytes_ = 0;
  fsync_lapses_ = 0;
}

std::size_t SimBackend::durable_bytes(const std::string& name) const {
  const auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second.durable;
}

// --- JournalStore -----------------------------------------------------------

JournalStore::JournalStore(StorageBackend& backend, JournalStoreOptions options)
    : backend_(backend), options_(options) {
  MIC_ASSERT(options_.fsync_every_n > 0);
  MIC_ASSERT(options_.segment_rotate_bytes > 0);
  // Adopt any segments already present (a restarted engine over the same
  // backend); a leftover compaction scratch file is an aborted compaction
  // and is discarded.  Files that are not "seg-<digits>" are not ours and
  // are left alone -- never parsed as segments.
  for (const std::string& name : backend_.list()) {
    if (name == kCompactScratch) {
      backend_.remove(name);
      continue;
    }
    if (!is_segment_name(name)) continue;
    segments_.push_back(name);
    const std::uint64_t index = std::strtoull(name.c_str() + 4, nullptr, 10);
    next_segment_index_ = std::max(next_segment_index_, index + 1);
  }
  if (segments_.empty()) {
    open_fresh_segment();
  } else {
    active_bytes_ = backend_.read(segments_.back()).size();
  }
}

std::string JournalStore::segment_name(std::uint64_t index) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%010llu",
                static_cast<unsigned long long>(index));
  return buf;
}

void JournalStore::open_fresh_segment() {
  segments_.push_back(segment_name(next_segment_index_++));
  backend_.create(segments_.back());
  active_bytes_ = 0;
}

void JournalStore::sync_active() {
  backend_.sync(segments_.back());
  ++syncs_requested_;
  records_durable_ = records_appended_;
  unsynced_records_ = 0;
}

void JournalStore::rotate_if_needed() {
  if (active_bytes_ < options_.segment_rotate_bytes) return;
  // Seal the outgoing segment: its bytes must be durable before anything
  // lands in the next one, or a crash could lose a middle segment's tail
  // while keeping later records.
  if (unsynced_records_ > 0) sync_active();
  open_fresh_segment();
  ++segments_rotated_;
}

void JournalStore::append(const JournalRecord& record) {
  rotate_if_needed();
  const std::vector<std::uint8_t> payload = encode_journal_record(record);
  std::vector<std::uint8_t> frame(kFrameHeaderBytes + payload.size());
  store_le32(frame.data(), static_cast<std::uint32_t>(payload.size()));
  store_le32(frame.data() + 4,
             journal_crc32(payload.data(), payload.size()));
  std::copy(payload.begin(), payload.end(), frame.begin() + kFrameHeaderBytes);
  backend_.append(segments_.back(), frame.data(), frame.size());
  active_bytes_ += frame.size();
  ++records_appended_;
  ++unsynced_records_;
  switch (options_.fsync_policy) {
    case FsyncPolicy::kEveryRecord:
      sync_active();
      break;
    case FsyncPolicy::kEveryN:
      if (unsynced_records_ >= options_.fsync_every_n) sync_active();
      break;
    case FsyncPolicy::kCommitBoundary:
      break;
  }
}

void JournalStore::commit_boundary() {
  if (unsynced_records_ > 0) sync_active();
}

void JournalStore::compact(const std::vector<JournalRecord>& records) {
  backend_.create(kCompactScratch);
  std::size_t scratch_bytes = 0;
  for (const JournalRecord& record : records) {
    const std::vector<std::uint8_t> payload = encode_journal_record(record);
    std::vector<std::uint8_t> frame(kFrameHeaderBytes + payload.size());
    store_le32(frame.data(), static_cast<std::uint32_t>(payload.size()));
    store_le32(frame.data() + 4,
               journal_crc32(payload.data(), payload.size()));
    std::copy(payload.begin(), payload.end(),
              frame.begin() + kFrameHeaderBytes);
    backend_.append(kCompactScratch, frame.data(), frame.size());
    scratch_bytes += frame.size();
  }
  backend_.sync(kCompactScratch);
  // Crash-safe swap ordering: the synced scratch becomes the fresh
  // highest-index segment *before* the old segments go.  A crash before
  // the rename leaves the old log intact (the leftover scratch is
  // discarded at startup and compaction simply re-runs); a crash after it
  // leaves old history followed by the snapshot segment, which replay()
  // folds to the same image -- snapshot records overwrite by channel id,
  // and a channel torn down in the old history is absent from the
  // snapshot, so nothing resurrects.  At no point is the only copy of the
  // committed log a file the next startup would discard.
  const std::string fresh = segment_name(next_segment_index_++);
  backend_.rename(kCompactScratch, fresh);
  for (const std::string& name : segments_) backend_.remove(name);
  segments_.clear();
  segments_.push_back(fresh);
  active_bytes_ = scratch_bytes;
  unsynced_records_ = 0;
  records_durable_ = records_appended_;
  ++compactions_;
}

JournalLoadResult JournalStore::load() const {
  JournalLoadResult result;
  for (const std::string& name : backend_.list()) {
    // Skip aborted-compaction scratch and any file that is not one of our
    // segments: stray bytes must never be decoded as journal history.
    if (!is_segment_name(name)) continue;
    const std::vector<std::uint8_t> bytes = backend_.read(name);
    ++result.segments_scanned;
    std::size_t offset = 0;
    for (;;) {
      JournalRecord record;
      const RecordParse parse =
          decode_journal_record(bytes.data(), bytes.size(), offset, &record);
      if (parse.status == RecordParse::Status::kOk) {
        result.records.push_back(std::move(record));
        offset = parse.next_offset;
        continue;
      }
      if (parse.status == RecordParse::Status::kEndOfLog) break;
      // Torn / CRC-failed / unparseable record: end-of-log.  The decoded
      // prefix stands; the recovering MC reconciles the rest by audit.
      result.clean = false;
      result.error = parse.error;
      result.error_segment = name;
      result.error_offset = parse.error_offset;
      result.bytes_scanned += offset;
      return result;
    }
    result.bytes_scanned += bytes.size();
  }
  return result;
}

}  // namespace mic::core
