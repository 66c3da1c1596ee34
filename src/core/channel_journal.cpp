#include "core/channel_journal.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace mic::core {

ChannelJournal::ChannelJournal(const ChannelJournal& other)
    : records_(other.records_),
      next_seq_(other.next_seq_),
      compaction_threshold_(other.compaction_threshold_),
      compacted_size_(other.compacted_size_),
      compactions_(other.compactions_),
      epoch_(other.epoch_) {}

void ChannelJournal::record_establish(const ChannelState& state,
                                      ChannelId next_channel,
                                      std::uint32_t next_group) {
  JournalRecord record;
  record.type = JournalRecordType::kEstablish;
  record.channel = state.id;
  record.state = state;
  record.next_channel = next_channel;
  record.next_group = next_group;
  append(std::move(record));
}

void ChannelJournal::record_repair(const ChannelState& state,
                                   ChannelId next_channel,
                                   std::uint32_t next_group) {
  JournalRecord record;
  record.type = JournalRecordType::kRepair;
  record.channel = state.id;
  record.state = state;
  record.next_channel = next_channel;
  record.next_group = next_group;
  append(std::move(record));
}

void ChannelJournal::record_teardown(ChannelId channel) {
  JournalRecord record;
  record.type = JournalRecordType::kTeardown;
  record.channel = channel;
  append(std::move(record));
}

void ChannelJournal::adopt_record(JournalRecord record) {
  next_seq_ = std::max(next_seq_, record.seq + 1);
  epoch_ = std::max(epoch_, record.epoch);
  records_.push_back(std::move(record));
  maybe_compact();
}

JournalImage ChannelJournal::replay() const {
  JournalImage image;
  for (const JournalRecord& record : records_) {
    image.epoch = std::max(image.epoch, record.epoch);
    switch (record.type) {
      case JournalRecordType::kEstablish:
      case JournalRecordType::kRepair:
      case JournalRecordType::kSnapshot:
        image.channels.insert_or_assign(record.channel, record.state);
        image.next_channel = std::max(image.next_channel, record.next_channel);
        image.next_group = std::max(image.next_group, record.next_group);
        break;
      case JournalRecordType::kTeardown:
        image.channels.erase(record.channel);
        break;
    }
  }
  return image;
}

void ChannelJournal::compact() {
  // The same fold replay() performs, done on the log itself: each
  // channel's latest record survives unless it is a tombstone, and its
  // state moves into the snapshot instead of being copied.  The allocator
  // marks are the maxima over every state record, torn-down channels
  // included, exactly as in replay().
  ChannelId next_channel = 0;
  std::uint32_t next_group = 0;
  // (channel, position) of every record; sorted, each channel's run ends
  // at its latest record.
  std::vector<std::pair<ChannelId, std::size_t>> order;
  order.reserve(records_.size());
  for (std::size_t pos = 0; pos < records_.size(); ++pos) {
    const JournalRecord& record = records_[pos];
    order.emplace_back(record.channel, pos);
    if (record.type != JournalRecordType::kTeardown) {
      next_channel = std::max(next_channel, record.next_channel);
      next_group = std::max(next_group, record.next_group);
    }
  }
  // A log that was compacted before is the previous snapshots, already in
  // id order, plus the few records appended since: sort only that tail and
  // merge it in.
  const auto tail = std::ranges::is_sorted_until(order);
  std::ranges::sort(tail, order.end());
  std::ranges::inplace_merge(order, tail);

  std::vector<JournalRecord> snapshots;
  snapshots.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i + 1 < order.size() && order[i + 1].first == order[i].first) {
      continue;  // superseded by a later record of the same channel
    }
    JournalRecord& latest = records_[order[i].second];
    if (latest.type == JournalRecordType::kTeardown) continue;
    latest.type = JournalRecordType::kSnapshot;
    latest.seq = next_seq_++;
    latest.epoch = epoch_;
    latest.next_channel = next_channel;
    latest.next_group = next_group;
    snapshots.push_back(std::move(latest));
  }
  records_ = std::move(snapshots);
  compacted_size_ = records_.size();
  ++compactions_;
}

void ChannelJournal::truncate_tail(std::size_t n) {
  records_.resize(records_.size() - std::min(n, records_.size()));
}

void ChannelJournal::clear() {
  records_.clear();
  compacted_size_ = 0;
}

void ChannelJournal::set_commit_listener(
    std::function<void(const JournalRecord&)> listener) {
  listener_ = std::move(listener);
  if (!listener_) return;
  // Catch-up: the whole log is the follower's starting history.
  for (const JournalRecord& record : records_) listener_(record);
}

void ChannelJournal::append(JournalRecord record) {
  record.seq = next_seq_++;
  record.epoch = epoch_;
  records_.push_back(std::move(record));
  ++shipped_;
  if (listener_) listener_(records_.back());
  maybe_compact();
}

void ChannelJournal::maybe_compact() {
  if (compaction_threshold_ != 0 &&
      records_.size() > std::max(compaction_threshold_, 2 * compacted_size_)) {
    compact();
  }
}

}  // namespace mic::core
