#include "core/channel_journal.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/journal_store.hpp"

namespace mic::core {

bool structurally_equal(const ChannelState& a, const ChannelState& b) {
  return a.id == b.id && a.initiator == b.initiator &&
         a.responder == b.responder && a.flows == b.flows &&
         a.touched_switches == b.touched_switches &&
         a.install_txn == b.install_txn;
}

ChannelJournal::ChannelJournal(const ChannelJournal& other)
    : records_(other.records_),
      next_seq_(other.next_seq_),
      compaction_threshold_(other.compaction_threshold_),
      compactions_(other.compactions_),
      epoch_(other.epoch_) {}

ChannelJournal& ChannelJournal::operator=(const ChannelJournal& other) {
  if (this == &other) return *this;
  records_ = other.records_;
  next_seq_ = other.next_seq_;
  compaction_threshold_ = other.compaction_threshold_;
  compactions_ = other.compactions_;
  epoch_ = other.epoch_;
  // store_/listener_/unshipped_ deliberately untouched: the plumbing stays
  // with whatever this journal was wired to (see header).
  return *this;
}

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
  if (compaction_threshold_ != 0 && records_.size() > compaction_threshold_) {
    compact();
  }
}

JournalImage ChannelJournal::replay() const {
  JournalImage image;
  for (const JournalRecord& record : records_) {
    image.epoch = std::max(image.epoch, record.epoch);
    switch (record.type) {
      case JournalRecordType::kEstablish:
      case JournalRecordType::kRepair:
      case JournalRecordType::kSnapshot: {
        ChannelState state = record.state;
        // Idle bookkeeping is soft state: a recovered channel restarts
        // its idle clock rather than inheriting a stale timestamp.
        state.idle = false;
        state.idle_since = 0;
        image.channels.insert_or_assign(record.channel, std::move(state));
        image.next_channel = std::max(image.next_channel, record.next_channel);
        image.next_group = std::max(image.next_group, record.next_group);
        break;
      }
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
    // Idle bookkeeping is soft state, reset as replay() resets it.
    latest.state.idle = false;
    latest.state.idle_since = 0;
    snapshots.push_back(std::move(latest));
  }
  records_ = std::move(snapshots);
  ++compactions_;
  if (store_ != nullptr) {
    store_->compact(records_);
    // A compaction syncs everything: whatever was pending is durable now.
    maybe_ship();
  }
}

void ChannelJournal::truncate_tail(std::size_t n) {
  records_.resize(records_.size() - std::min(n, records_.size()));
}

void ChannelJournal::clear() {
  records_.clear();
  // Records that never reached the commit frontier die with the crash:
  // they must not ship to a standby after the fact.
  unshipped_.clear();
  if (store_ != nullptr) store_->compact({});
}

void ChannelJournal::attach_store(JournalStore* store) {
  if (store != nullptr) {
    MIC_ASSERT_MSG(records_.empty() && next_seq_ == 1,
                   "attach_store after records were written");
  }
  store_ = store;
}

void ChannelJournal::set_commit_listener(
    std::function<void(const JournalRecord&)> listener) {
  listener_ = std::move(listener);
  if (!listener_) return;
  // Catch-up: everything already committed (= in the log minus the
  // still-unshipped tail) is the follower's starting history.
  MIC_ASSERT(unshipped_.size() <= records_.size());
  const std::size_t committed = records_.size() - unshipped_.size();
  for (std::size_t i = 0; i < committed; ++i) listener_(records_[i]);
}

void ChannelJournal::commit_boundary() {
  if (store_ != nullptr) store_->commit_boundary();
  maybe_ship();
}

std::uint64_t ChannelJournal::durable_frontier() const {
  return store_ != nullptr ? store_->records_durable() : real_appends_;
}

void ChannelJournal::maybe_ship() {
  while (!unshipped_.empty() &&
         real_appends_ - unshipped_.size() < durable_frontier()) {
    JournalRecord record = std::move(unshipped_.front());
    unshipped_.pop_front();
    ++shipped_;
    if (listener_) listener_(record);
  }
}

void ChannelJournal::append(JournalRecord record) {
  record.seq = next_seq_++;
  record.epoch = epoch_;
  ++real_appends_;
  if (store_ != nullptr) {
    store_->append(record);
    unshipped_.push_back(record);
    records_.push_back(std::move(record));
    maybe_ship();
  } else {
    records_.push_back(std::move(record));
    if (listener_) {
      ++shipped_;
      listener_(records_.back());
    }
  }
  if (compaction_threshold_ != 0 && records_.size() > compaction_threshold_) {
    compact();
  }
}

}  // namespace mic::core
