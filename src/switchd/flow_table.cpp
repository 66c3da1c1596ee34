#include "switchd/flow_table.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace mic::switchd {

std::size_t select_bucket(const net::Packet& packet, std::size_t bucket_count,
                          std::uint64_t salt) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ salt;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(packet.src.value);
  mix(packet.dst.value);
  mix(packet.sport);
  mix(packet.dport);
  mix(static_cast<std::uint64_t>(packet.proto));
  // FNV's low bits are weak (linear in the inputs' low bits); finish with
  // a full-avalanche scrambler before reducing.
  std::uint64_t state = h;
  return static_cast<std::size_t>(splitmix64(state) % bucket_count);
}

FlowTable::Shape FlowTable::shape_of(const Match& m) noexcept {
  return static_cast<Shape>((m.in_port ? kPinsInPort : 0) |
                            (m.src ? kPinsSrc : 0) | (m.dst ? kPinsDst : 0) |
                            (m.sport ? kPinsSport : 0) |
                            (m.dport ? kPinsDport : 0) |
                            (m.mpls ? kPinsLabel : 0));
}

FlowTable::Key FlowTable::key_of(const net::Packet& packet,
                                 topo::PortId in_port) noexcept {
  return {(std::uint64_t{packet.src.value} << 32) | packet.dst.value,
          (std::uint64_t{packet.sport} << 48) |
              (std::uint64_t{packet.dport} << 32) | packet.mpls,
          in_port};
}

FlowTable::Key FlowTable::key_of(const Match& m) noexcept {
  return {(std::uint64_t{m.src.value_or(net::Ipv4{}).value} << 32) |
              m.dst.value_or(net::Ipv4{}).value,
          (std::uint64_t{m.sport.value_or(0)} << 48) |
              (std::uint64_t{m.dport.value_or(0)} << 32) |
              m.mpls.value_or(net::kNoMpls),
          m.in_port.value_or(0)};
}

FlowTable::Key FlowTable::mask_of(Shape shape) noexcept {
  constexpr std::uint64_t kHigh = 0xFFFFFFFF00000000ULL;
  constexpr std::uint64_t kLow = 0xFFFFFFFFULL;
  Key mask;
  if (shape & kPinsSrc) mask.addrs |= kHigh;
  if (shape & kPinsDst) mask.addrs |= kLow;
  if (shape & kPinsSport) mask.ports |= 0xFFFFULL << 48;
  if (shape & kPinsDport) mask.ports |= 0xFFFFULL << 32;
  if (shape & kPinsLabel) mask.ports |= kLow;
  if (shape & kPinsInPort) mask.in_port = ~0ULL;
  return mask;
}

std::uint64_t FlowTable::hash_of(const Key& key) noexcept {
  std::uint64_t state = key.addrs ^ (key.ports * 0x9e3779b97f4a7c15ULL) ^
                        (key.in_port * 0xc2b2ae3d27d4eb4fULL);
  return splitmix64(state);
}

std::size_t FlowTable::probe(const Subtable& table,
                             const Key& key) const noexcept {
  const std::size_t mask = table.cells.size() - 1;
  std::size_t cell = hash_of(key) & mask;
  while (table.cells[cell] != kNoSlot &&
         !(key_of(slots_[table.cells[cell]].rule.match) == key)) {
    cell = (cell + 1) & mask;
  }
  return cell;
}

void FlowTable::insert_cell(Subtable& table, std::size_t cell,
                            std::uint32_t slot) {
  if ((table.keys + 1) * 2 > table.cells.size()) {
    std::vector<std::uint32_t> old(
        std::max<std::size_t>(8, 2 * table.cells.size()), kNoSlot);
    old.swap(table.cells);
    for (const std::uint32_t held : old) {
      if (held != kNoSlot) {
        table.cells[probe(table, key_of(slots_[held].rule.match))] = held;
      }
    }
    cell = probe(table, key_of(slots_[slot].rule.match));
  }
  table.cells[cell] = slot;
  ++table.keys;
}

void FlowTable::erase_cell(Subtable& table, std::size_t hole) noexcept {
  const std::size_t mask = table.cells.size() - 1;
  for (std::size_t cell = (hole + 1) & mask; table.cells[cell] != kNoSlot;
       cell = (cell + 1) & mask) {
    const std::size_t home =
        hash_of(key_of(slots_[table.cells[cell]].rule.match)) & mask;
    // The entry may fill the hole only if the hole lies on its probe path,
    // between its home cell and the cell it sits in.
    if (((cell - home) & mask) >= ((cell - hole) & mask)) {
      table.cells[hole] = table.cells[cell];
      hole = cell;
    }
  }
  table.cells[hole] = kNoSlot;
  --table.keys;
}

std::size_t FlowTable::subtable_index(Shape shape) const noexcept {
  std::size_t index = 0;
  while (index < subtables_.size() && subtables_[index].shape != shape) {
    ++index;
  }
  return index;
}

void FlowTable::count_priority(std::size_t index, std::uint16_t priority,
                               int delta) {
  auto& counts = subtables_[index].priorities;
  const auto at = std::ranges::find_if(counts, [priority](const auto& c) {
    return c.priority <= priority;
  });
  const bool present = at != counts.end() && at->priority == priority;
  if (delta > 0) {
    if (present) {
      ++at->rules;
    } else {
      counts.insert(at, {priority, 1});
    }
  } else {
    MIC_ASSERT(present);
    if (--at->rules == 0) counts.erase(at);
  }
  if (counts.empty()) {
    subtables_.erase(subtables_.begin() + static_cast<std::ptrdiff_t>(index));
    return;
  }
  subtables_[index].max_priority = counts.front().priority;
  // Move the subtable to its place in max-priority order: a few swaps of
  // a few subtables at most.
  const auto above = [this](std::size_t i) {
    return subtables_[i].max_priority > subtables_[i - 1].max_priority;
  };
  for (; index > 0 && above(index); --index) {
    std::swap(subtables_[index], subtables_[index - 1]);
  }
  for (; index + 1 < subtables_.size() && above(index + 1); ++index) {
    std::swap(subtables_[index], subtables_[index + 1]);
  }
}

std::size_t FlowTable::indexed_rule_count() const noexcept {
  const std::size_t index = subtable_index(kAllFields);
  return index == subtables_.size() ? 0 : subtables_[index].keys;
}

void FlowTable::clear() {
  slots_.clear();
  free_slots_.clear();
  rule_count_ = 0;
  groups_.clear();
  group_at_.clear();
  subtables_.clear();
  cookie_heads_.clear();
}

std::uint32_t FlowTable::place(FlowRule&& rule) {
  MIC_ASSERT_MSG(next_seq_ != std::numeric_limits<std::uint32_t>::max(),
                 "install sequence exhausted");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    MIC_ASSERT(slot != kNoSlot);
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.seq = next_seq_++;
  const auto [head, first] = cookie_heads_.try_emplace(rule.cookie, slot);
  s.next_in_cookie = first ? kNoSlot : std::exchange(head->second, slot);
  s.rule = std::move(rule);
  ++rule_count_;
  return slot;
}

bool FlowTable::add_rule(FlowRule rule) {
  // One probe finds the rule's shape and key.  A shape and a key spell one
  // match, so an occupied cell holds a rule with this match.
  const Shape shape = shape_of(rule.match);
  const std::size_t index = subtable_index(shape);
  std::size_t cell = 0;
  if (index == subtables_.size()) {
    Subtable& fresh = subtables_.emplace_back();
    fresh.shape = shape;
    fresh.mask = mask_of(shape);
  } else {
    cell = probe(subtables_[index], key_of(rule.match));
    if (subtables_[index].cells[cell] != kNoSlot) return false;
  }
  const std::uint16_t priority = rule.priority;
  insert_cell(subtables_[index], cell, place(std::move(rule)));
  count_priority(index, priority, +1);
  return true;
}

void FlowTable::unlink(std::uint32_t slot) {
  const FlowRule& rule = slots_[slot].rule;
  const std::size_t index = subtable_index(shape_of(rule.match));
  MIC_ASSERT(index != subtables_.size());
  const std::size_t cell = probe(subtables_[index], key_of(rule.match));
  MIC_ASSERT(subtables_[index].cells[cell] == slot);
  erase_cell(subtables_[index], cell);
  count_priority(index, rule.priority, -1);
}

std::size_t FlowTable::remove_by_cookie(std::uint64_t cookie) {
  const auto head = cookie_heads_.find(cookie);
  if (head == cookie_heads_.end()) return 0;
  std::size_t removed = 0;
  for (std::uint32_t slot = head->second; slot != kNoSlot;) {
    unlink(slot);
    Slot& s = slots_[slot];
    const std::uint32_t next = s.next_in_cookie;
    s = Slot{};  // frees the actions and marks the slot free
    free_slots_.push_back(slot);
    ++removed;
    slot = next;
  }
  cookie_heads_.erase(head);
  rule_count_ -= removed;
  return removed;
}

FlowTable::Hit FlowTable::find(const net::Packet& packet,
                               topo::PortId in_port) const noexcept {
  const Key key = key_of(packet, in_port);
  Hit best{kNoSlot, false};
  Rank best_rank = kNoRank;
  int best_priority = -1;
  for (const Subtable& table : subtables_) {
    // Subtables come in max-priority order, so once one cannot reach the
    // best match's priority, no later one can.  An equal maximum can still
    // win on install order.
    if (table.max_priority < best_priority) break;
    const std::uint32_t slot = table.cells[probe(table, key & table.mask)];
    if (slot == kNoSlot) continue;
    const Slot& s = slots_[slot];
    if (rank_of(s) < best_rank) {
      best = {slot, table.shape == kAllFields};
      best_rank = rank_of(s);
      best_priority = s.rule.priority;
    }
  }
  return best;
}

const FlowRule* FlowTable::lookup(const net::Packet& packet,
                                  topo::PortId in_port) {
  ++stats_.lookups;
  const Hit hit = find(packet, in_port);
  if (hit.slot == kNoSlot) {
    ++stats_.misses;
    return nullptr;
  }
  hit.exact ? ++stats_.index_hits : ++stats_.scan_fallbacks;
  const FlowRule& rule = slots_[hit.slot].rule;
  MIC_ASSERT(rule.match.matches(packet, in_port));
  return &rule;
}

const FlowRule* FlowTable::reference_lookup(
    const net::Packet& packet, topo::PortId in_port) const noexcept {
  const FlowRule* best = nullptr;
  Rank best_rank = kNoRank;
  for (const Slot& s : slots_) {
    if (s.seq == 0 || rank_of(s) >= best_rank) continue;
    if (s.rule.match.matches(packet, in_port)) {
      best = &s.rule;
      best_rank = rank_of(s);
    }
  }
  return best;
}

void FlowTable::sort_by_rank(std::vector<std::uint32_t>& slots) const {
  std::ranges::sort(slots, {},
                    [this](std::uint32_t s) { return rank_of(slots_[s]); });
}

std::vector<std::uint32_t> FlowTable::live_slots() const {
  std::vector<std::uint32_t> slots;
  slots.reserve(rule_count_);
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].seq != 0) slots.push_back(slot);
  }
  sort_by_rank(slots);
  return slots;
}

std::vector<std::uint32_t> FlowTable::cookie_slots(std::uint64_t cookie) const {
  std::vector<std::uint32_t> slots;
  const auto head = cookie_heads_.find(cookie);
  if (head == cookie_heads_.end()) return slots;
  for (std::uint32_t slot = head->second; slot != kNoSlot;
       slot = slots_[slot].next_in_cookie) {
    slots.push_back(slot);
  }
  sort_by_rank(slots);
  return slots;
}

std::size_t FlowTable::self_check(std::vector<std::string>& violations) const {
  const auto complain = [&violations](std::uint32_t slot, const char* what) {
    violations.push_back("slot #" + std::to_string(slot) + ": " + what);
  };
  const auto live = [this](std::uint32_t slot) {
    return slot < slots_.size() && slots_[slot].seq != 0;
  };

  // Structural: the subtables' cells name every live rule exactly once,
  // each rule under its own shape, in the cell its own key probes to.
  std::vector<std::uint8_t> named(slots_.size(), 0);
  for (std::size_t i = 0; i < subtables_.size(); ++i) {
    const Subtable& table = subtables_[i];
    const std::string name = "subtable of shape " + std::to_string(table.shape);
    const std::size_t size = table.cells.size();
    if (size < 2 || (size & (size - 1)) != 0 || 2 * table.keys > size) {
      violations.push_back(name + ": array not a power of two at most half "
                                  "full");
      return 0;
    }
    if (subtable_index(table.shape) != i ||
        !(table.mask == mask_of(table.shape))) {
      violations.push_back(name + ": shape repeats or has a stale mask");
    }
    if (i > 0 && table.max_priority > subtables_[i - 1].max_priority) {
      violations.push_back(name + ": out of max-priority order");
    }
    // Probing reads the rule of every cell it passes, so every cell must
    // name a live slot before any probe.
    for (const std::uint32_t slot : table.cells) {
      if (slot != kNoSlot && !live(slot)) {
        complain(slot, "subtable names a free or missing slot");
        return 0;
      }
    }
    std::uint32_t keys = 0;
    std::map<std::uint16_t, std::uint32_t, std::greater<>> counts;
    for (std::size_t cell = 0; cell < size; ++cell) {
      const std::uint32_t slot = table.cells[cell];
      if (slot == kNoSlot) continue;
      ++keys;
      if (named[slot]++ != 0) complain(slot, "rule named by a second cell");
      const FlowRule& rule = slots_[slot].rule;
      ++counts[rule.priority];
      if (shape_of(rule.match) != table.shape) {
        complain(slot, "rule filed under a foreign shape");
      } else if (probe(table, key_of(rule.match)) != cell) {
        complain(slot, "rule unreachable by probing its own key");
      }
    }
    if (keys != table.keys) violations.push_back(name + ": stale key count");
    if (keys == 0) violations.push_back(name + ": empty subtable left behind");
    const bool fresh =
        counts.size() == table.priorities.size() &&
        std::ranges::equal(counts, table.priorities, [](const auto& c,
                                                        const auto& p) {
          return c.first == p.priority && c.second == p.rules;
        });
    if (!fresh || counts.empty() ||
        counts.begin()->first != table.max_priority) {
      violations.push_back(name + ": stale priority counts or maximum");
    }
  }
  std::size_t live_rules = 0;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (!live(slot)) continue;
    ++live_rules;
    if (named[slot] == 0) complain(slot, "rule reachable from no bucket");
  }
  std::size_t listed = 0;
  for (const auto& [cookie, head] : cookie_heads_) {
    for (std::uint32_t slot = head; slot != kNoSlot;
         slot = slots_[slot].next_in_cookie) {
      if (!live(slot) || slots_[slot].rule.cookie != cookie ||
          ++listed > live_rules) {
        complain(slot, "cookie list names a foreign or free slot");
        return 0;
      }
    }
  }
  if (live_rules != rule_count_ || listed != rule_count_) {
    violations.push_back("rule count " + std::to_string(rule_count_) +
                         " disagrees with " + std::to_string(live_rules) +
                         " live slots and " + std::to_string(listed) +
                         " cookie-listed rules");
  }

  // Behavioural: for a probe synthesized from each rule, the tuple-space
  // winner must be the reference scan's winner.  Wildcard fields take
  // fixed off-path values so the probe exercises this rule's shape rather
  // than colliding with a random exact rule.
  std::size_t probes = 0;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (!live(slot)) continue;
    const Match& m = slots_[slot].rule.match;
    net::Packet probe;
    probe.src = m.src.value_or(net::Ipv4(203, 0, 113, 1));
    probe.dst = m.dst.value_or(net::Ipv4(203, 0, 113, 2));
    probe.sport = m.sport.value_or(64999);
    probe.dport = m.dport.value_or(64998);
    probe.mpls = m.mpls.value_or(net::kNoMpls);
    const topo::PortId in_port = m.in_port.value_or(0);
    const FlowRule* expected = reference_lookup(probe, in_port);
    const Hit hit = find(probe, in_port);
    const FlowRule* actual =
        hit.slot == kNoSlot ? nullptr : &slots_[hit.slot].rule;
    ++probes;
    if (expected != actual) {
      complain(slot, "tuple-space winner differs from the reference scan");
    }
  }
  return probes;
}

bool FlowTable::add_group(GroupEntry group) {
  const auto [at, fresh] = group_at_.try_emplace(
      group.group_id, static_cast<std::uint32_t>(groups_.size()));
  if (!fresh) return false;
  groups_.push_back(std::move(group));
  return true;
}

bool FlowTable::add(TableEntry&& entry) {
  if (auto* rule = std::get_if<FlowRule>(&entry)) {
    return add_rule(std::move(*rule));
  }
  return add_group(std::move(std::get<GroupEntry>(entry)));
}

std::size_t FlowTable::remove_groups_by_cookie(std::uint64_t cookie) {
  // Compact in place, keeping install order; only the groups that move
  // get their map entry rewritten.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].cookie == cookie) {
      group_at_.erase(groups_[i].group_id);
      continue;
    }
    if (kept != i) {
      groups_[kept] = std::move(groups_[i]);
      group_at_.find(groups_[kept].group_id)->second =
          static_cast<std::uint32_t>(kept);
    }
    ++kept;
  }
  const std::size_t removed = groups_.size() - kept;
  groups_.resize(kept);
  return removed;
}

}  // namespace mic::switchd
