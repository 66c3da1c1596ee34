#include "switchd/flow_table.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace mic::switchd {

std::size_t count_set_fields(const std::vector<Action>& actions) noexcept {
  std::size_t n = 0;
  for (const auto& action : actions) {
    if (std::holds_alternative<SetSrc>(action) ||
        std::holds_alternative<SetDst>(action) ||
        std::holds_alternative<SetSport>(action) ||
        std::holds_alternative<SetDport>(action) ||
        std::holds_alternative<SetMpls>(action) ||
        std::holds_alternative<PopMpls>(action)) {
      ++n;
    }
  }
  return n;
}

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

std::size_t FlowTable::ExactKeyHash::operator()(
    const ExactKey& k) const noexcept {
  std::uint64_t state = (static_cast<std::uint64_t>(k.src.value) << 32) |
                        k.dst.value;
  state ^= (static_cast<std::uint64_t>(k.sport) << 48) |
           (static_cast<std::uint64_t>(k.dport) << 32) | k.mpls;
  state ^= static_cast<std::uint64_t>(k.in_port) << 16;
  return static_cast<std::size_t>(splitmix64(state));
}

FlowTable::ExactKey FlowTable::key_of(const net::Packet& packet,
                                      topo::PortId in_port) noexcept {
  return ExactKey{in_port, packet.src,  packet.dst,
                  packet.sport, packet.dport, packet.mpls};
}

FlowTable::ExactKey FlowTable::key_of(const Match& m) noexcept {
  return ExactKey{*m.in_port, *m.src,  *m.dst,
                  *m.sport,   *m.dport, m.mpls.value_or(net::kNoMpls)};
}

void FlowTable::clear() {
  slots_.clear();
  free_slots_.clear();
  rule_count_ = 0;
  groups_.clear();
  index_.clear();
  shadowed_.clear();
  scan_rules_.clear();
  scan_front_rank_ = kNoRank;
  cookie_heads_.clear();
}

std::uint32_t FlowTable::place(FlowRule rule) {
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
  if (capacity_ != 0 && rule_count_ >= capacity_) return false;

  if (rule.match.is_exact()) {
    // A duplicate (priority, match) shares the key, so only the key's own
    // rules need checking.
    const ExactKey key = key_of(rule.match);
    const auto [winner, fresh] = index_.try_emplace(key);
    if (fresh) {
      winner->second = winner_at(place(std::move(rule)));
      return true;
    }
    const auto same = [this, &rule](std::uint32_t slot) {
      const FlowRule& r = slots_[slot].rule;
      return r.priority == rule.priority && r.match == rule.match;
    };
    const auto shadows = shadowed_.find(key);
    if (same(winner->second.slot) ||
        (shadows != shadowed_.end() &&
         std::ranges::any_of(shadows->second, same))) {
      return false;
    }
    // The newcomer is the latest install, so it takes the key only with a
    // strictly higher priority; the loser waits in the shadow list.
    const bool wins = rule.priority > winner->second.priority;
    const std::uint32_t slot = place(std::move(rule));
    shadowed_[key].push_back(
        wins ? std::exchange(winner->second, winner_at(slot)).slot : slot);
    return true;
  }

  // Wildcard tier: the newcomer goes behind every rule of equal or higher
  // priority, and a duplicate can only sit among the equal-priority ones.
  const std::uint16_t priority = rule.priority;
  const auto priority_above = [this, priority](std::uint32_t slot) {
    return slots_[slot].rule.priority > priority;
  };
  const auto band = std::ranges::partition_point(scan_rules_, priority_above);
  auto behind = band;
  for (; behind != scan_rules_.end() &&
         slots_[*behind].rule.priority == priority;
       ++behind) {
    if (slots_[*behind].rule.match == rule.match) return false;
  }
  scan_rules_.insert(behind, place(std::move(rule)));
  refresh_scan_front();
  return true;
}

void FlowTable::refresh_scan_front() noexcept {
  scan_front_rank_ =
      scan_rules_.empty() ? kNoRank : rank_of(slots_[scan_rules_.front()]);
}

void FlowTable::unlink_exact(std::uint32_t slot) {
  // index_.find() is left to the lookup path alone, which keeps it inlined
  // there; erase(key) and at() reach the entry without it.
  const ExactKey key = key_of(slots_[slot].rule.match);
  const auto shadows =
      shadowed_.empty() ? shadowed_.end() : shadowed_.find(key);
  if (shadows == shadowed_.end()) {
    // Alone on its key, so the rule is the index entry.
    const std::size_t erased = index_.erase(key);
    MIC_ASSERT(erased == 1);
    return;
  }
  Winner& winner = index_.at(key);
  std::vector<std::uint32_t>& losers = shadows->second;
  if (winner.slot == slot) {
    const auto best = std::ranges::min_element(
        losers, {}, [this](std::uint32_t s) { return rank_of(slots_[s]); });
    winner = winner_at(*best);
    losers.erase(best);
  } else {
    const auto it = std::ranges::find(losers, slot);
    MIC_ASSERT(it != losers.end());
    losers.erase(it);
  }
  if (losers.empty()) shadowed_.erase(shadows);
}

std::size_t FlowTable::remove_by_cookie(std::uint64_t cookie) {
  const auto head = cookie_heads_.find(cookie);
  if (head == cookie_heads_.end()) return 0;
  std::size_t removed = 0;
  bool wildcard_removed = false;
  for (std::uint32_t slot = head->second; slot != kNoSlot;) {
    Slot& s = slots_[slot];
    if (s.rule.match.is_exact()) {
      unlink_exact(slot);
    } else {
      wildcard_removed = true;
    }
    const std::uint32_t next = s.next_in_cookie;
    s = Slot{};  // frees the actions and marks the slot free
    free_slots_.push_back(slot);
    ++removed;
    slot = next;
  }
  cookie_heads_.erase(head);
  rule_count_ -= removed;
  // One pass drops every freed wildcard slot; the survivors keep their
  // rank order.
  if (wildcard_removed) {
    std::erase_if(scan_rules_,
                  [this](std::uint32_t slot) { return slots_[slot].seq == 0; });
    refresh_scan_front();
  }
  return removed;
}

FlowTable::TierHit FlowTable::two_tier_find(
    const net::Packet& packet, topo::PortId in_port) const noexcept {
  // Tier 1: the exact-match index.  A hit pins the best fully-specified
  // candidate; key equality guarantees the rule matches the packet.
  if (!index_.empty()) {
    const auto it = index_.find(key_of(packet, in_port));
    if (it != index_.end()) {
      // Only a wildcard rule ranked ahead of the candidate can still win:
      // the first match before the candidate's rank, if any.  The cached
      // front rank settles the common case without touching the tier.
      const Winner& winner = it->second;
      const Rank rank = winner.rank();
      if (scan_front_rank_ < rank) {
        for (const std::uint32_t slot : scan_rules_) {
          const Slot& s = slots_[slot];
          if (rank_of(s) >= rank) break;
          if (s.rule.match.matches(packet, in_port)) return {slot, false};
        }
      }
      return {winner.slot, true};
    }
  }
  // Tier 2 alone: the first wildcard match in rank order wins.  Kept free
  // of rank checks -- this is the per-packet path of every common flow.
  for (const std::uint32_t slot : scan_rules_) {
    if (slots_[slot].rule.match.matches(packet, in_port)) return {slot, false};
  }
  return {kNoSlot, false};
}

FlowRule* FlowTable::lookup(const net::Packet& packet, topo::PortId in_port,
                            std::uint32_t wire_bytes) {
  ++stats_.lookups;
  const TierHit hit = two_tier_find(packet, in_port);
  if (hit.slot == kNoSlot) {
    ++stats_.misses;
    return nullptr;
  }
  hit.from_index ? ++stats_.index_hits : ++stats_.scan_fallbacks;
  FlowRule& rule = slots_[hit.slot].rule;
  MIC_ASSERT(rule.match.matches(packet, in_port));
  ++rule.packet_count;
  rule.byte_count += wire_bytes;
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

  // Structural: the index, the shadow lists and the scan tier together
  // name every live rule exactly once; each index entry is the
  // highest-precedence exact rule of its key; the scan tier is in rank
  // order; the cookie lists partition the live rules.
  std::vector<std::uint8_t> named(slots_.size(), 0);
  for (std::size_t i = 0; i < scan_rules_.size(); ++i) {
    const std::uint32_t slot = scan_rules_[i];
    if (!live(slot)) {
      complain(slot, "scan tier names a free or missing slot");
      return 0;  // slots untrustworthy; probing would read garbage
    }
    if (i > 0 && rank_of(slots_[slot]) <= rank_of(slots_[scan_rules_[i - 1]])) {
      complain(slot, "scan tier out of precedence order");
    }
    if (slots_[slot].rule.match.is_exact()) {
      complain(slot, "fully-specified rule left on the scan tier");
    }
    ++named[slot];
  }
  const Rank front =
      scan_rules_.empty() ? kNoRank : rank_of(slots_[scan_rules_.front()]);
  if (scan_front_rank_ != front) {
    violations.push_back("cached scan-tier front rank is stale");
  }
  // An exact-tier entry must name an exact rule filed under its own key.
  const auto check_exact = [&](const ExactKey& key, std::uint32_t slot) {
    ++named[slot];
    const Match& m = slots_[slot].rule.match;
    if (!m.is_exact()) {
      complain(slot, "exact tier names a wildcard rule");
    } else if (!(key_of(m) == key)) {
      complain(slot, "exact rule filed under a foreign key");
    }
  };
  std::size_t shadow_lists = 0;
  for (const auto& [key, winner] : index_) {
    if (!live(winner.slot)) {
      complain(winner.slot, "index names a free or missing slot");
      return 0;
    }
    check_exact(key, winner.slot);
    if (winner.rank() != rank_of(slots_[winner.slot])) {
      complain(winner.slot, "index entry carries a stale rank");
    }
    const auto shadows = shadowed_.find(key);
    if (shadows == shadowed_.end()) continue;
    ++shadow_lists;
    if (shadows->second.empty()) complain(winner.slot, "empty shadow list");
    for (const std::uint32_t slot : shadows->second) {
      if (!live(slot)) {
        complain(slot, "shadow list names a free or missing slot");
        return 0;
      }
      check_exact(key, slot);
      if (rank_of(slots_[slot]) < winner.rank()) {
        complain(slot, "shadowed rule outranks its key's index entry");
      }
    }
  }
  if (shadow_lists != shadowed_.size()) {
    violations.push_back("shadow list for a key with no index entry");
  }
  std::size_t live_rules = 0;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (!live(slot)) continue;
    ++live_rules;
    if (named[slot] != 1) {
      complain(slot, named[slot] == 0 ? "rule reachable from no tier"
                                      : "rule named by more than one tier");
    }
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

  // Behavioural: for a probe synthesized from each rule, the two-tier
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
    probe.mpls = m.require_no_mpls ? net::kNoMpls
                                   : m.mpls.value_or(net::kNoMpls);
    const topo::PortId in_port = m.in_port.value_or(0);
    const FlowRule* expected = reference_lookup(probe, in_port);
    const TierHit hit = two_tier_find(probe, in_port);
    const FlowRule* actual =
        hit.slot == kNoSlot ? nullptr : &slots_[hit.slot].rule;
    ++probes;
    if (expected != actual) {
      complain(slot, "two-tier winner differs from the reference scan");
    }
  }
  return probes;
}

bool FlowTable::add_group(GroupEntry group) {
  if (this->group(group.group_id) != nullptr) return false;
  groups_.push_back(std::move(group));
  return true;
}

std::size_t FlowTable::remove_groups_by_cookie(std::uint64_t cookie) {
  const auto before = groups_.size();
  std::erase_if(groups_, [cookie](const GroupEntry& g) {
    return g.cookie == cookie;
  });
  return before - groups_.size();
}

const GroupEntry* FlowTable::group(std::uint32_t group_id) const noexcept {
  for (const auto& g : groups_) {
    if (g.group_id == group_id) return &g;
  }
  return nullptr;
}

}  // namespace mic::switchd
