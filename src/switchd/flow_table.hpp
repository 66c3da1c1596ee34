// OpenFlow-style flow table: priority-ordered rules with maskable match
// fields and an ordered action list.  This is the entire per-switch state
// MIC relies on -- the paper's MNs "can only modify the header of packets",
// i.e. execute set-field actions from rules the Mimic Controller installed.
//
// Lookup is tuple space search, the classifier of Open vSwitch.  A rule's
// shape is the set of fields it pins among in_port, src, dst, sport, dport
// and the label (`require_no_mpls` pins label 0).  Each distinct shape owns
// one subtable, a hash table keyed by the pinned values.  Rules that share
// a shape and a key match exactly the same packets; they form one chain in
// precedence order and the subtable names the chain's head.  A rule's
// precedence is its rank, (priority desc, install order).  A lookup probes
// the subtables in order of their highest priority and stops once no
// remaining subtable can beat the best match found, so the handful of
// shapes MIC installs (exact m-flow rewrites and decoy drops, dst-only L3
// routes, in_port+dst+untagged ingress tagging) cost a few hash probes per
// packet.  Rules sit in stable slots; an install is one probe plus a walk
// of its key's chain, and a cookie removal touches only that cookie's
// rules.  `reference_lookup()` keeps a linear scan over every rule alive as
// the oracle for the differential tests (invariant FT-1 in DESIGN.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <ranges>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <variant>
#include <vector>

#include "net/packet.hpp"
#include "topology/graph.hpp"

namespace mic::switchd {

/// Match on any subset of fields; an unset optional is a wildcard.
/// `mpls` matches the label value; `require_no_mpls` matches only untagged
/// packets (an unset `mpls` with require_no_mpls=false matches any label
/// state).
struct Match {
  std::optional<topo::PortId> in_port;
  std::optional<net::Ipv4> src;
  std::optional<net::Ipv4> dst;
  std::optional<net::L4Port> sport;
  std::optional<net::L4Port> dport;
  std::optional<net::MplsLabel> mpls;
  bool require_no_mpls = false;

  bool matches(const net::Packet& packet, topo::PortId in) const noexcept {
    if (in_port && *in_port != in) return false;
    if (src && *src != packet.src) return false;
    if (dst && *dst != packet.dst) return false;
    if (sport && *sport != packet.sport) return false;
    if (dport && *dport != packet.dport) return false;
    if (require_no_mpls && packet.mpls != net::kNoMpls) return false;
    if (mpls && *mpls != packet.mpls) return false;
    return true;
  }

  bool operator==(const Match&) const noexcept = default;

  /// True when the match pins every field the lookup key covers: all five
  /// header fields plus the label state (an explicit label value or
  /// `require_no_mpls`).  Such a rule matches exactly one packet header and
  /// lives in the all-fields subtable.  A contradictory match
  /// (`require_no_mpls` with a non-zero label) is not exact -- it matches
  /// nothing and sits in no subtable.
  bool is_exact() const noexcept {
    if (!in_port || !src || !dst || !sport || !dport) return false;
    if (mpls) return !require_no_mpls || *mpls == net::kNoMpls;
    return require_no_mpls;
  }
};

// --- actions ---------------------------------------------------------------

struct SetSrc { net::Ipv4 ip; bool operator==(const SetSrc&) const = default; };
struct SetDst { net::Ipv4 ip; bool operator==(const SetDst&) const = default; };
struct SetSport { net::L4Port port; bool operator==(const SetSport&) const = default; };
struct SetDport { net::L4Port port; bool operator==(const SetDport&) const = default; };
struct SetMpls { net::MplsLabel label; bool operator==(const SetMpls&) const = default; };  // push or rewrite
struct PopMpls { bool operator==(const PopMpls&) const = default; };
struct Output { topo::PortId port; bool operator==(const Output&) const = default; };
struct GroupAction { std::uint32_t group_id; bool operator==(const GroupAction&) const = default; };
struct DropAction { bool operator==(const DropAction&) const = default; };

/// The six header-rewriting set-field actions lead the variant, so
/// `index() <= kLastSetField` tells them apart from the rest.
using Action = std::variant<SetSrc, SetDst, SetSport, SetDport, SetMpls,
                            PopMpls, Output, GroupAction, DropAction>;
inline constexpr std::size_t kLastSetField = 5;
static_assert(std::is_same_v<std::variant_alternative_t<0, Action>, SetSrc> &&
              std::is_same_v<std::variant_alternative_t<1, Action>, SetDst> &&
              std::is_same_v<std::variant_alternative_t<2, Action>, SetSport> &&
              std::is_same_v<std::variant_alternative_t<3, Action>, SetDport> &&
              std::is_same_v<std::variant_alternative_t<4, Action>, SetMpls> &&
              std::is_same_v<std::variant_alternative_t<kLastSetField, Action>,
                             PopMpls>,
              "set-field actions must lead the Action variant");

/// Number of header-rewriting set-field actions in a list (for CPU cost).
inline std::size_t count_set_fields(
    const std::vector<Action>& actions) noexcept {
  return static_cast<std::size_t>(
      std::ranges::count_if(actions, [](const Action& action) {
        return action.index() <= kLastSetField;
      }));
}

struct FlowRule {
  std::uint16_t priority = 0;
  Match match;
  std::vector<Action> actions;
  std::uint64_t cookie = 0;  // owner tag; channels delete rules by cookie

  // Counters (mutable through the table).
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

enum class GroupType : std::uint8_t {
  /// Every bucket executes on its own copy of the packet.  MIC's
  /// partially-multicast mechanism uses one bucket per replicated copy.
  kAll,
  /// One bucket is chosen by a stable hash of the flow's addresses and
  /// ports -- OpenFlow's ECMP primitive, used by the default routing to
  /// spread common flows over equal-cost paths.
  kSelect,
};

struct GroupEntry {
  std::uint32_t group_id = 0;
  GroupType type = GroupType::kAll;
  std::vector<std::vector<Action>> buckets;
  std::uint64_t cookie = 0;
};

/// The SELECT-group bucket index for a packet: a stable 5-tuple hash
/// (labels excluded so tagging does not re-path a flow).  `salt`
/// decorrelates decisions across group instances -- without it every
/// ECMP stage on a path would pick the same bucket index, collapsing the
/// effective path diversity (real switches salt with the switch identity).
std::size_t select_bucket(const net::Packet& packet, std::size_t bucket_count,
                          std::uint64_t salt) noexcept;

/// Lookup counters.  `lookups == index_hits + scan_fallbacks + misses`;
/// per-rule hit counts are the rules' own `packet_count` fields.
struct TableStats {
  std::uint64_t lookups = 0;          // total lookup() calls
  std::uint64_t index_hits = 0;       // won by a rule pinning every field
  std::uint64_t scan_fallbacks = 0;   // won by a rule of any other shape
  std::uint64_t misses = 0;           // no rule matched

  TableStats& operator+=(const TableStats& o) noexcept {
    lookups += o.lookups;
    index_hits += o.index_hits;
    scan_fallbacks += o.scan_fallbacks;
    misses += o.misses;
    return *this;
  }
  bool operator==(const TableStats&) const noexcept = default;
};

class FlowTable {
 public:
  /// Insert a rule behind every installed rule of equal or higher
  /// priority.  Duplicate (priority, match) pairs are rejected -- this is
  /// the data-plane half of the collision avoidance story, and the
  /// collision audit in mic/collision_audit.hpp checks it globally.
  /// Returns false (and installs nothing) on duplicates or when the table
  /// is at capacity (OFPFMFC_TABLE_FULL).
  bool add_rule(FlowRule rule);

  /// Bound the rule count (hardware TCAMs are finite); 0 = unlimited.
  void set_capacity(std::size_t max_rules) noexcept {
    capacity_ = max_rules;
  }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Drop every rule and group (a switch crash loses all soft state).
  /// Stats survive: they describe the device's history, not its table.
  void clear();

  /// Remove all rules with the given cookie; returns how many were removed.
  /// Touches only that cookie's rules: each leaves its key's chain, and a
  /// removed chain head hands its cell to the next rule of the chain.
  std::size_t remove_by_cookie(std::uint64_t cookie);

  /// True when at least one rule carries `cookie`.
  bool has_cookie(std::uint64_t cookie) const noexcept {
    return cookie_heads_.contains(cookie);
  }

  /// Highest-precedence matching rule, or nullptr on table miss.  Counters
  /// (per-rule and table stats, including misses) are updated.
  FlowRule* lookup(const net::Packet& packet, topo::PortId in_port,
                   std::uint32_t wire_bytes);

  /// A linear scan over every rule that keeps the highest-precedence
  /// match, retained as the differential-testing oracle: it consults no
  /// subtable.  Touches no counters.  For every packet, `lookup()` must
  /// return this exact rule (FT-1).
  const FlowRule* reference_lookup(const net::Packet& packet,
                                   topo::PortId in_port) const noexcept;

  /// Runtime audit of FT-1 (run as "FT-1" by audit::run_all).
  /// Structural half: every live rule is reachable from exactly one bucket
  /// by probing its own key (never-matching rules from none), each chain is
  /// in precedence order, each subtable's key count and maximum priority
  /// are fresh, its array is at most half full and no subtable is empty,
  /// the subtables are sorted by maximum priority, and every rule sits on
  /// its cookie's removal list.  Behavioural half: for a probe packet
  /// synthesized from each rule's match (wildcards filled with fixed
  /// off-path values), the counter-free tuple-space winner equals
  /// reference_lookup()'s.  Appends one message per violation to
  /// `violations`; returns the number of probes checked.
  std::size_t self_check(std::vector<std::string>& violations) const;

  bool add_group(GroupEntry group);
  std::size_t remove_groups_by_cookie(std::uint64_t cookie);
  const GroupEntry* group(std::uint32_t group_id) const noexcept {
    const auto at = group_at_.find(group_id);
    return at == group_at_.end() ? nullptr : &groups_[at->second];
  }

  std::size_t rule_count() const noexcept { return rule_count_; }
  std::uint64_t miss_count() const noexcept { return stats_.misses; }

  const TableStats& stats() const noexcept { return stats_; }
  /// Distinct keys among the rules that pin every field: one per chain of
  /// the all-fields subtable (same-key rules and other shapes excluded).
  std::size_t indexed_rule_count() const noexcept;

  /// Every rule in precedence order (priority desc, then install order) --
  /// the order a plain scan would try them.  A cold path for flow dumps,
  /// the audits and tests: each call gathers and sorts the slots.  The
  /// view holds references into the table, so it must not outlive the
  /// next mutation.
  auto rules() const {
    return std::views::transform(live_slots(), RuleOf{this});
  }
  /// The rules carrying `cookie`, in precedence order.  Walks only that
  /// cookie's list, so a per-channel dump costs O(the channel's rules).
  auto rules_with_cookie(std::uint64_t cookie) const {
    return std::views::transform(cookie_slots(cookie), RuleOf{this});
  }
  /// Groups in install order.
  const std::vector<GroupEntry>& groups() const noexcept { return groups_; }

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// A rule in its stable home.  Slots freed by remove_by_cookie() are
  /// reused, so a slot index names a rule only while it is installed.
  struct Slot {
    /// Install order within the table, from 1; 0 marks a free slot.  Kept
    /// beside the rule's priority and match, so reading a rule's rank
    /// touches the cache line the lookup reads anyway.
    std::uint32_t seq = 0;
    /// Next slot holding a rule with the same cookie (kNoSlot ends it).
    std::uint32_t next_in_cookie = kNoSlot;
    /// Next slot of the same shape and key, in rank order (kNoSlot ends
    /// it).
    std::uint32_t next_in_key = kNoSlot;
    FlowRule rule;
  };

  /// A rule's precedence packed so that the smaller rank wins: priority
  /// descending, then install order.  Ranks are unique within a table.
  using Rank = std::uint64_t;
  static constexpr Rank kNoRank = std::numeric_limits<Rank>::max();
  static Rank rank_of(const Slot& slot) noexcept {
    return (Rank{0xFFFFu - slot.rule.priority} << 32) | slot.seq;
  }

  /// The fields a rule pins, one bit each.
  using Shape = std::uint8_t;
  static constexpr Shape kPinsInPort = 1 << 0;
  static constexpr Shape kPinsSrc = 1 << 1;
  static constexpr Shape kPinsDst = 1 << 2;
  static constexpr Shape kPinsSport = 1 << 3;
  static constexpr Shape kPinsDport = 1 << 4;
  static constexpr Shape kPinsLabel = 1 << 5;
  static constexpr Shape kAllFields = (1 << 6) - 1;
  /// The shape of a rule that can never match (`require_no_mpls` with a
  /// non-zero label).  Such rules sit in no subtable, only on the
  /// never_matching_ chain.
  static constexpr Shape kNeverMatches = 0xFF;
  static Shape shape_of(const Match& m) noexcept;

  /// Header values packed into three words.  A rule's key holds its pinned
  /// values and zero elsewhere; a packet's key masked to a shape equals the
  /// key of a rule of that shape iff the rule matches the packet.
  struct Key {
    std::uint64_t addrs = 0;  // src << 32 | dst
    std::uint64_t ports = 0;  // sport << 48 | dport << 32 | label
    std::uint64_t in_port = 0;

    bool operator==(const Key&) const noexcept = default;
    Key operator&(const Key& mask) const noexcept {
      return {addrs & mask.addrs, ports & mask.ports, in_port & mask.in_port};
    }
  };
  static Key key_of(const net::Packet& packet, topo::PortId in_port) noexcept;
  static Key key_of(const Match& m) noexcept;
  /// All ones over the fields `shape` pins.
  static Key mask_of(Shape shape) noexcept;
  static std::uint64_t hash_of(const Key& key) noexcept;

  /// The rules of one shape.  `cells` is a power-of-two open-addressing
  /// array (linear probing, at most half full) of chain-head slots; a
  /// cell's key is read from its head rule.  `priorities` counts the rules
  /// per distinct priority, highest first, so the maximum stays fresh as
  /// rules leave.
  struct Subtable {
    struct PriorityCount {
      std::uint16_t priority;
      std::uint32_t rules;
    };
    Shape shape = 0;
    std::uint16_t max_priority = 0;  // priorities.front(), for the lookup
    std::uint32_t keys = 0;          // occupied cells
    Key mask;                        // mask_of(shape)
    std::vector<std::uint32_t> cells;
    std::vector<PriorityCount> priorities;
  };

  /// The cell holding `key`'s chain head, or the empty cell that ends its
  /// probe run.
  std::size_t probe(const Subtable& table, const Key& key) const noexcept;
  /// Put a new chain head into `cell`, the empty cell that ended its key's
  /// probe; when the array would pass half full, double it first and probe
  /// again.
  void insert_head(Subtable& table, std::size_t cell, std::uint32_t slot);
  /// Empty `cell` by backward shift, so no tombstones are left.
  void erase_cell(Subtable& table, std::size_t cell) noexcept;
  /// Account one rule of `priority` in subtable `index` (delta +1 or -1),
  /// then restore the order of subtables_, dropping an emptied subtable.
  void count_priority(std::size_t index, std::uint16_t priority, int delta);
  /// Position in subtables_ of `shape`'s subtable, or subtables_.size().
  std::size_t subtable_index(Shape shape) const noexcept;

  /// The tuple-space winner's slot (kNoSlot on miss) and whether it pins
  /// every field.  Pure -- no counters -- so lookup() and the FT-1
  /// self_check() share one implementation.
  struct Hit {
    std::uint32_t slot;
    bool exact;
  };
  Hit find(const net::Packet& packet, topo::PortId in_port) const noexcept;

  /// Move `rule` into a free slot, stamp its install seq and link it onto
  /// its cookie's list.  Chain placement is the caller's job.
  std::uint32_t place(FlowRule rule);
  /// Detach a rule from its key's chain, and its chain from the subtable
  /// when it was the last rule with that key.
  void unlink(std::uint32_t slot);
  /// Every live slot / the slots on `cookie`'s list, sorted by rank.
  std::vector<std::uint32_t> live_slots() const;
  std::vector<std::uint32_t> cookie_slots(std::uint64_t cookie) const;
  void sort_by_rank(std::vector<std::uint32_t>& slots) const;
  /// Slot index -> its rule: the projection behind the rules() views.
  struct RuleOf {
    const FlowTable* table;
    const FlowRule& operator()(std::uint32_t slot) const noexcept {
      return table->slots_[slot].rule;
    }
  };

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t rule_count_ = 0;
  std::uint32_t next_seq_ = 1;
  std::size_t capacity_ = 0;  // 0 = unlimited
  std::vector<GroupEntry> groups_;
  // group id -> position in groups_.
  std::unordered_map<std::uint32_t, std::uint32_t> group_at_;
  // One subtable per shape in use, sorted by max_priority, highest first.
  std::vector<Subtable> subtables_;
  // Head of the chain of rules that can never match, in rank order.  A
  // lookup never reads it; it exists so duplicate detection and removal
  // treat these rules like any other.
  std::uint32_t never_matching_ = kNoSlot;
  // cookie -> first slot of that cookie's list (linked via next_in_cookie).
  std::unordered_map<std::uint64_t, std::uint32_t> cookie_heads_;
  TableStats stats_;
};

}  // namespace mic::switchd
