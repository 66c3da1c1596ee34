// OpenFlow-style flow table: priority-ordered rules with maskable match
// fields and an ordered action list.  This is the entire per-switch state
// MIC relies on -- the paper's MNs "can only modify the header of packets",
// i.e. execute set-field actions from rules the Mimic Controller installed.
//
// Lookup is two-tier.  Rules that pin every match field (in_port, src, dst,
// sport, dport, and the label state) -- every MN rewrite and decoy-drop
// rule the Mimic Controller installs -- live in an exact-match hash index;
// only rules with at least one wildcard field (L3 transit routes, ARP-style
// punts, `require_no_mpls` classifiers) stay on the rank-ordered scan
// path.  A rule's precedence is its rank, (priority desc, install order),
// so an indexed hit still loses to any higher-precedence wildcard rule,
// with ties broken by install order just like a plain scan.  Rules sit in
// stable slots and every mutation touches only the rules it adds or
// removes, so an install or a cookie removal costs O(change), not
// O(table).  `reference_lookup()` keeps a linear scan over every rule alive
// as the oracle for the differential tests (invariant FT-1 in DESIGN.md).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <ranges>
#include <string>
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
  /// `require_no_mpls`).  Such a rule matches exactly one packet header, so
  /// it can be served from the exact-match index.  A contradictory match
  /// (`require_no_mpls` with a non-zero label) is not exact -- it matches
  /// nothing and is left to the scan tier, which agrees.
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
struct ToController { bool operator==(const ToController&) const = default; };
struct DropAction { bool operator==(const DropAction&) const = default; };

using Action = std::variant<SetSrc, SetDst, SetSport, SetDport, SetMpls,
                            PopMpls, Output, GroupAction, ToController,
                            DropAction>;

/// Number of header-rewriting set-field actions in a list (for CPU cost).
std::size_t count_set_fields(const std::vector<Action>& actions) noexcept;

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
  std::uint64_t index_hits = 0;       // resolved by the exact-match index
  std::uint64_t scan_fallbacks = 0;   // resolved by the wildcard scan tier
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
  /// Touches only that cookie's rules: a removed index winner hands its
  /// key to the best same-key rule it shadowed.
  std::size_t remove_by_cookie(std::uint64_t cookie);

  /// True when at least one rule carries `cookie`.
  bool has_cookie(std::uint64_t cookie) const noexcept {
    return cookie_heads_.contains(cookie);
  }

  /// Highest-priority matching rule, or nullptr on table miss.  Counters
  /// (per-rule and table stats, including misses) are updated.  Served by
  /// the exact-match index when the winner is a fully-specified rule, by
  /// the wildcard scan otherwise.
  FlowRule* lookup(const net::Packet& packet, topo::PortId in_port,
                   std::uint32_t wire_bytes);

  /// A linear scan over every rule that keeps the highest-precedence
  /// match, retained as the differential-testing oracle: it consults
  /// neither tier.  Touches no counters.  For every packet, `lookup()`
  /// must return this exact rule (FT-1).
  const FlowRule* reference_lookup(const net::Packet& packet,
                                   topo::PortId in_port) const noexcept;

  /// Runtime audit of FT-1 (registered as "FT-1" in audit::Registry).
  /// Structural half: every rule is covered by exactly one tier (the
  /// index, a same-key shadow list, or the rank-sorted scan tier), every
  /// index entry points at the highest-precedence exact rule for its key,
  /// and every rule sits on its cookie's removal list.  Behavioural half:
  /// for a probe packet synthesized from each rule's match (wildcards
  /// filled with fixed off-path values), the counter-free two-tier winner
  /// equals reference_lookup()'s.  Appends one message per violation to
  /// `violations`; returns the number of probes checked.
  std::size_t self_check(std::vector<std::string>& violations) const;

  bool add_group(GroupEntry group);
  std::size_t remove_groups_by_cookie(std::uint64_t cookie);
  const GroupEntry* group(std::uint32_t group_id) const noexcept;

  std::size_t rule_count() const noexcept { return rule_count_; }
  std::size_t group_count() const noexcept { return groups_.size(); }
  std::uint64_t miss_count() const noexcept { return stats_.misses; }

  const TableStats& stats() const noexcept { return stats_; }
  /// Rules currently served by the exact-match index: one per distinct
  /// exact key (shadowed same-key rules and wildcard rules excluded).
  std::size_t indexed_rule_count() const noexcept { return index_.size(); }

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
    FlowRule rule;
  };

  /// A rule's precedence packed so that the smaller rank wins: priority
  /// descending, then install order.  Ranks are unique within a table.
  using Rank = std::uint64_t;
  static constexpr Rank kNoRank = std::numeric_limits<Rank>::max();
  static Rank rank_of(std::uint16_t priority, std::uint32_t seq) noexcept {
    return (Rank{0xFFFFu - priority} << 32) | seq;
  }
  static Rank rank_of(const Slot& slot) noexcept {
    return rank_of(slot.rule.priority, slot.seq);
  }

  /// An index entry: the winning rule's slot plus its rank, so a lookup
  /// weighs the indexed candidate against the wildcard tier without
  /// touching the rule.  The rank is kept as (priority, seq) rather than a
  /// 64-bit Rank to keep the map node small.
  struct Winner {
    std::uint32_t slot = kNoSlot;
    std::uint32_t seq = 0;
    std::uint16_t priority = 0;

    Rank rank() const noexcept { return rank_of(priority, seq); }
  };
  Winner winner_at(std::uint32_t slot) const noexcept {
    return {slot, slots_[slot].seq, slots_[slot].rule.priority};
  }

  /// Concrete values of every indexable field: the hash-index key.  A
  /// packet's key equals an exact rule's key iff the rule matches it.
  struct ExactKey {
    topo::PortId in_port = 0;
    net::Ipv4 src;
    net::Ipv4 dst;
    net::L4Port sport = 0;
    net::L4Port dport = 0;
    net::MplsLabel mpls = net::kNoMpls;

    bool operator==(const ExactKey&) const noexcept = default;
  };
  struct ExactKeyHash {
    std::size_t operator()(const ExactKey& k) const noexcept;
  };

  static ExactKey key_of(const net::Packet& packet,
                         topo::PortId in_port) noexcept;
  /// The key of an exact match (`m.is_exact()` must hold).
  static ExactKey key_of(const Match& m) noexcept;

  /// The two-tier winner's slot (kNoSlot on miss) and which tier resolved
  /// it.  Pure -- no counters -- so lookup() and the FT-1 self_check()
  /// share one implementation.
  struct TierHit {
    std::uint32_t slot;
    bool from_index;
  };
  TierHit two_tier_find(const net::Packet& packet,
                        topo::PortId in_port) const noexcept;

  /// Move `rule` into a free slot, stamp its install seq and link it onto
  /// its cookie's list.  Tier placement is the caller's job.
  std::uint32_t place(FlowRule rule);
  /// Detach an exact rule from the index or its key's shadow list,
  /// promoting the best shadowed rule when the index winner leaves.
  void unlink_exact(std::uint32_t slot);
  /// Recompute scan_front_rank_ after the scan tier changed.
  void refresh_scan_front() noexcept;
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
  // key -> the highest-precedence exact rule with that key.
  std::unordered_map<ExactKey, Winner, ExactKeyHash> index_;
  // key -> slots of the other exact rules with that key (unordered).  They
  // lose to the index entry and wait to be promoted when it is removed;
  // MIC never installs two exact rules with one key, so this stays empty.
  std::unordered_map<ExactKey, std::vector<std::uint32_t>, ExactKeyHash>
      shadowed_;
  // Slots of non-exact rules, sorted by rank (i.e. in precedence order).
  std::vector<std::uint32_t> scan_rules_;
  // Rank of scan_rules_.front() (kNoRank when empty): an indexed hit that
  // outranks it skips the scan without touching the tier.
  Rank scan_front_rank_ = kNoRank;
  // cookie -> first slot of that cookie's list (linked via next_in_cookie).
  std::unordered_map<std::uint64_t, std::uint32_t> cookie_heads_;
  TableStats stats_;
};

}  // namespace mic::switchd
