// The Mimic Controller's private MAGA state: the network-global label
// classifier g(), the per-MN hash functions F, the S_ID assignment, the
// C_ID class for common flows, and the m-flow ID allocator.
//
// Only the MC holds this object (paper: "Only the MC knows which MPLS
// labels are in CF and which are in MF"; "only the MC knows which MN the
// label corresponds to").
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/maga.hpp"
#include "net/addr.hpp"
#include "topology/graph.hpp"

namespace mic::core {

using FlowId = std::uint16_t;
inline constexpr FlowId kInvalidFlowId = 0;  // reserved, never allocated

/// A slice of the m-flow ID space.  Multiple Mimic Controllers sharing one
/// fabric each get a disjoint range (paper Sec VI-C: "we can assign a
/// unique ID space for each controller to make MIC work among multiple
/// controllers"); the collision avoidance then holds globally because the
/// hash functions are deployment-wide and the IDs never overlap.
struct FlowIdRange {
  FlowId base = 1;
  FlowId size = 0xFFFE;
};

/// One generated m-address tuple (plus the free-entropy L4 ports).
struct MTuple {
  net::Ipv4 src;
  net::Ipv4 dst;
  net::L4Port sport = 0;
  net::L4Port dport = 0;
  net::MplsLabel mpls = net::kNoMpls;  // mpls1 << 16 | mpls2

  bool operator==(const MTuple&) const noexcept = default;
};

class MagaRegistry {
 public:
  /// The rng seeds the deployment-wide secrets (classifier, per-MN hash
  /// parameters): two registries built from equal-seeded rngs share them,
  /// which is how distributed controllers stay collision-free as long as
  /// their FlowIdRanges are disjoint.
  explicit MagaRegistry(Rng rng, FlowIdRange flow_ids = {});

  /// Assign an S_ID and a private hash function to a switch.  Idempotent.
  void register_switch(topo::NodeId sw);

  std::uint8_t s_id(topo::NodeId sw) const;
  std::uint8_t c_id() const noexcept { return c_id_; }

  /// A label tagging common flows: g(mpls1) == C_ID, mpls2 free.
  net::MplsLabel sample_cf_label();

  // --- m-flow IDs -----------------------------------------------------------

  /// Allocate a fresh m-flow ID ("monotonically increase the ID when a new
  /// m-flow arrives, and recover the expired ID when an m-flow is closed").
  /// Returns kInvalidFlowId when every ID of this controller's range is
  /// active.
  FlowId allocate_flow_id();
  void release_flow_id(FlowId id);
  std::size_t active_flow_count() const noexcept { return active_ids_.size(); }

  // --- tuple generation -----------------------------------------------------

  /// Generate an m-address tuple on `mn` for `flow`: random src/dst from
  /// the candidate sets, random ports, mpls1 sampled in the MN's label
  /// class, mpls2 solved by F^-1 so that F(tuple) == flow.  Retries until
  /// the tuple is distinct from every tuple currently allocated on `mn`
  /// (defense in depth; MAGA already separates distinct flow IDs).
  MTuple generate(topo::NodeId mn, FlowId flow,
                  const std::vector<net::Ipv4>& src_candidates,
                  const std::vector<net::Ipv4>& dst_candidates);

  /// Release the tuples a channel allocated on `mn`.
  void release_tuples(topo::NodeId mn, const std::vector<MTuple>& tuples);

  // --- crash recovery -------------------------------------------------------
  //
  // A restarted MC keeps its deployment-wide secrets (classifier, per-MN
  // hashes, S_IDs — all derived from the shared seed) but loses the
  // dynamic allocation state.  Recovery resets it and re-adopts ids and
  // tuples from the replayed channel journal.

  /// Drop every allocated flow id and tuple fingerprint; keep the secrets
  /// and switch registrations.
  void reset_allocations();

  /// Re-mark `id` active after a restart.  The free list is rebuilt by
  /// `rebuild_free_list()` once every journaled id has been adopted.
  void adopt_flow_id(FlowId id);

  /// Re-insert the fingerprints of journaled tuples on `mn` so future
  /// generation keeps avoiding them.
  void adopt_tuples(topo::NodeId mn, const std::vector<MTuple>& tuples);

  /// Recreate the free list as every id below the adopted high-water mark
  /// that is not active (ascending — deterministic, though not necessarily
  /// the pre-crash LIFO order).
  void rebuild_free_list();

  // --- verification (used by the collision audit and tests) -----------------

  /// F_mn(tuple) -- must equal the owning flow's ID.
  FlowId flow_id_of(topo::NodeId mn, const MTuple& tuple) const;
  /// g(mpls1 of label) -- must equal s_id(mn) for labels generated on mn.
  std::uint8_t class_of_label(net::MplsLabel label) const {
    return classifier_.classify(static_cast<std::uint16_t>(label >> 16));
  }

  bool flow_id_active(FlowId id) const { return active_ids_.contains(id); }

  /// The switch owning a label class; kInvalidNode for C_ID or unassigned
  /// classes.
  topo::NodeId switch_of_class(std::uint8_t s_id) const {
    const auto it = class_to_switch_.find(s_id);
    return it == class_to_switch_.end() ? topo::kInvalidNode : it->second;
  }

  std::uint64_t generation_retries() const noexcept { return retries_; }

 private:
  struct SwitchState {
    std::uint8_t s_id = 0;
    MagaF hash;
    std::unordered_set<std::uint64_t> allocated;  // tuple fingerprints
  };

  static std::uint64_t fingerprint(const MTuple& t) noexcept {
    std::uint64_t state = (static_cast<std::uint64_t>(t.src.value) << 32) |
                          t.dst.value;
    state ^= (static_cast<std::uint64_t>(t.sport) << 48) |
             (static_cast<std::uint64_t>(t.dport) << 32) | t.mpls;
    return splitmix64(state);
  }

  Rng rng_;
  MplsClassifier classifier_;
  std::uint8_t c_id_;
  std::unordered_map<topo::NodeId, SwitchState> switches_;
  std::unordered_map<std::uint8_t, topo::NodeId> class_to_switch_;
  std::unordered_set<std::uint8_t> used_s_ids_;

  FlowIdRange flow_ids_;
  FlowId next_flow_id_ = 1;
  std::vector<FlowId> free_flow_ids_;
  std::unordered_set<FlowId> active_ids_;
  std::uint64_t retries_ = 0;
};

}  // namespace mic::core
