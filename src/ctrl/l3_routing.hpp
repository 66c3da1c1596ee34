// Proactive L3 shortest-path routing for common (non-mimic) flows.
//
// Per the paper's collision-avoidance design, common flows are tagged with
// MPLS labels from the CF category at the ingress edge switch and the tag
// is popped at the egress edge.  Transit switches forward on destination IP
// alone.  M-flow rules (installed later by the Mimic Controller) sit at a
// higher priority and match exact three-tuples including an MF label, so
// the two rule families can never capture each other's traffic.
#pragma once

#include <functional>

#include "ctrl/controller.hpp"

namespace mic::ctrl {

/// Priorities shared across the rule families; MIC's rules must outrank the
/// default routing.
inline constexpr std::uint16_t kPriorityMFlow = 100;
inline constexpr std::uint16_t kPriorityDecoyDrop = 110;
inline constexpr std::uint16_t kPriorityEgress = 30;
inline constexpr std::uint16_t kPriorityIngressTag = 25;
inline constexpr std::uint16_t kPriorityTransit = 20;

inline constexpr std::uint64_t kL3Cookie = 0x4c335254ULL;  // "L3RT"

/// The default routing's ECMP groups take the ids from here up, one per
/// destination index; the Mimic Controller's multicast groups stay below.
inline constexpr std::uint32_t kL3GroupBase = 0x80000000u;

/// TableStats-style counters for selective reroute: how many switches a
/// reroute scanned vs how many actually had their rules churned.
struct RerouteStats {
  std::uint64_t reroutes = 0;             // reroute_around invocations
  std::uint64_t switches_scanned = 0;
  std::uint64_t switches_reinstalled = 0;  // next-hop signature changed
  std::uint64_t switches_skipped = 0;      // signature unchanged; untouched
  std::uint64_t rules_installed = 0;       // rules + groups re-issued

  RerouteStats& operator+=(const RerouteStats& other) noexcept {
    reroutes += other.reroutes;
    switches_scanned += other.switches_scanned;
    switches_reinstalled += other.switches_reinstalled;
    switches_skipped += other.switches_skipped;
    rules_installed += other.rules_installed;
    return *this;
  }
  bool operator==(const RerouteStats&) const noexcept = default;
};

class L3RoutingApp {
 public:
  /// Supplies the CF label to tag a common flow entering at `ingress_host`.
  /// Must never return kNoMpls.  Asked once per (switch, attached host)
  /// that a reinstall tags for, at its first ingress rule.  The Mimic
  /// Controller supplies a policy backed by its MPLS space partitioning.
  using CfLabelPolicy = std::function<net::MplsLabel(topo::NodeId ingress_host)>;

  /// The one entry point, for the initial install and every failure or
  /// repair after it: sync every switch's proactive rules (CF tagging at
  /// the ingress edge, per-destination forwarding, pop + deliver at the
  /// egress edge) to the path engine's failure set.  A switch is
  /// reinstalled when it has no recorded next-hop signature (see
  /// Controller::l3_signatures; an empty map reinstalls the whole fabric),
  /// when its table lost its L3 rules (a switch reboot), or when its
  /// signature under that failure set changed.  Every other switch is left
  /// untouched, so data-plane churn tracks the failure's blast radius, not
  /// the fabric size.  Multi-hop avoidance is not attempted (equal-cost
  /// multipath absorbs single-link failures in Clos fabrics); destinations
  /// that become locally unreachable are skipped.
  static RerouteStats reroute_around(Controller& controller,
                                     CfLabelPolicy policy);
};

}  // namespace mic::ctrl
