// SDN controller framework (the simulated Ryu).
//
// The controller owns the global topology view and a lazy shortest-path
// engine (the paper's MC "obtains the global view of the network and
// calculates all-pairs equal-cost shortest paths when initiation" -- we
// keep the same query surface but compute per-destination rows on demand,
// so start-up cost no longer scales with the full all-pairs table).
// Southbound operations (flow-mod, group-mod) are charged a fixed
// control-channel latency (kSouthboundLatency); proactive installs at
// simulation start are immediate.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "switchd/sdn_switch.hpp"
#include "topology/path_engine.hpp"

namespace mic::ctrl {

/// Bidirectional host <-> IP mapping, built by the topology glue.
struct HostAddressing {
  std::unordered_map<std::uint32_t, topo::NodeId> by_ip;
  std::unordered_map<topo::NodeId, net::Ipv4> by_node;

  void add(topo::NodeId host, net::Ipv4 ip) {
    by_ip[ip.value] = host;
    by_node[host] = ip;
  }

  net::Ipv4 ip_of(topo::NodeId host) const {
    const auto it = by_node.find(host);
    MIC_ASSERT_MSG(it != by_node.end(), "host has no IP");
    return it->second;
  }

  topo::NodeId host_of(net::Ipv4 ip) const {
    const auto it = by_ip.find(ip.value);
    return it == by_ip.end() ? topo::kInvalidNode : it->second;
  }
};

/// One-way latency of the out-of-band control channel (flow-mod install,
/// port-status delivery).  Mininet's localhost control channel is fast but
/// not free.
inline constexpr sim::SimTime kSouthboundLatency = sim::microseconds(200);

/// How long a checked install waits for the switch's reply before
/// declaring the flow-mod lost (the barrier-reply timeout).
inline constexpr sim::SimTime kSouthboundTimeout = sim::milliseconds(2);
static_assert(kSouthboundTimeout > 2 * kSouthboundLatency,
              "healthy checked installs would time out");

struct ControllerConfig {
  /// PHY loss-of-signal delay configured on every switch by
  /// subscribe_port_status(): how long after a port changes state the
  /// switch raises the async notification.  Every change is raised, however
  /// soon the port changes back.
  sim::SimTime detection_latency = sim::microseconds(500);
};

class Controller {
 public:
  Controller(net::Network& network, HostAddressing addressing,
             ControllerConfig config = {});

  /// The switches' port-status handlers, and the events they scheduled,
  /// outlive the controller and call nothing from then on.
  virtual ~Controller() { *token_ = nullptr; }
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  net::Network& network() noexcept { return network_; }
  const topo::Graph& graph() const noexcept { return network_.graph(); }
  const topo::PathEngine& paths() const noexcept { return paths_; }
  /// Mutable engine access for failure-set changes (link_failed /
  /// link_restored).
  topo::PathEngine& path_engine() noexcept { return paths_; }
  const HostAddressing& addressing() const noexcept { return addressing_; }
  const ControllerConfig& config() const noexcept { return config_; }

  /// The SDN switch serving `node`; asserts that there is one.
  switchd::SdnSwitch* switch_at(topo::NodeId node) {
    MIC_ASSERT_MSG(node < switches_.size() && switches_[node] != nullptr,
                   "node is not an SDN switch");
    return switches_[node];
  }

  // --- southbound installs ---------------------------------------------------
  //
  // Each takes a rule or a group; rules_installed() counts the rules.

  /// Install now, bypassing the southbound latency and the switch's
  /// injected faults (the proactive routing).  Asserts the switch accepted
  /// the entry.
  void install(topo::NodeId sw, switchd::TableEntry entry);
  /// Immediate checked install (no latency, no drops): apply the entry now
  /// and report whether the switch accepted it.  The synchronous
  /// transaction path in the MC builds on this.
  bool install_now(topo::NodeId sw, switchd::TableEntry entry);
  /// Checked install: the flow-mod travels the control channel, the switch
  /// may reject it (table full, injected fault), and the outcome travels
  /// back.  Either message can be dropped (set_control_drop_probability);
  /// a drop surfaces as failure after kSouthboundTimeout.
  /// `on_result(true)` means the entry is in the table; `on_result(false)`
  /// means it may or may not be -- the caller must roll back by cookie
  /// before retrying.
  void install_checked(topo::NodeId sw, switchd::TableEntry entry,
                       std::function<void(bool)> on_result);
  /// Remove every rule and group tagged with `cookie` on `sw`.
  void remove_cookie(topo::NodeId sw, std::uint64_t cookie,
                     bool immediate = false);

  /// Drop this fraction of checked-install control messages (request and
  /// reply legs independently).  Chaos-harness knob; 0 disables.
  void set_control_drop_probability(double p) noexcept {
    control_drop_probability_ = p;
  }
  std::uint64_t control_messages_dropped() const noexcept {
    return control_drops_;
  }

  // --- controller fencing ----------------------------------------------------
  //
  // Every mutating southbound op carries the controller's fence epoch (its
  // journal epoch; see SdnSwitch::admit_epoch).  A switch that has seen a
  // newer epoch refuses the op and on_fenced_out() fires: this controller
  // has been deposed by a failover it did not notice.  Epoch 0 (the
  // default for plain controllers) is always admitted, so nothing changes
  // for single-controller deployments.

  std::uint64_t fence_epoch() const noexcept { return fence_epoch_; }
  void set_fence_epoch(std::uint64_t epoch) noexcept { fence_epoch_ = epoch; }

  /// A switch refused one of our ops as stale: another controller with a
  /// newer epoch owns the tables now (the MC steps down; see
  /// MimicController::on_fenced_out).
  virtual void on_fenced_out(topo::NodeId sw) = 0;

  std::uint64_t fenced_ops() const noexcept { return fenced_ops_; }

  /// Route async port-status notifications from every switch to
  /// on_port_status(), after the switch-side detection latency (configured
  /// here from config().detection_latency) plus the control-channel
  /// latency, for as long as this controller lives.  This is what replaces
  /// hand-fed failure reports.
  void subscribe_port_status();

  /// Sum of every switch's lookup counters (see SdnSwitch::table_stats).
  switchd::TableStats aggregate_table_stats();

  /// Called (after detection + southbound latency) when a switch reports a
  /// port going down or coming back up; the PHY tells which.
  virtual void on_port_status(topo::NodeId sw, topo::PortId port) = 0;

  std::uint64_t rules_installed() const noexcept { return rules_installed_; }

  /// Per-switch signatures of the last installed L3 rule set.  Owned by
  /// L3RoutingApp: reroute_around() diffs against it to reinstall only the
  /// switches whose next-hop sets changed, and fills in every switch it
  /// reinstalls.  Clearing it makes the next reroute reinstall them all.
  std::unordered_map<topo::NodeId, std::uint64_t>& l3_signatures() noexcept {
    return l3_signatures_;
  }

 private:
  /// Fence gate for one mutating op arriving at `sw` stamped with `epoch`
  /// (captured when the op was sent).  Counts + reports a refusal.
  bool op_admitted(topo::NodeId sw, std::uint64_t epoch);

  /// Barrier timeout remaining after the request leg already spent one
  /// southbound latency.
  static constexpr sim::SimTime kRemainingTimeout =
      kSouthboundTimeout - kSouthboundLatency;

  void count_install(const switchd::TableEntry& entry) noexcept {
    if (std::holds_alternative<switchd::FlowRule>(entry)) ++rules_installed_;
  }

  /// One chaos-knob dice roll for a checked-install control message;
  /// counts the drop when it happens.
  bool roll_control_drop();

  net::Network& network_;
  HostAddressing addressing_;
  ControllerConfig config_;
  topo::PathEngine paths_;
  // Node -> its SDN switch, nullptr for hosts; filled once at construction.
  std::vector<switchd::SdnSwitch*> switches_;
  std::unordered_map<topo::NodeId, std::uint64_t> l3_signatures_;
  std::uint64_t fence_epoch_ = 0;
  std::uint64_t fenced_ops_ = 0;

  // Install accounting and the chaos drop knob.
  std::uint64_t rules_installed_ = 0;
  double control_drop_probability_ = 0.0;
  std::uint64_t control_drops_ = 0;
  Rng control_drop_rng_{0xC0117801DD};

  /// What the switches' port-status handlers hold of this controller; the
  /// destructor clears it.
  std::shared_ptr<Controller*> token_ = std::make_shared<Controller*>(this);
};

}  // namespace mic::ctrl
