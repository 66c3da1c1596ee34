// SDN switch device: the simulated equivalent of the paper's Open vSwitch
// instances.  Pipeline per packet: charge a flow-table lookup on the switch
// CPU, apply the matched rule's actions (each set-field charged separately,
// each group-bucket copy charged separately), and transmit.
//
// MIC installs every rule proactively, so a table miss drops the packet
// and counts it.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/cost_model.hpp"
#include "net/network.hpp"
#include "switchd/flow_table.hpp"

namespace mic::switchd {

/// Cookie filter for the flow-dump RPC (the OFPFF cookie/cookie_mask
/// subset MIC needs).  With `cookie` set, only entries stamped with it;
/// with `exclude_cookie` set, everything else.  Both unset dumps all.
struct DumpFilter {
  std::optional<std::uint64_t> cookie;
  std::optional<std::uint64_t> exclude_cookie;

  bool admits(std::uint64_t entry_cookie) const noexcept {
    if (cookie && entry_cookie != *cookie) return false;
    if (exclude_cookie && entry_cookie == *exclude_cookie) return false;
    return true;
  }
};

/// One switch's answer to a flow/group stats request.
struct FlowDump {
  std::vector<FlowRule> rules;
  std::vector<GroupEntry> groups;
};

class SdnSwitch : public net::Device {
 public:
  /// Async OFPT_PORT_STATUS equivalent: (switch, port, up).
  using PortStatusHandler =
      std::function<void(topo::NodeId sw, topo::PortId, bool up)>;

  explicit SdnSwitch(const crypto::CostModel& costs =
                         crypto::default_cost_model())
      : costs_(costs) {}

  FlowTable& table() noexcept { return table_; }
  const FlowTable& table() const noexcept { return table_; }

  /// Subscribe to async port-status notifications.  The switch raises them
  /// `detection_latency` after the PHY event (loss-of-signal debounce); the
  /// control-channel latency on top is the subscriber's business.  Like an
  /// OpenFlow switch with several controller connections, every subscriber
  /// hears every event -- a warm standby that took over still shares the
  /// switch with its deposed predecessor until fencing retires it.
  void add_port_status_handler(PortStatusHandler handler) {
    port_status_.push_back(std::move(handler));
  }
  void set_detection_latency(sim::SimTime latency) noexcept {
    detection_latency_ = latency;
  }
  sim::SimTime detection_latency() const noexcept {
    return detection_latency_;
  }

  void receive(const net::Packet& packet, topo::PortId in_port) override;
  void on_port_status(topo::PortId port, bool up) override;

  // --- fallible rule installation -------------------------------------------
  //
  // A real switch can reject a flow-mod (table full) or lose it entirely;
  // the fault hook lets the chaos harness inject rejection bursts.  The
  // controller's *checked* install path consults try_install; the legacy
  // fire-and-forget path keeps the old add_rule semantics.

  /// Reject a fraction of try_install calls while active (0 disables).
  /// Seeded independently so fault schedules replay deterministically.
  void inject_install_faults(double probability, std::uint64_t seed) {
    install_fault_probability_ = probability;
    install_fault_rng_.reseed(seed);
  }
  void clear_install_faults() noexcept { install_fault_probability_ = 0.0; }

  /// Install honouring capacity, duplicates and injected faults.  Returns
  /// false when the switch rejects (the flow-mod error the checked path
  /// reports back to the controller).
  bool try_install(FlowRule rule);
  bool try_install_group(GroupEntry group);

  std::uint64_t installs_rejected() const noexcept {
    return installs_rejected_;
  }

  /// Flow/group table dump (OFPT_FLOW_STATS_REQUEST + OFPT_GROUP_DESC
  /// analog) with cookie filtering — the primitive a recovering controller
  /// uses to resync its journal against what is actually installed.
  /// Entries are returned in the table's stable iteration order.
  FlowDump dump(const DumpFilter& filter = {}) const;

  // --- controller fencing ----------------------------------------------------
  //
  // The OpenFlow role-request generation_id analog: every mutating op a
  // controller sends is stamped with its journal epoch.  The switch keeps
  // the highest epoch it has seen and refuses anything older, so a zombie
  // ex-primary (a controller that lost a failover it never noticed) cannot
  // mutate tables the new primary now owns.

  /// Gate for one mutating op stamped with `epoch`: ops at or above the
  /// recorded fence are admitted (and raise it); older ops are refused and
  /// counted.  Epoch 0 (the pre-fencing default) is admitted only while
  /// the fence has never been raised — after any failover fences a switch,
  /// an epoch-0 controller is refused like any other stale generation.
  /// That is the point: a zombie ex-primary that never learned its epoch
  /// must not mutate tables the new primary owns.
  bool admit_epoch(std::uint64_t epoch) {
    if (epoch < fence_epoch_) {
      ++stale_ops_rejected_;
      return false;
    }
    fence_epoch_ = epoch;
    return true;
  }
  /// Raise the fence without an op (the new primary does this for every
  /// switch it resyncs during takeover, before reissuing any rules).
  void raise_fence(std::uint64_t epoch) {
    if (epoch > fence_epoch_) fence_epoch_ = epoch;
  }
  std::uint64_t fence_epoch() const noexcept { return fence_epoch_; }
  std::uint64_t stale_ops_rejected() const noexcept {
    return stale_ops_rejected_;
  }

  std::uint64_t forwarded() const noexcept { return forwarded_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Lookup-tier counters of this switch's table (index hits vs wildcard
  /// scan fallbacks vs misses) -- the observable the benches and the
  /// controller use to confirm m-flow rules ride the fast path.
  const TableStats& table_stats() const noexcept { return table_.stats(); }

 private:
  /// Execute an action list on (a copy of) the packet; may recurse into
  /// groups one level deep (OpenFlow forbids group->group chaining).
  void apply_actions(const std::vector<Action>& actions, net::Packet packet,
                     topo::PortId in_port, bool allow_group);

  const crypto::CostModel& costs_;
  FlowTable table_;
  std::vector<PortStatusHandler> port_status_;
  /// PHY loss-of-signal debounce before the notification leaves the switch.
  sim::SimTime detection_latency_ = sim::microseconds(500);
  double install_fault_probability_ = 0.0;
  Rng install_fault_rng_{0};
  std::uint64_t installs_rejected_ = 0;
  std::uint64_t fence_epoch_ = 0;
  std::uint64_t stale_ops_rejected_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
  // Packets waiting for their lookup CPU charge, in completion order:
  // charge times are non-decreasing and same-time events fire in insertion
  // order, so the FIFO front is always the packet whose event is firing and
  // the event itself captures nothing but `this`.
  std::deque<std::pair<net::Packet, topo::PortId>> ingress_fifo_;
};

}  // namespace mic::switchd
