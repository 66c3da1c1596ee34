#include "ctrl/controller.hpp"

#include "common/log.hpp"

namespace mic::ctrl {

Controller::Controller(net::Network& network, HostAddressing addressing,
                       ControllerConfig config)
    : network_(network),
      addressing_(std::move(addressing)),
      config_(config),
      paths_(network.graph()) {}

bool Controller::roll_control_drop() {
  if (control_drop_probability_ <= 0.0 ||
      !control_drop_rng_.chance(control_drop_probability_)) {
    return false;
  }
  ++control_drops_;
  return true;
}

switchd::SdnSwitch* Controller::switch_at(topo::NodeId node) {
  auto* device = dynamic_cast<switchd::SdnSwitch*>(network_.device(node));
  MIC_ASSERT_MSG(device != nullptr, "node is not an SDN switch");
  return device;
}

bool Controller::op_admitted(topo::NodeId sw, std::uint64_t epoch) {
  if (switch_at(sw)->admit_epoch(epoch)) return true;
  ++fenced_ops_;
  on_fenced_out(sw);
  return false;
}

void Controller::on_fenced_out(topo::NodeId sw) {
  log_debug("switch %u refused a stale-epoch op", sw);
}

void Controller::install_rule(topo::NodeId sw, switchd::FlowRule rule) {
  count_rule_install();
  if (!op_admitted(sw, fence_epoch_)) return;
  const bool ok = switch_at(sw)->table().add_rule(std::move(rule));
  MIC_ASSERT_MSG(ok, "duplicate rule rejected by flow table");
}

void Controller::install_group(topo::NodeId sw, switchd::GroupEntry group) {
  if (!op_admitted(sw, fence_epoch_)) return;
  const bool ok = switch_at(sw)->table().add_group(std::move(group));
  MIC_ASSERT_MSG(ok, "duplicate group rejected by flow table");
}

void Controller::remove_cookie(topo::NodeId sw, std::uint64_t cookie,
                               bool immediate) {
  auto do_remove = [this, sw, cookie, epoch = fence_epoch_] {
    if (!op_admitted(sw, epoch)) return;
    switch_at(sw)->table().remove_by_cookie(cookie);
    switch_at(sw)->table().remove_groups_by_cookie(cookie);
  };
  if (immediate) {
    do_remove();
  } else {
    network_.simulator().schedule_in(kSouthboundLatency, do_remove);
  }
}

bool Controller::install_rule_now(topo::NodeId sw, switchd::FlowRule rule) {
  count_rule_install();
  if (!op_admitted(sw, fence_epoch_)) return false;
  return switch_at(sw)->try_install(std::move(rule));
}

bool Controller::install_group_now(topo::NodeId sw, switchd::GroupEntry group) {
  if (!op_admitted(sw, fence_epoch_)) return false;
  return switch_at(sw)->try_install_group(std::move(group));
}

void Controller::install_rule_checked(topo::NodeId sw, switchd::FlowRule rule,
                                      std::function<void(bool)> on_result) {
  count_rule_install();
  if (roll_control_drop()) {
    network_.simulator().schedule_in(kSouthboundTimeout,
                                     [cb = std::move(on_result)] { cb(false); });
    return;
  }
  network_.simulator().schedule_in(
      kSouthboundLatency,
      [this, sw, epoch = fence_epoch_, r = std::move(rule),
       cb = std::move(on_result)]() mutable {
        const bool ok =
            op_admitted(sw, epoch) && switch_at(sw)->try_install(std::move(r));
        if (roll_control_drop()) {
          // The rule may be installed but the controller never learns; the
          // timeout reports failure and the caller's rollback-by-cookie
          // keeps the table consistent.
          network_.simulator().schedule_in(
              kRemainingTimeout, [cb = std::move(cb)] { cb(false); });
          return;
        }
        network_.simulator().schedule_in(kSouthboundLatency,
                                         [cb = std::move(cb), ok] { cb(ok); });
      });
}

void Controller::install_group_checked(topo::NodeId sw,
                                       switchd::GroupEntry group,
                                       std::function<void(bool)> on_result) {
  if (roll_control_drop()) {
    network_.simulator().schedule_in(kSouthboundTimeout,
                                     [cb = std::move(on_result)] { cb(false); });
    return;
  }
  network_.simulator().schedule_in(
      kSouthboundLatency,
      [this, sw, epoch = fence_epoch_, g = std::move(group),
       cb = std::move(on_result)]() mutable {
        const bool ok = op_admitted(sw, epoch) &&
                        switch_at(sw)->try_install_group(std::move(g));
        if (roll_control_drop()) {
          network_.simulator().schedule_in(
              kRemainingTimeout, [cb = std::move(cb)] { cb(false); });
          return;
        }
        network_.simulator().schedule_in(kSouthboundLatency,
                                         [cb = std::move(cb), ok] { cb(ok); });
      });
}

switchd::TableStats Controller::aggregate_table_stats() {
  switchd::TableStats total;
  for (const topo::NodeId sw : graph().switches()) {
    total += switch_at(sw)->table_stats();
  }
  return total;
}

void Controller::subscribe_port_status() {
  for (const topo::NodeId sw : graph().switches()) {
    switch_at(sw)->set_detection_latency(config_.detection_latency);
    switch_at(sw)->add_port_status_handler(
        [this](topo::NodeId node, topo::PortId port, bool up) {
          network_.simulator().schedule_in(
              kSouthboundLatency,
              [this, node, port, up] { on_port_status(node, port, up); });
        });
  }
}

void Controller::on_port_status(topo::NodeId sw, topo::PortId port, bool up) {
  log_debug("port-status from switch %u port %u: %s", sw, port,
            up ? "up" : "down");
}

}  // namespace mic::ctrl
