#include "ctrl/controller.hpp"

namespace mic::ctrl {

Controller::Controller(net::Network& network, HostAddressing addressing,
                       ControllerConfig config)
    : network_(network),
      addressing_(std::move(addressing)),
      config_(config),
      paths_(network.graph()),
      switches_(network.graph().size(), nullptr) {
  // The fabric sets every device before its controller exists and never
  // replaces one.
  for (const topo::NodeId sw : graph().switches()) {
    switches_[sw] = dynamic_cast<switchd::SdnSwitch*>(network_.device(sw));
  }
}

bool Controller::roll_control_drop() {
  if (control_drop_probability_ <= 0.0 ||
      !control_drop_rng_.chance(control_drop_probability_)) {
    return false;
  }
  ++control_drops_;
  return true;
}

bool Controller::op_admitted(topo::NodeId sw, std::uint64_t epoch) {
  if (switch_at(sw)->admit_epoch(epoch)) return true;
  ++fenced_ops_;
  on_fenced_out(sw);
  return false;
}

void Controller::install(topo::NodeId sw, switchd::TableEntry entry) {
  count_install(entry);
  if (!op_admitted(sw, fence_epoch_)) return;
  const bool ok = switch_at(sw)->table().add(std::move(entry));
  MIC_ASSERT_MSG(ok, "duplicate entry rejected by flow table");
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

bool Controller::install_now(topo::NodeId sw, switchd::TableEntry entry) {
  count_install(entry);
  if (!op_admitted(sw, fence_epoch_)) return false;
  return switch_at(sw)->try_install(std::move(entry));
}

void Controller::install_checked(topo::NodeId sw, switchd::TableEntry entry,
                                 std::function<void(bool)> on_result) {
  count_install(entry);
  if (roll_control_drop()) {
    network_.simulator().schedule_in(kSouthboundTimeout,
                                     [cb = std::move(on_result)] { cb(false); });
    return;
  }
  network_.simulator().schedule_in(
      kSouthboundLatency,
      [this, sw, epoch = fence_epoch_, e = std::move(entry),
       cb = std::move(on_result)]() mutable {
        const bool ok =
            op_admitted(sw, epoch) && switch_at(sw)->try_install(std::move(e));
        if (roll_control_drop()) {
          // The entry may be installed but the controller never learns; the
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
        [token = token_](topo::NodeId node, topo::PortId port) {
          if (*token == nullptr) return;
          (*token)->network_.simulator().schedule_in(
              kSouthboundLatency, [token, node, port] {
                if (Controller* self = *token) self->on_port_status(node, port);
              });
        });
  }
}

}  // namespace mic::ctrl
