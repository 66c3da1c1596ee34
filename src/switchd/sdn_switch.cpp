#include "switchd/sdn_switch.hpp"

#include "common/log.hpp"

namespace mic::switchd {

void SdnSwitch::receive(const net::Packet& packet, topo::PortId in_port) {
  // The lookup itself costs CPU; the packet continues processing when the
  // (serial) switch CPU gets to it.  It waits in the ingress FIFO until
  // then: completion times are non-decreasing and same-time events fire in
  // insertion order, so the FIFO front is always the packet whose event is
  // firing and the event captures nothing but `this`.
  const sim::SimTime done =
      cpu_.charge(simulator().now(), costs_.switch_lookup_cycles);
  ingress_fifo_.emplace_back(packet, in_port);
  simulator().schedule_at(done, [this] {
    net::Packet pkt = std::move(ingress_fifo_.front().first);
    const topo::PortId port = ingress_fifo_.front().second;
    ingress_fifo_.pop_front();
    const FlowRule* rule = table_.lookup(pkt, port);
    if (rule == nullptr) {
      ++dropped_;
      return;
    }
    apply_actions(rule->actions, std::move(pkt), port, /*allow_group=*/true);
  });
}

void SdnSwitch::on_port_status(topo::PortId port) {
  if (port_status_.empty()) return;
  // Every PHY event leaves the switch as an async notification
  // detection_latency_ later, whatever the port did in between (a delay,
  // not a debounce); the subscriber adds the control-channel latency on
  // top.  One delayed event fans out to every subscriber, in subscription
  // order, so adding a standby never perturbs the primary's event sequence.
  simulator().schedule_in(detection_latency_, [this, port] {
    for (const auto& handler : port_status_) {
      if (handler) handler(node_, port);
    }
  });
}

bool SdnSwitch::try_install(TableEntry entry) {
  const bool faulted = install_fault_probability_ > 0.0 &&
                       install_fault_rng_.chance(install_fault_probability_);
  if (faulted || !table_.add(std::move(entry))) {
    ++installs_rejected_;
    return false;
  }
  return true;
}

FlowDump SdnSwitch::dump(const DumpFilter& filter) const {
  FlowDump out;
  const auto take = [&filter, &out](const auto& rules) {
    for (const FlowRule& rule : rules) {
      if (filter.admits(rule.cookie)) out.rules.push_back(rule);
    }
  };
  if (filter.cookie) {
    take(table_.rules_with_cookie(*filter.cookie));
  } else {
    take(table_.rules());
  }
  for (const GroupEntry& group : table_.groups()) {
    if (filter.admits(group.cookie)) out.groups.push_back(group);
  }
  return out;
}

void SdnSwitch::apply_actions(const std::vector<Action>& actions,
                              net::Packet packet, topo::PortId in_port,
                              bool allow_group) {
  const std::size_t rewrites = count_set_fields(actions);
  if (rewrites > 0) {
    cpu_.charge(simulator().now(),
                costs_.switch_rewrite_cycles * static_cast<double>(rewrites));
  }

  // The last action that reads the packet takes it by move; only earlier
  // Outputs / group buckets in a fan-out list pay a copy.  (Drop never
  // reads, so it cannot be the last reader.)
  std::size_t last_reader = actions.size();
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (!std::holds_alternative<DropAction>(actions[i])) last_reader = i;
  }

  for (std::size_t i = 0; i < actions.size(); ++i) {
    const Action& action = actions[i];
    const bool last = i == last_reader;
    if (const auto* set_src = std::get_if<SetSrc>(&action)) {
      packet.src = set_src->ip;
    } else if (const auto* set_dst = std::get_if<SetDst>(&action)) {
      packet.dst = set_dst->ip;
    } else if (const auto* set_sport = std::get_if<SetSport>(&action)) {
      packet.sport = set_sport->port;
    } else if (const auto* set_dport = std::get_if<SetDport>(&action)) {
      packet.dport = set_dport->port;
    } else if (const auto* set_mpls = std::get_if<SetMpls>(&action)) {
      packet.mpls = set_mpls->label;
    } else if (std::get_if<PopMpls>(&action)) {
      packet.mpls = net::kNoMpls;
    } else if (const auto* out = std::get_if<Output>(&action)) {
      ++forwarded_;
      if (last) {
        network_->transmit(node_, out->port, std::move(packet));
      } else {
        network_->transmit(node_, out->port, packet);
      }
    } else if (const auto* grp = std::get_if<GroupAction>(&action)) {
      MIC_ASSERT_MSG(allow_group, "group chaining is not allowed");
      const GroupEntry* group = table_.group(grp->group_id);
      if (group == nullptr) {
        MIC_LOG_WARN("switch %u: group %u not found", node_, grp->group_id);
        ++dropped_;
        return;
      }
      if (group->type == GroupType::kSelect) {
        // ECMP: one bucket, chosen by the flow hash.
        cpu_.charge(simulator().now(), costs_.switch_group_copy_cycles);
        const std::size_t index = select_bucket(
            packet, group->buckets.size(),
            (static_cast<std::uint64_t>(node_) << 32) ^ group->group_id);
        if (last) {
          apply_actions(group->buckets[index], std::move(packet), in_port,
                        /*allow_group=*/false);
        } else {
          apply_actions(group->buckets[index], packet, in_port,
                        /*allow_group=*/false);
        }
      } else {
        // ALL group: every bucket acts on its own copy -- except the final
        // one, which inherits the packet when nothing else reads it after.
        cpu_.charge(simulator().now(),
                    costs_.switch_group_copy_cycles *
                        static_cast<double>(group->buckets.size()));
        for (std::size_t b = 0; b < group->buckets.size(); ++b) {
          if (last && b + 1 == group->buckets.size()) {
            apply_actions(group->buckets[b], std::move(packet), in_port,
                          /*allow_group=*/false);
          } else {
            apply_actions(group->buckets[b], packet, in_port,
                          /*allow_group=*/false);
          }
        }
      }
    } else if (std::get_if<DropAction>(&action)) {
      ++dropped_;
      return;
    }
  }
}

}  // namespace mic::switchd
