#include "ctrl/l3_routing.hpp"

#include <algorithm>
#include <unordered_set>

namespace mic::ctrl {

namespace {

/// Scratch buffers reused across every (switch, host) pair of an install
/// sweep, so the inner loop stays allocation-free.
struct NextHopScratch {
  std::vector<std::pair<topo::NodeId, topo::PortId>> candidates;
  std::vector<topo::PortId> ports;
  std::vector<std::pair<topo::NodeId, topo::PortId>> local_hosts;
  /// CF label per local host, kNoMpls until its first ingress rule asks.
  std::vector<net::MplsLabel> local_labels;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// All equal-cost next-hop ports from `sw` toward host `dst` under the
/// engine's current (failure-filtered) view; sorted by peer id for
/// determinism.  Fills scratch.ports; empty when the destination is
/// unreachable.
void next_hop_ports(const Controller& controller,
                    const topo::PathEngine& paths, topo::NodeId sw,
                    topo::NodeId dst,
                    const std::unordered_set<topo::LinkId>& failed,
                    NextHopScratch& scratch) {
  scratch.candidates.clear();
  scratch.ports.clear();
  const auto& graph = controller.graph();
  const auto dist = paths.distances_to(dst);
  const std::uint32_t d = dist[sw];
  if (d == topo::PathEngine::kUnreachable) return;

  for (const auto& adj : graph.neighbors(sw)) {
    if (!failed.empty() && failed.contains(adj.link)) continue;
    const bool on_shortest =
        adj.peer == dst ||
        (graph.is_switch(adj.peer) && dist[adj.peer] == d - 1);
    if (on_shortest) scratch.candidates.push_back({adj.peer, adj.local_port});
  }
  std::sort(scratch.candidates.begin(), scratch.candidates.end());
  for (const auto& [peer, port] : scratch.candidates) {
    scratch.ports.push_back(port);
  }
}

/// Hosts attached directly to `sw` over live links (it is their edge
/// switch); fills scratch.local_hosts and resets their labels.
void collect_local_hosts(const Controller& controller, topo::NodeId sw,
                         const std::unordered_set<topo::LinkId>& failed,
                         NextHopScratch& scratch) {
  scratch.local_hosts.clear();
  const auto& graph = controller.graph();
  for (const auto& adj : graph.neighbors(sw)) {
    if (graph.is_host(adj.peer) &&
        (failed.empty() || !failed.contains(adj.link))) {
      scratch.local_hosts.push_back({adj.peer, adj.local_port});
    }
  }
  scratch.local_labels.assign(scratch.local_hosts.size(), net::kNoMpls);
}

/// One derivation of `sw`'s L3 rule set under `failed`.
struct Derivation {
  /// Hash of the live local-host attachments and the per-destination
  /// next-hop port sets: everything the rules are derived from, label
  /// policy and addressing being stable.  Equal signatures => identical
  /// rule sets.
  std::uint64_t signature = 0xa7c15ULL;
  std::uint64_t installed = 0;  // rules + groups issued
};

/// Derive `sw`'s signature and, when `install_with` is set, install the
/// rules it stands for -- one pass, so the two cannot disagree:
///  - egress edge: per attached host, pop + deliver;
///  - transit: per-dst forwarding (an ECMP SELECT group when several
///    next hops tie);
///  - ingress edge: per (host port, dst) rule tagging with a CF label and
///    forwarding.
Derivation derive(Controller& controller,
                  const L3RoutingApp::CfLabelPolicy* install_with,
                  const std::unordered_set<topo::LinkId>& failed,
                  topo::NodeId sw, const std::vector<topo::NodeId>& hosts,
                  NextHopScratch& scratch) {
  const topo::PathEngine& paths = controller.paths();
  collect_local_hosts(controller, sw, failed, scratch);
  Derivation out;
  std::uint64_t& h = out.signature;
  const auto issue = [&](switchd::TableEntry entry) {
    controller.install(sw, std::move(entry));
    ++out.installed;
  };
  const auto l3_rule = [](std::uint16_t priority, net::Ipv4 dst_ip,
                          std::vector<switchd::Action> actions) {
    switchd::FlowRule rule;
    rule.priority = priority;
    rule.match.dst = dst_ip;
    rule.actions = std::move(actions);
    rule.cookie = kL3Cookie;
    return rule;
  };

  for (const auto& [host, port] : scratch.local_hosts) {
    h = mix(h, (static_cast<std::uint64_t>(host) << 32) | port);
  }
  for (std::size_t dst_index = 0; dst_index < hosts.size(); ++dst_index) {
    const topo::NodeId dst = hosts[dst_index];

    // Egress: deliver to an attached host, stripping the CF tag.
    const auto local = std::ranges::find(
        scratch.local_hosts, dst,
        &std::pair<topo::NodeId, topo::PortId>::first);
    if (local != scratch.local_hosts.end()) {
      h = mix(h, (static_cast<std::uint64_t>(dst_index) << 32) | 0x10000u |
                     local->second);
      if (install_with != nullptr) {
        issue(l3_rule(kPriorityEgress, controller.addressing().ip_of(dst),
                      {switchd::PopMpls{}, switchd::Output{local->second}}));
      }
      continue;
    }

    next_hop_ports(controller, paths, sw, dst, failed, scratch);
    const auto& ports = scratch.ports;
    if (ports.empty()) continue;  // unreachable: no rules, no hash
    h = mix(h, (static_cast<std::uint64_t>(dst_index) << 32) | ports.size());
    for (const topo::PortId port : ports) h = mix(h, port);
    if (install_with == nullptr) continue;

    const net::Ipv4 dst_ip = controller.addressing().ip_of(dst);
    // With multiple equal-cost next hops install a SELECT group (ECMP,
    // hashing the 5-tuple), otherwise plain output.
    switchd::Action forward_action = switchd::Output{ports[0]};
    if (ports.size() > 1) {
      switchd::GroupEntry group;
      group.group_id = kL3GroupBase | static_cast<std::uint32_t>(dst_index);
      group.type = switchd::GroupType::kSelect;
      group.cookie = kL3Cookie;
      group.buckets.reserve(ports.size());
      for (const topo::PortId port : ports) {
        group.buckets.push_back({switchd::Output{port}});
      }
      forward_action = switchd::GroupAction{group.group_id};
      issue(std::move(group));
    }

    // Transit: forward on destination alone, any label state.
    issue(l3_rule(kPriorityTransit, dst_ip, {forward_action}));

    // Ingress tagging: traffic entering fresh from an attached host gets
    // a CF label before leaving the edge.
    for (std::size_t i = 0; i < scratch.local_hosts.size(); ++i) {
      const auto& [src_host, host_port] = scratch.local_hosts[i];
      net::MplsLabel& label = scratch.local_labels[i];
      if (label == net::kNoMpls) {
        label = (*install_with)(src_host);
        MIC_ASSERT_MSG(label != net::kNoMpls, "CF label must be non-zero");
      }
      switchd::FlowRule rule =
          l3_rule(kPriorityIngressTag, dst_ip,
                  {switchd::SetMpls{label}, forward_action});
      rule.match.in_port = host_port;
      rule.match.mpls = net::kNoMpls;
      issue(std::move(rule));
    }
  }
  return out;
}

/// True when `sw` holds at least one L3-cookie rule (a rebooted switch's
/// empty table must be refilled even if its signature never changed).
bool has_l3_rules(Controller& controller, topo::NodeId sw) {
  return controller.switch_at(sw)->table().has_cookie(kL3Cookie);
}

}  // namespace

RerouteStats L3RoutingApp::reroute_around(Controller& controller,
                                          CfLabelPolicy policy) {
  const std::unordered_set<topo::LinkId>& failed =
      controller.paths().failed_links();
  RerouteStats stats;
  stats.reroutes = 1;
  const auto hosts = controller.graph().hosts();
  NextHopScratch scratch;
  auto& signatures = controller.l3_signatures();

  for (const topo::NodeId sw : controller.graph().switches()) {
    ++stats.switches_scanned;
    // A switch with a recorded signature and L3 rules in its table keeps
    // them while its signature holds; any other switch is reinstalled.
    const auto it = signatures.find(sw);
    if (it != signatures.end() && has_l3_rules(controller, sw) &&
        derive(controller, nullptr, failed, sw, hosts, scratch).signature ==
            it->second) {
      ++stats.switches_skipped;
      continue;
    }
    controller.remove_cookie(sw, kL3Cookie, /*immediate=*/true);
    const Derivation derived =
        derive(controller, &policy, failed, sw, hosts, scratch);
    signatures[sw] = derived.signature;
    stats.rules_installed += derived.installed;
    ++stats.switches_reinstalled;
  }
  return stats;
}

}  // namespace mic::ctrl
