#include "ctrl/l3_routing.hpp"

namespace mic::ctrl {

namespace {

const std::unordered_set<topo::LinkId> kNoFailures;

/// Scratch buffers reused across every (switch, host) pair of an install
/// sweep, so the inner loop stays allocation-free.
struct NextHopScratch {
  std::vector<std::pair<topo::NodeId, topo::PortId>> candidates;
  std::vector<topo::PortId> ports;
  std::vector<std::pair<topo::NodeId, topo::PortId>> local_hosts;
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
  const std::uint32_t d = paths.distance(sw, dst);
  if (d == topo::PathEngine::kUnreachable) return;

  for (const auto& adj : graph.neighbors(sw)) {
    if (failed.contains(adj.link)) continue;
    const bool on_shortest =
        adj.peer == dst ||
        (graph.is_switch(adj.peer) && paths.distance(adj.peer, dst) == d - 1);
    if (on_shortest) scratch.candidates.push_back({adj.peer, adj.local_port});
  }
  std::sort(scratch.candidates.begin(), scratch.candidates.end());
  for (const auto& [peer, port] : scratch.candidates) {
    scratch.ports.push_back(port);
  }
}

/// Hosts attached directly to `sw` over live links (it is their edge
/// switch); fills scratch.local_hosts.
void collect_local_hosts(const Controller& controller, topo::NodeId sw,
                         const std::unordered_set<topo::LinkId>& failed,
                         NextHopScratch& scratch) {
  scratch.local_hosts.clear();
  const auto& graph = controller.graph();
  for (const auto& adj : graph.neighbors(sw)) {
    if (graph.is_host(adj.peer) && !failed.contains(adj.link)) {
      scratch.local_hosts.push_back({adj.peer, adj.local_port});
    }
  }
}

/// Signature of the rule set `sw` would receive under `failed`: hashes the
/// live local-host attachments and the per-destination next-hop port sets
/// (everything install_switch_rules derives rules from, label policy and
/// addressing being stable).  Equal signatures => identical rule sets.
std::uint64_t switch_signature(const Controller& controller, topo::NodeId sw,
                               const std::vector<topo::NodeId>& hosts,
                               const std::unordered_set<topo::LinkId>& failed,
                               NextHopScratch& scratch) {
  const topo::PathEngine& paths = controller.paths();
  collect_local_hosts(controller, sw, failed, scratch);

  std::uint64_t h = 0xa7c15ULL;
  for (const auto& [host, port] : scratch.local_hosts) {
    h = mix(h, (static_cast<std::uint64_t>(host) << 32) | port);
  }
  for (std::size_t dst_index = 0; dst_index < hosts.size(); ++dst_index) {
    const topo::NodeId dst = hosts[dst_index];
    bool is_local = false;
    for (const auto& [host, port] : scratch.local_hosts) {
      if (host == dst) {
        h = mix(h, (static_cast<std::uint64_t>(dst_index) << 32) | 0x10000u |
                       port);
        is_local = true;
        break;
      }
    }
    if (is_local) continue;
    next_hop_ports(controller, paths, sw, dst, failed, scratch);
    if (scratch.ports.empty()) continue;  // unreachable: no rules, no hash
    h = mix(h, (static_cast<std::uint64_t>(dst_index) << 32) |
                   scratch.ports.size());
    for (const topo::PortId port : scratch.ports) h = mix(h, port);
  }
  return h;
}

/// Install `sw`'s complete L3 rule set; returns rules + groups issued.
std::uint64_t install_switch_rules(
    Controller& controller, const L3RoutingApp::CfLabelPolicy& policy,
    const std::unordered_set<topo::LinkId>& failed, topo::NodeId sw,
    const std::vector<topo::NodeId>& hosts, NextHopScratch& scratch) {
  const topo::PathEngine& paths = controller.paths();
  collect_local_hosts(controller, sw, failed, scratch);
  std::uint64_t installed = 0;

  for (std::size_t dst_index = 0; dst_index < hosts.size(); ++dst_index) {
    const topo::NodeId dst = hosts[dst_index];
    const net::Ipv4 dst_ip = controller.addressing().ip_of(dst);

    // Egress: deliver to an attached host, stripping the CF tag.
    bool is_local = false;
    for (const auto& [host, port] : scratch.local_hosts) {
      if (host == dst) {
        switchd::FlowRule rule;
        rule.priority = kPriorityEgress;
        rule.match.dst = dst_ip;
        rule.actions = {switchd::PopMpls{}, switchd::Output{port}};
        rule.cookie = kL3Cookie;
        controller.install_rule(sw, std::move(rule), /*immediate=*/true);
        ++installed;
        is_local = true;
        break;
      }
    }
    if (is_local) continue;

    next_hop_ports(controller, paths, sw, dst, failed, scratch);
    const auto& ports = scratch.ports;
    if (ports.empty()) continue;  // unreachable after failures

    // With multiple equal-cost next hops install a SELECT group (ECMP,
    // hashing the 5-tuple), otherwise plain output.
    switchd::Action forward_action = switchd::Output{ports[0]};
    if (ports.size() > 1) {
      switchd::GroupEntry group;
      // L3 group ids live in the high range so they can never collide
      // with the Mimic Controller's multicast groups.
      group.group_id = 0x80000000u | static_cast<std::uint32_t>(dst_index);
      group.type = switchd::GroupType::kSelect;
      group.cookie = kL3Cookie;
      for (const topo::PortId port : ports) {
        group.buckets.push_back({switchd::Output{port}});
      }
      const std::uint32_t group_id = group.group_id;
      controller.install_group(sw, std::move(group), /*immediate=*/true);
      ++installed;
      forward_action = switchd::GroupAction{group_id};
    }

    // Transit: forward on destination alone, any label state.
    {
      switchd::FlowRule rule;
      rule.priority = kPriorityTransit;
      rule.match.dst = dst_ip;
      rule.actions = {forward_action};
      rule.cookie = kL3Cookie;
      controller.install_rule(sw, std::move(rule), /*immediate=*/true);
      ++installed;
    }

    // Ingress tagging: traffic entering fresh from an attached host gets
    // a CF label before leaving the edge.
    for (const auto& [src_host, host_port] : scratch.local_hosts) {
      const net::MplsLabel label = policy(src_host);
      MIC_ASSERT_MSG(label != net::kNoMpls, "CF label must be non-zero");
      switchd::FlowRule rule;
      rule.priority = kPriorityIngressTag;
      rule.match.in_port = host_port;
      rule.match.dst = dst_ip;
      rule.match.require_no_mpls = true;
      rule.actions = {switchd::SetMpls{label}, forward_action};
      rule.cookie = kL3Cookie;
      controller.install_rule(sw, std::move(rule), /*immediate=*/true);
      ++installed;
    }
  }
  return installed;
}

/// True when `sw` holds at least one L3-cookie rule (a rebooted switch's
/// empty table must be refilled even if its signature never changed).
bool has_l3_rules(Controller& controller, topo::NodeId sw) {
  return controller.switch_at(sw)->table().has_cookie(kL3Cookie);
}

}  // namespace

void L3RoutingApp::install(Controller& controller, CfLabelPolicy policy) {
  const auto hosts = controller.graph().hosts();
  NextHopScratch scratch;
  auto& signatures = controller.l3_signatures();
  signatures.clear();
  for (const topo::NodeId sw : controller.graph().switches()) {
    signatures[sw] =
        switch_signature(controller, sw, hosts, kNoFailures, scratch);
    install_switch_rules(controller, policy, kNoFailures, sw, hosts, scratch);
  }
}

void L3RoutingApp::adopt(Controller& controller) {
  const auto hosts = controller.graph().hosts();
  NextHopScratch scratch;
  auto& signatures = controller.l3_signatures();
  signatures.clear();
  for (const topo::NodeId sw : controller.graph().switches()) {
    signatures[sw] =
        switch_signature(controller, sw, hosts, kNoFailures, scratch);
  }
}

RerouteStats L3RoutingApp::reroute_around(
    Controller& controller, CfLabelPolicy policy,
    const std::unordered_set<topo::LinkId>& failed) {
  // Sync the engine's failure epochs with the caller's failure set: newly
  // failed links invalidate only the rows whose shortest-path DAG used
  // them (sub-linear), instead of rebuilding the whole table.
  controller.path_engine().set_failed_links(failed);

  RerouteStats stats;
  stats.reroutes = 1;
  const auto hosts = controller.graph().hosts();
  NextHopScratch scratch;
  auto& signatures = controller.l3_signatures();

  for (const topo::NodeId sw : controller.graph().switches()) {
    ++stats.switches_scanned;
    const std::uint64_t sig =
        switch_signature(controller, sw, hosts, failed, scratch);
    const auto it = signatures.find(sw);
    if (it != signatures.end() && it->second == sig &&
        has_l3_rules(controller, sw)) {
      ++stats.switches_skipped;
      continue;
    }
    controller.remove_cookie(sw, kL3Cookie, /*immediate=*/true);
    stats.rules_installed +=
        install_switch_rules(controller, policy, failed, sw, hosts, scratch);
    signatures[sw] = sig;
    ++stats.switches_reinstalled;
  }
  return stats;
}

}  // namespace mic::ctrl
