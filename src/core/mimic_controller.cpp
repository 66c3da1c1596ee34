#include "core/mimic_controller.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <numeric>

#include "common/log.hpp"

namespace mic::core {

namespace {
constexpr int kMaxEndpointTries = 4096;
constexpr int kMaxRouteTries = 64;

/// Establishment and repair install rules transactionally: a rejected or
/// lost flow-mod rolls the partial install back and the whole rule set is
/// retried, up to this many attempts, before the channel is abandoned.
constexpr int kInstallRetryLimit = 5;
/// Capped exponential backoff between install attempts (plus seeded
/// jitter): attempt k waits base * 2^(k-1), clamped to the cap.
constexpr sim::SimTime kInstallBackoffBase = sim::microseconds(500);
constexpr sim::SimTime kInstallBackoffCap = sim::milliseconds(8);

std::uint64_t endpoint_key(net::Ipv4 a, net::L4Port pa, net::Ipv4 b,
                           net::L4Port pb) {
  std::uint64_t state = (static_cast<std::uint64_t>(a.value) << 32) | b.value;
  state ^= (static_cast<std::uint64_t>(pa) << 16) ^ pb;
  return splitmix64(state);
}

/// A plan's two endpoint reservations: the entry address the initiator
/// sends to, and the presented address the responder sees.
std::array<std::uint64_t, 2> endpoint_keys(const MFlowPlan& plan) {
  const MTuple& entry = plan.forward.front();
  const MTuple& presented = plan.forward.back();
  return {endpoint_key(entry.src, 0, entry.dst, entry.dport),
          endpoint_key(presented.src, presented.sport, presented.dst,
                       presented.dport)};
}

/// The reverse direction of a plan: its path walked backwards, and the MN
/// positions on that reversed path, ascending.
struct ReversedRoute {
  topo::Path path;
  std::vector<std::size_t> mn_positions;
};

ReversedRoute reversed(const MFlowPlan& plan) {
  ReversedRoute route{topo::Path(plan.path.rbegin(), plan.path.rend()), {}};
  route.mn_positions.reserve(plan.mn_positions.size());
  for (const std::size_t pos : plan.mn_positions) {
    route.mn_positions.push_back(plan.path.size() - 1 - pos);
  }
  std::sort(route.mn_positions.begin(), route.mn_positions.end());
  return route;
}

/// The live channels with at least one m-flow for which `hit(plan)` holds,
/// in ID order: channels_ is unordered, and repairing in ID order keeps the
/// rng_ draws -- and with them the whole run -- deterministic (SIM-1).
template <typename Hit>
std::vector<ChannelId> channels_hit(
    const std::unordered_map<ChannelId, ChannelState>& channels, Hit hit) {
  std::vector<ChannelId> ids;
  for (const auto& [id, state] : channels) {
    if (std::ranges::any_of(state.flows, hit)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}
}  // namespace

MimicController::MimicController(net::Network& network,
                                 ctrl::HostAddressing addressing,
                                 std::uint64_t seed, MicConfig mic_config,
                                 ctrl::ControllerConfig ctrl_config)
    : ctrl::Controller(network, std::move(addressing), ctrl_config),
      mic_config_(mic_config),
      seed_(seed),
      rng_(seed),
      registry_(mic_config.shared_secret_seed != 0
                    ? Rng(mic_config.shared_secret_seed)
                    : rng_.fork(),
                mic_config.flow_ids),
      restrictions_(network.graph(), paths(), Controller::addressing()),
      admission_(network.simulator(), mic_config.admission) {
  // Namespacing for co-deployed controllers: channel IDs (and therefore
  // rule cookies) and group IDs never collide across instances, nor with
  // the default routing's groups.
  MIC_ASSERT_MSG(mic_config_.instance_id < (ctrl::kL3GroupBase >> 24),
                 "instance_id must be below 128: its group IDs would "
                 "overlap the L3 ECMP groups");
  next_channel_ =
      (static_cast<ChannelId>(mic_config_.instance_id) << 32) + 1;
  next_group_ = (mic_config_.instance_id << 24) + 1;
  journal_.set_compaction_threshold(mic_config_.journal_compaction_threshold);
  // First controller generation.  Every southbound op is stamped with the
  // journal epoch; recoveries and takeovers bump it (see recover()).
  journal_.set_epoch(1);
  set_fence_epoch(1);

  // Every switch is a potential MN (paper: "Any switches in the network are
  // potential MNs"), so all get MAGA state up front.
  for (const topo::NodeId sw : graph().switches()) {
    registry_.register_switch(sw);
  }
}

void MimicController::install_default_routing() {
  // With no recorded signature, the reroute reinstalls every switch.
  l3_signatures().clear();
  default_routing_installed_ = true;
  reroute_default_routing();
}

net::MplsLabel MimicController::cf_label_for(topo::NodeId host) {
  const auto it = cf_labels_.find(host);
  if (it != cf_labels_.end()) return it->second;
  const net::MplsLabel label = registry_.sample_cf_label();
  cf_labels_.emplace(host, label);
  return label;
}

void MimicController::register_hidden_service(const std::string& name,
                                              net::Ipv4 ip,
                                              net::L4Port port) {
  hidden_services_[name] = {ip, port};
}

const crypto::Aes128::Key& MimicController::register_client(net::Ipv4 client) {
  auto it = client_keys_.find(client.value);
  if (it != client_keys_.end()) return it->second;
  // The paper prescribes a one-time asymmetric exchange (RSA or D-H); we
  // charge the MC its side of the exchange and derive the key.
  mc_cpu_.charge(network().simulator().now(),
                 2 * crypto::default_cost_model().dh_modexp_cycles);
  crypto::Aes128::Key key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng_.next());
  return client_keys_.emplace(client.value, key).first->second;
}

// --- planning helpers ---------------------------------------------------------

bool MimicController::failure_hits(
    const topo::Path& path, std::span<const DecoyPlan> decoys,
    const std::unordered_set<topo::LinkId>& links,
    const std::unordered_set<topo::NodeId>& switches) const {
  if (links.empty() && switches.empty()) return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (links.contains(graph().link_between(path[i], path[i + 1]))) {
      return true;
    }
  }
  const auto dead = [&switches](topo::NodeId sw) {
    return switches.contains(sw);
  };
  return std::ranges::any_of(path, dead) ||
         std::ranges::any_of(decoys, dead, &DecoyPlan::next_switch);
}

bool MimicController::sample_route_and_positions(const PlanContext& ctx,
                                                 std::size_t n,
                                                 MFlowPlan& out,
                                                 std::string& error) {
  if (!paths().reachable(ctx.initiator, ctx.responder)) {
    error = "responder unreachable";
    return false;
  }

  // Build into locals and commit only on success, so a failed replan
  // leaves the plan's previous route intact for resource release.
  topo::Path route;
  for (int attempt = 0; attempt < kMaxRouteTries; ++attempt) {
    topo::Path candidate;
    if (paths().switch_hops(ctx.initiator, ctx.responder) >= n) {
      candidate =
          paths().sample_shortest_path(ctx.initiator, ctx.responder, rng_);
    } else {
      auto longer =
          paths().sample_long_path(ctx.initiator, ctx.responder,
                                   static_cast<std::uint32_t>(n), rng_);
      if (!longer) continue;
      candidate = std::move(*longer);
    }
    if (failure_hits(candidate, {}, failed_links(), failed_switches_)) {
      continue;
    }
    route = std::move(candidate);
    break;
  }
  if (route.empty()) {
    error = "no usable path with the requested MN count";
    return false;
  }

  const std::size_t sw_count = route.size() - 2;
  MIC_ASSERT(sw_count >= n);
  std::vector<std::size_t> positions(sw_count);
  for (std::size_t i = 0; i < sw_count; ++i) positions[i] = i + 1;
  rng_.shuffle(positions);
  positions.resize(n);
  std::sort(positions.begin(), positions.end());
  out.path = std::move(route);
  out.mn_positions = std::move(positions);
  return true;
}

void MimicController::generate_middle_tuples(const PlanContext& ctx,
                                             MFlowPlan& plan) {
  // Intermediate m-addresses never display the real endpoints: a middle
  // vantage must see *neither* participant (Sec V).  Falls back to the raw
  // restriction set only if filtering would empty it.
  const auto hide_endpoints = [&ctx](const std::vector<net::Ipv4>& in) {
    std::vector<net::Ipv4> out;
    for (const net::Ipv4 ip : in) {
      if (ip != ctx.initiator_ip && ip != ctx.responder_ip) out.push_back(ip);
    }
    return out.empty() ? in : out;
  };

  // Hops 1..N-1 of one direction, each drawn at the MN that rewrites to it.
  const auto fill = [&](const topo::Path& path,
                        const std::vector<std::size_t>& mn_positions,
                        std::vector<MTuple>& hops) {
    for (std::size_t j = 1; j < mn_positions.size(); ++j) {
      const std::size_t pos = mn_positions[j - 1];
      const topo::NodeId mn = path[pos];
      const topo::PortId egress = graph().port_towards(mn, path[pos + 1]);
      hops[j] = registry_.generate(
          mn, plan.flow_id,
          hide_endpoints(restrictions_.allowed_src(mn, egress)),
          hide_endpoints(restrictions_.allowed_dst(mn, egress)));
    }
  };
  fill(plan.path, plan.mn_positions, plan.forward);
  const ReversedRoute back = reversed(plan);
  fill(back.path, back.mn_positions, plan.reverse);
}

bool MimicController::generate_decoys(int count, MFlowPlan& plan,
                                      std::string& error) {
  if (count <= 0 || plan.mn_positions.empty()) return true;
  const auto& g = graph();
  const std::size_t first_pos = plan.mn_positions[0];
  const topo::NodeId first_mn = plan.path[first_pos];
  const topo::PortId real_egress =
      g.port_towards(first_mn, plan.path[first_pos + 1]);
  const topo::PortId ingress =
      g.port_towards(first_mn, plan.path[first_pos - 1]);

  std::vector<const topo::Adjacency*> decoy_ports;
  for (const auto& adj : g.neighbors(first_mn)) {
    if (adj.local_port != real_egress && adj.local_port != ingress &&
        g.is_switch(adj.peer)) {
      decoy_ports.push_back(&adj);
    }
  }
  if (decoy_ports.empty()) {
    MIC_LOG_WARN("channel: first MN %u has no spare switch ports for decoys",
                 first_mn);
    return true;
  }
  for (int d = 0; d < count; ++d) {
    const auto& adj =
        *decoy_ports[static_cast<std::size_t>(d) % decoy_ports.size()];
    DecoyPlan decoy;
    decoy.flow_id = registry_.allocate_flow_id();
    if (decoy.flow_id == kInvalidFlowId) {
      error = "m-flow ID range exhausted";
      return false;
    }
    decoy.tuple = registry_.generate(
        first_mn, decoy.flow_id,
        restrictions_.allowed_src(first_mn, adj.local_port),
        restrictions_.allowed_dst(first_mn, adj.local_port));
    decoy.out_port = adj.local_port;
    decoy.next_switch = adj.peer;
    decoy.next_in_port = adj.peer_port;
    plan.decoys.push_back(decoy);
  }
  return true;
}

template <typename Key>
std::optional<std::pair<net::Ipv4, net::L4Port>>
MimicController::draw_endpoint(const PlanContext& ctx,
                               const std::vector<net::Ipv4>& plausible,
                               net::Ipv4 owner, Key key) {
  std::vector<net::Ipv4> candidates;
  for (const net::Ipv4 ip : plausible) {
    if (ip != ctx.initiator_ip && ip != ctx.responder_ip) {
      candidates.push_back(ip);
    }
  }
  if (candidates.empty()) {
    for (const topo::NodeId h : graph().hosts()) {
      const net::Ipv4 ip = addressing().ip_of(h);
      if (ip != owner) candidates.push_back(ip);
    }
  }
  MIC_ASSERT_MSG(!candidates.empty(), "no endpoint-address candidates");
  for (int attempt = 0; attempt < kMaxEndpointTries; ++attempt) {
    const net::Ipv4 ip = candidates[rng_.below(candidates.size())];
    const auto port = static_cast<net::L4Port>(rng_.range(1024, 65535));
    if (reserved_endpoints_.insert(key(ip, port)).second) {
      return std::pair{ip, port};
    }
  }
  return std::nullopt;
}

bool MimicController::plan_mflow(const PlanContext& ctx, int mn_count,
                                 net::L4Port initiator_sport, int decoys,
                                 MFlowPlan& out, std::string& error) {
  const auto& g = graph();
  const std::size_t n = static_cast<std::size_t>(mn_count);

  out.flow_id = registry_.allocate_flow_id();
  if (out.flow_id == kInvalidFlowId) {
    error = "m-flow ID range exhausted";
    return false;
  }
  if (!sample_route_and_positions(ctx, n, out, error)) {
    registry_.release_flow_id(out.flow_id);
    return false;
  }

  // Entry address: plausible at the first link the packet takes out of the
  // edge switch.
  const topo::NodeId first_sw = out.path[1];
  const topo::PortId first_egress = g.port_towards(first_sw, out.path[2]);
  const auto entry = draw_endpoint(
      ctx, restrictions_.allowed_dst(first_sw, first_egress), ctx.initiator_ip,
      [&ctx](net::Ipv4 ip, net::L4Port port) {
        return endpoint_key(ctx.initiator_ip, 0, ip, port);
      });
  if (!entry) {
    registry_.release_flow_id(out.flow_id);
    error = "entry address space exhausted";
    return false;
  }
  const auto [entry_ip, entry_port] = *entry;

  // Presented (final) address: plausible at the last MN's egress.
  const std::size_t last_pos = out.mn_positions[n - 1];
  const topo::NodeId last_mn = out.path[last_pos];
  const topo::PortId last_egress =
      g.port_towards(last_mn, out.path[last_pos + 1]);
  const auto presented = draw_endpoint(
      ctx, restrictions_.allowed_src(last_mn, last_egress), ctx.responder_ip,
      [&ctx](net::Ipv4 ip, net::L4Port port) {
        return endpoint_key(ip, port, ctx.responder_ip, ctx.responder_port);
      });
  if (!presented) {
    registry_.release_flow_id(out.flow_id);
    reserved_endpoints_.erase(
        endpoint_key(ctx.initiator_ip, 0, entry_ip, entry_port));
    error = "presented address space exhausted";
    return false;
  }

  out.forward.resize(n + 1);
  out.reverse.resize(n + 1);
  out.forward[0] = {ctx.initiator_ip, entry_ip, initiator_sport, entry_port,
                    net::kNoMpls};
  out.forward[n] = {presented->first, ctx.responder_ip, presented->second,
                    ctx.responder_port, net::kNoMpls};
  out.reverse[0] = {ctx.responder_ip, out.forward[n].src, ctx.responder_port,
                    out.forward[n].sport, net::kNoMpls};
  out.reverse[n] = {entry_ip, ctx.initiator_ip, entry_port, initiator_sport,
                    net::kNoMpls};

  generate_middle_tuples(ctx, out);
  if (!generate_decoys(decoys, out, error)) {
    walk_holdings(out, Holdings::kRelease);
    return false;
  }
  return true;
}

bool MimicController::replan_flow(const PlanContext& ctx, MFlowPlan& plan,
                                  std::string& error) {
  const std::size_t n = plan.mn_positions.size();

  // Release the middle tuples and decoys of the old route; the endpoint
  // addresses, ports and flow ID stay -- the transport connection must not
  // notice the migration.
  walk_holdings(plan, Holdings::kReleaseRoute);
  const int decoy_count = static_cast<int>(plan.decoys.size());
  plan.decoys.clear();

  if (!sample_route_and_positions(ctx, n, plan, error)) return false;
  generate_middle_tuples(ctx, plan);
  return generate_decoys(decoy_count, plan, error);
}

void MimicController::install_direction(
    ChannelId id, const topo::Path& path,
    const std::vector<std::size_t>& mn_positions,
    const std::vector<MTuple>& hops,
    const std::vector<DecoyPlan>& decoys, std::vector<InstallOp>& ops,
    std::uint32_t& group_alloc) const {
  const auto& g = graph();
  const std::size_t n = mn_positions.size();

  auto make_match = [&](const MTuple& hop, topo::PortId in_port) {
    switchd::Match match;
    match.in_port = in_port;
    match.src = hop.src;
    match.dst = hop.dst;
    match.sport = hop.sport;
    match.dport = hop.dport;
    match.mpls = hop.mpls;  // kNoMpls on the first segment: untagged
    // Every m-flow rule must stay fully specified so it lands in the
    // switches' all-fields subtable -- per-packet cost must not grow with
    // the number of channels (the Fig. 9 scaling argument).
    MIC_ASSERT_MSG(match.is_exact(), "m-flow match left a wildcard field");
    return match;
  };
  auto rewrite_actions = [&](const MTuple& to) {
    std::vector<switchd::Action> actions;
    actions.push_back(switchd::SetSrc{to.src});
    actions.push_back(switchd::SetDst{to.dst});
    actions.push_back(switchd::SetSport{to.sport});
    actions.push_back(switchd::SetDport{to.dport});
    if (to.mpls == net::kNoMpls) {
      actions.push_back(switchd::PopMpls{});
    } else {
      actions.push_back(switchd::SetMpls{to.mpls});
    }
    return actions;
  };

  for (std::size_t t = 1; t + 1 < path.size(); ++t) {
    const topo::NodeId sw = path[t];
    const topo::PortId in_port = g.port_towards(sw, path[t - 1]);
    const topo::PortId egress = g.port_towards(sw, path[t + 1]);

    // Segment index carried into this switch.
    std::size_t seg = 0;
    while (seg < n && mn_positions[seg] < t) ++seg;
    const bool is_mn = seg < n && mn_positions[seg] == t;

    switchd::FlowRule rule;
    rule.priority = ctrl::kPriorityMFlow;
    rule.cookie = id;
    rule.match = make_match(hops[seg], in_port);

    if (!is_mn) {
      rule.actions = {switchd::Output{egress}};
      ops.push_back({sw, std::move(rule)});
      continue;
    }

    auto actions = rewrite_actions(hops[seg + 1]);
    actions.push_back(switchd::Output{egress});

    if (seg == 0 && !decoys.empty()) {
      // Partially-multicast: an ALL group replicates the packet with
      // different m-addresses out different ports; only the real copy
      // survives its next hop.
      switchd::GroupEntry group;
      group.group_id = group_alloc++;
      group.type = switchd::GroupType::kAll;
      group.cookie = id;
      group.buckets.push_back(std::move(actions));
      for (const DecoyPlan& decoy : decoys) {
        auto bucket = rewrite_actions(decoy.tuple);
        bucket.push_back(switchd::Output{decoy.out_port});
        group.buckets.push_back(std::move(bucket));

        // The decoy dies at its next hop.
        switchd::FlowRule drop;
        drop.priority = ctrl::kPriorityDecoyDrop;
        drop.cookie = id;
        drop.match = make_match(decoy.tuple, decoy.next_in_port);
        drop.actions = {switchd::DropAction{}};
        ops.push_back({decoy.next_switch, std::move(drop)});
      }
      // The group precedes the rule that references it; commits preserve
      // op order, so the reference is never dangling.
      ops.push_back({sw, std::move(group)});
      rule.actions = {switchd::GroupAction{group_alloc - 1}};
    } else {
      rule.actions = std::move(actions);
    }
    ops.push_back({sw, std::move(rule)});
  }
}

void MimicController::install_flow(ChannelId id, const MFlowPlan& plan,
                                   std::vector<InstallOp>& ops,
                                   std::uint32_t& group_alloc) const {
  install_direction(id, plan.path, plan.mn_positions, plan.forward,
                    plan.decoys, ops, group_alloc);
  const ReversedRoute back = reversed(plan);
  install_direction(id, back.path, back.mn_positions, plan.reverse, {}, ops,
                    group_alloc);
}

std::vector<topo::NodeId> MimicController::touched_switches(
    const std::vector<InstallOp>& ops) const {
  std::vector<topo::NodeId> nodes;
  nodes.reserve(ops.size());
  for (const InstallOp& op : ops) nodes.push_back(op.sw);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

bool MimicController::commit_now(std::uint64_t cookie,
                                 const std::vector<InstallOp>& ops) {
  for (const InstallOp& op : ops) {
    if (!install_now(op.sw, op.payload)) {
      for (const topo::NodeId sw : touched_switches(ops)) {
        remove_cookie(sw, cookie, /*immediate=*/true);
      }
      return false;
    }
  }
  return true;
}

sim::SimTime MimicController::retry_delay(int attempt) {
  return ctrl::kSouthboundLatency +
         capped_backoff(kInstallBackoffBase, kInstallBackoffCap, attempt,
                        rng_);
}

void MimicController::commit_async(ChannelId id, std::uint64_t txn,
                                   std::vector<InstallOp> ops,
                                   std::function<void(bool)> on_done,
                                   int attempt) {
  {
    const auto it = channels_.find(id);
    if (it == channels_.end() || it->second.install_txn != txn) {
      // Torn down or superseded since this commit (or retry) was issued;
      // the cookie's current owner manages the rules now.
      on_done(false);
      return;
    }
  }
  if (ops.empty()) {
    on_done(true);
    return;
  }

  struct Txn {
    std::vector<InstallOp> ops;
    std::function<void(bool)> on_done;
    std::size_t pending = 0;
    bool failed = false;
  };
  auto txn_state = std::make_shared<Txn>();
  txn_state->ops = std::move(ops);
  txn_state->on_done = std::move(on_done);
  txn_state->pending = txn_state->ops.size();

  auto settle = [this, id, txn, txn_state, attempt](bool ok) {
    if (!ok) txn_state->failed = true;
    if (--txn_state->pending != 0) return;
    if (!txn_state->failed) {
      txn_state->on_done(true);
      return;
    }
    const auto it = channels_.find(id);
    if (it == channels_.end() || it->second.install_txn != txn) {
      txn_state->on_done(false);
      return;
    }
    // All-or-nothing: pull whatever landed before trying again.  A lost
    // reply may have left its rule installed; rollback-by-cookie makes the
    // retry start from a clean slate either way.
    for (const topo::NodeId sw : touched_switches(txn_state->ops)) {
      remove_cookie(sw, id, /*immediate=*/false);
    }
    if (attempt >= kInstallRetryLimit) {
      txn_state->on_done(false);
      return;
    }
    ++install_retries_;
    network().simulator().schedule_in(
        retry_delay(attempt), [this, id, txn, txn_state, attempt] {
          commit_async(id, txn, std::move(txn_state->ops),
                       std::move(txn_state->on_done), attempt + 1);
        });
  };

  for (const InstallOp& op : txn_state->ops) {
    install_checked(op.sw, op.payload, settle);
  }
}

MimicController::PlanContext MimicController::context_of(
    const ChannelState& state) const {
  PlanContext ctx;
  ctx.initiator = state.initiator;
  ctx.responder = state.responder;
  const MFlowPlan& first = state.flows.front();
  ctx.initiator_ip = first.forward.front().src;
  ctx.responder_ip = first.forward.back().dst;
  ctx.responder_port = first.forward.back().dport;
  return ctx;
}

EstablishResult MimicController::plan_channel(const EstablishRequest& request,
                                              std::vector<InstallOp>& ops) {
  ++requests_;
  EstablishResult result;

  PlanContext ctx;
  ctx.initiator_ip = request.initiator_ip;
  if (!request.service_name.empty()) {
    const auto it = hidden_services_.find(request.service_name);
    if (it == hidden_services_.end()) {
      result.error = "unknown hidden service: " + request.service_name;
      return result;
    }
    ctx.responder_ip = it->second.first;
    ctx.responder_port = it->second.second;
  } else {
    ctx.responder_ip = request.responder_ip;
    ctx.responder_port = request.responder_port;
  }
  ctx.initiator = addressing().host_of(ctx.initiator_ip);
  ctx.responder = addressing().host_of(ctx.responder_ip);
  if (ctx.initiator == topo::kInvalidNode ||
      ctx.responder == topo::kInvalidNode) {
    result.error = "unknown initiator or responder address";
    return result;
  }
  if (ctx.initiator == ctx.responder) {
    result.error = "initiator and responder must differ";
    return result;
  }
  if (request.flow_count < 1 || request.mn_count < 1 ||
      request.initiator_sports.size() !=
          static_cast<std::size_t>(request.flow_count)) {
    result.error = "malformed request (F, N, or source ports)";
    return result;
  }

  ChannelState state;
  state.id = next_channel_++;
  state.initiator = ctx.initiator;
  state.responder = ctx.responder;

  for (int f = 0; f < request.flow_count; ++f) {
    MFlowPlan plan;
    std::string error;
    if (!plan_mflow(ctx, request.mn_count,
                    request.initiator_sports[static_cast<std::size_t>(f)],
                    request.multicast_decoys, plan, error)) {
      for (const MFlowPlan& planned : state.flows) {
        walk_holdings(planned, Holdings::kRelease);
      }
      result.error = error;
      return result;
    }
    state.flows.push_back(std::move(plan));
  }

  std::vector<InstallOp> planned;
  for (const MFlowPlan& plan : state.flows) {
    install_flow(state.id, plan, planned, next_group_);
  }
  state.touched_switches = touched_switches(planned);
  state.install_txn = 1;

  result.ok = true;
  result.channel = state.id;
  for (const MFlowPlan& plan : state.flows) {
    result.entries.push_back({plan.forward[0].dst, plan.forward[0].dport});
  }
  // Write-ahead: the journal learns the channel before any rule reaches a
  // switch, so a crash mid-commit recovers to "journal ahead of switches"
  // and the resync reinstalls (never the unrecoverable inverse).
  journal_.record_establish(state, next_channel_, next_group_);
  channels_.emplace(state.id, std::move(state));
  ops = std::move(planned);
  return result;
}

EstablishResult MimicController::establish(const EstablishRequest& request) {
  if (crashed_) {
    EstablishResult down;
    down.error = "controller unavailable";
    return down;
  }
  const ctrl::AdmissionController::Ticket ticket =
      admission_.offer_sync(request.initiator_ip);
  if (!ticket.admitted) return busy_result(ticket.retry_after);
  std::vector<InstallOp> ops;
  EstablishResult result = plan_channel(request, ops);
  if (!result.ok) return result;
  if (!commit_now(result.channel, ops)) {
    // commit_now already pulled the partial install.
    drop_channel(result.channel, RuleRemoval::kSkip);
    EstablishResult failed;
    failed.error = "rule install rejected; channel rolled back";
    return failed;
  }
  return result;
}

void MimicController::async_establish(
    net::Ipv4 client, std::vector<std::uint8_t> encrypted_request,
    std::uint64_t message_counter,
    std::function<void(EstablishResult)> on_result,
    ctrl::AdmitPriority priority) {
  if (crashed_) return;  // a dead MC answers nothing, not even errors
  auto& simulator = network().simulator();
  simulator.schedule_in(
      mic_config_.control_latency,
      [this, client, priority, enc = std::move(encrypted_request),
       message_counter, cb = std::move(on_result)]() mutable {
        if (crashed_) return;  // crashed while the request was in flight
        // Admission happens on arrival, before any decrypt CPU is spent --
        // the tenant (the client address) and the priority class are
        // transport-level facts, so a shed request costs the MC nothing
        // but the Busy reply.  Exactly one of run/shed fires, so sharing
        // the callback is safe.
        auto shared_cb =
            std::make_shared<std::function<void(EstablishResult)>>(
                std::move(cb));
        admission_.offer(
            client, priority,
            /*run=*/
            [this, client, enc = std::move(enc), message_counter,
             shared_cb]() mutable {
              service_establish(client, std::move(enc), message_counter,
                                std::move(*shared_cb));
            },
            /*shed=*/
            [this, shared_cb](sim::SimTime retry_after) {
              network().simulator().schedule_in(
                  mic_config_.control_latency,
                  [shared_cb, retry_after] {
                    (*shared_cb)(busy_result(retry_after));
                  });
            });
      });
}

void MimicController::service_establish(
    net::Ipv4 client, std::vector<std::uint8_t> bytes,
    std::uint64_t message_counter,
    std::function<void(EstablishResult)> on_result) {
  // An unregistered client, a request that does not parse, or one that
  // names another host as its initiator is answered with an error through
  // the same reply path as a planning failure.  Planning trusts
  // initiator_ip, so a client may only establish in its own name.
  const auto key_it = client_keys_.find(client.value);
  std::optional<EstablishRequest> request;
  const char* reject = "unknown client; register before establishing";
  if (key_it != client_keys_.end()) {
    crypt_control_message(key_it->second, message_counter, bytes);
    request = deserialize_request(bytes);
    reject = "malformed request";
    if (request && request->initiator_ip != client) {
      request.reset();
      reject = "initiator address is not the requesting client";
    }
  }
  // The admission service slot is held until the ack (or error) leaves:
  // in-service covers the whole plan/install pipeline.  The epoch guard
  // keeps a completion that straddles a crash from corrupting the books
  // of the next MC life.
  const std::uint64_t admit_epoch = admission_.epoch();
  auto cb = std::move(on_result);

  const auto& costs = crypto::default_cost_model();
  const double cycles =
      costs.mic_request_fixed_cycles +
      costs.aes_crypt_cycles(bytes.size()) +
      costs.mic_route_calc_cycles_per_flow *
          (request ? request->flow_count : 0);
  const sim::SimTime done =
      mc_cpu_.charge(network().simulator().now(), cycles);

  // Mutable, so the callback below is moved on, not copied.
  network().simulator().schedule_at(done, [this, client, reject,
                                           request = std::move(request),
                                           admit_epoch,
                                           cb = std::move(cb)]() mutable {
    if (crashed_) return;
    std::vector<InstallOp> ops;
    EstablishResult result;
    if (request) {
      result = plan_channel(*request, ops);
    } else {
      result.error = reject;
    }
    if (!result.ok) {
      admission_.finish(client, admit_epoch);
      network().simulator().schedule_in(
          ctrl::kSouthboundLatency + mic_config_.control_latency,
          [cb = std::move(cb), result = std::move(result)] {
            cb(result);
          });
      return;
    }
    // The acknowledgement leaves once every rule is confirmed (an
    // install that fails after retries rolls the channel back and
    // turns the ack into an error).
    const ChannelId id = result.channel;
    commit_async(
        id, /*txn=*/1, std::move(ops),
        [this, client, id, admit_epoch, result = std::move(result),
         cb = std::move(cb)](bool committed) mutable {
          if (crashed_) return;  // true silence: the client times out
          admission_.finish(client, admit_epoch);
          const auto it = channels_.find(id);
          const bool alive = it != channels_.end();
          const bool current =
              alive && it->second.install_txn == 1;
          if (!committed && current) {
            // The failed commit already pulled its rules.
            drop_channel(id, RuleRemoval::kSkip);
            listeners_.erase(id);
            result = EstablishResult{};
            result.error = "rule install failed after retries";
          } else if (!committed && !alive) {
            result = EstablishResult{};
            result.error = "channel lost during establishment";
          }
          // committed, or superseded by a repair with the channel
          // still alive: the entry addresses are stable across
          // re-planning, so the original acknowledgement stands.
          network().simulator().schedule_in(
              mic_config_.control_latency,
              [cb = std::move(cb), result = std::move(result)] {
                cb(result);
              });
        });
  });
}

void MimicController::walk_holdings(const MFlowPlan& plan, Holdings action) {
  const bool adopt = action == Holdings::kAdopt;
  const bool whole = action != Holdings::kReleaseRoute;
  const auto id = [this, adopt](FlowId flow_id) {
    if (adopt) {
      registry_.adopt_flow_id(flow_id);
    } else {
      registry_.release_flow_id(flow_id);
    }
  };
  const auto tuple = [this, adopt](topo::NodeId mn, const MTuple& held) {
    if (adopt) {
      registry_.adopt_tuples(mn, {held});
    } else {
      registry_.release_tuples(mn, {held});
    }
  };
  if (whole) id(plan.flow_id);
  // The middle tuples -- hops 1..N-1 of both directions -- each at the MN
  // that generated it.
  const ReversedRoute back = reversed(plan);
  for (std::size_t j = 1; j < plan.mn_positions.size(); ++j) {
    tuple(plan.path[plan.mn_positions[j - 1]], plan.forward[j]);
    tuple(back.path[back.mn_positions[j - 1]], plan.reverse[j]);
  }
  if (!plan.mn_positions.empty()) {
    const topo::NodeId first_mn = plan.path[plan.mn_positions[0]];
    for (const DecoyPlan& decoy : plan.decoys) {
      id(decoy.flow_id);
      tuple(first_mn, decoy.tuple);
    }
  }
  if (!whole) return;
  for (const std::uint64_t key : endpoint_keys(plan)) {
    if (adopt) {
      reserved_endpoints_.insert(key);
    } else {
      reserved_endpoints_.erase(key);
    }
  }
}

bool MimicController::drop_channel(ChannelId id, RuleRemoval removal) {
  const auto it = channels_.find(id);
  if (it == channels_.end()) return false;
  journal_.record_teardown(id);
  if (removal != RuleRemoval::kSkip) {
    for (const topo::NodeId sw : it->second.touched_switches) {
      remove_cookie(sw, id, removal == RuleRemoval::kImmediate);
    }
  }
  for (const MFlowPlan& plan : it->second.flows) {
    walk_holdings(plan, Holdings::kRelease);
  }
  channels_.erase(it);
  return true;
}

void MimicController::teardown(ChannelId id, bool immediate) {
  if (crashed_) return;
  if (drop_channel(id, immediate ? RuleRemoval::kImmediate
                                 : RuleRemoval::kDeferred)) {
    listeners_.erase(id);
  }
}

// --- failure handling ---------------------------------------------------------

void MimicController::reroute_default_routing() {
  if (!default_routing_installed_) return;
  reroute_stats_ += ctrl::L3RoutingApp::reroute_around(
      *this, [this](topo::NodeId host) { return cf_label_for(host); });
}

void MimicController::on_port_status(topo::NodeId sw, topo::PortId port) {
  apply_failure_rule({graph().out_port(sw, port).link});
}

void MimicController::set_channel_listener(ChannelId id,
                                           ChannelListener listener) {
  listeners_[id] = std::move(listener);
}

void MimicController::clear_channel_listener(ChannelId id) {
  listeners_.erase(id);
}

void MimicController::notify_channel_event(ChannelId id, ChannelEvent event,
                                           std::string reason) {
  const auto it = listeners_.find(id);
  if (it == listeners_.end()) {
    if (event == ChannelEvent::kLost) listeners_.erase(id);
    return;
  }
  network().simulator().schedule_in(
      mic_config_.control_latency,
      [listener = it->second, event, reason = std::move(reason)] {
        listener(event, reason);
      });
  // A lost channel's listener can never fire again.
  if (event == ChannelEvent::kLost) listeners_.erase(it);
}

void MimicController::lose_channel(ChannelId id, const std::string& reason) {
  if (!drop_channel(id, RuleRemoval::kDeferred)) return;
  MIC_LOG_WARN("channel %llu lost: %s", static_cast<unsigned long long>(id),
               reason.c_str());
  ++channels_lost_;
  notify_channel_event(id, ChannelEvent::kLost, reason);
}

void MimicController::reissue_rules(ChannelState& state, std::string cause,
                                    bool repair) {
  const ChannelId id = state.id;
  std::vector<InstallOp> ops;
  for (const MFlowPlan& plan : state.flows) {
    install_flow(id, plan, ops, next_group_);
  }
  state.touched_switches = touched_switches(ops);
  const std::uint64_t txn = ++state.install_txn;
  journal_.record_repair(state, next_channel_, next_group_);
  commit_async(
      id, txn, std::move(ops),
      [this, id, txn, cause = std::move(cause), repair](bool committed) {
        const auto it = channels_.find(id);
        if (it == channels_.end() || it->second.install_txn != txn) {
          return;  // superseded by a later repair or teardown
        }
        if (!committed) {
          lose_channel(id, cause + ": rule re-install failed after retries");
        } else if (repair) {
          ++channels_repaired_;
          notify_channel_event(id, ChannelEvent::kRepaired, cause);
        }
      });
}

MimicController::RepairOutcome MimicController::repair_channels(
    const std::vector<ChannelId>& affected, const std::string& cause) {
  RepairOutcome outcome;
  for (const ChannelId id : affected) {
    ChannelState& state = channels_.at(id);
    const PlanContext ctx = context_of(state);

    // Pull the old rules everywhere this channel touched.
    for (const topo::NodeId sw : state.touched_switches) {
      remove_cookie(sw, id, /*immediate=*/false);
    }
    state.touched_switches.clear();

    bool ok = true;
    std::string error;
    for (MFlowPlan& plan : state.flows) {
      if (!replan_flow(ctx, plan, error)) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      lose_channel(id, cause + ": " + error);
      ++outcome.lost;
      continue;
    }

    reissue_rules(state, cause, /*repair=*/true);
    ++outcome.repaired;
  }
  return outcome;
}

MimicController::RepairOutcome MimicController::failure_transition(
    const std::unordered_set<topo::LinkId>& dead_links,
    const std::unordered_set<topo::NodeId>& dead_switches,
    const std::string& cause) {
  // Common flows first: re-derive the default routing for the new view
  // (fast failover; ECMP absorbs single-link failures in Clos fabrics).
  // After a restore this drops the detours the failure forced, or every
  // future CF keeps paying them forever.
  reroute_default_routing();
  if (dead_links.empty() && dead_switches.empty()) return {};
  return repair_channels(
      channels_hit(channels_,
                   [&](const MFlowPlan& plan) {
                     return failure_hits(plan.path, plan.decoys, dead_links,
                                         dead_switches);
                   }),
      cause);
}

MimicController::RepairOutcome MimicController::apply_failure_rule(
    std::vector<topo::LinkId> links, std::size_t* changed) {
  // A crashed MC hears nothing; recovery applies the rule to every link.
  if (crashed_) return {};
  // "One of its links up" keeps a switch whose peers are all dead from
  // reviving vacuously.  Every candidate is judged before any revives, so
  // two rebooted neighbours with a cut between them both come back.
  std::unordered_set<topo::NodeId> candidates;
  for (const topo::LinkId link : links) {
    const auto [a, b] = graph().link_endpoints(link);
    for (const topo::NodeId end : {a, b}) {
      if (failed_switches_.contains(end)) candidates.insert(end);
    }
  }
  const auto up = [this](const topo::Adjacency& adj) {
    return network().link_up(adj.link);
  };
  std::vector<topo::NodeId> rebooted;
  for (const topo::NodeId sw : candidates) {
    const auto& adjacent = graph().neighbors(sw);
    if (std::ranges::any_of(adjacent, up) &&
        std::ranges::all_of(adjacent, [&](const topo::Adjacency& adj) {
          return up(adj) || failed_switches_.contains(adj.peer);
        })) {
      rebooted.push_back(sw);
    }
  }
  for (const topo::NodeId sw : rebooted) {
    failed_switches_.erase(sw);
    for (const auto& adj : graph().neighbors(sw)) links.push_back(adj.link);
  }

  std::unordered_set<topo::LinkId> dead;
  std::size_t transitions = 0;
  for (const topo::LinkId link : links) {
    const auto [a, b] = graph().link_endpoints(link);
    const bool down = !network().link_up(link) ||
                      failed_switches_.contains(a) ||
                      failed_switches_.contains(b);
    if (down ? path_engine().link_failed(link)
             : path_engine().link_restored(link)) {
      ++transitions;
      if (down) dead.insert(link);
    }
  }
  if (changed != nullptr) *changed = transitions;
  if (transitions == 0) return {};
  // A rebooted switch comes back with an empty table: the reroute refills
  // it and drops the detours the failure forced elsewhere.
  return failure_transition(dead, {}, "link failure");
}

MimicController::RepairOutcome MimicController::fail_link(topo::LinkId link) {
  return apply_failure_rule({link});
}

MimicController::RepairOutcome MimicController::fail_switch(topo::NodeId sw) {
  if (crashed_) {
    // The switch dies whether or not the MC is up: it is failed and its
    // soft state is gone.  The reaction waits for recovery.
    failed_switches_.insert(sw);
    switch_at(sw)->table().clear();
    return {};
  }
  if (!failed_switches_.insert(sw).second) return {};
  // Every incident link goes down with the switch.
  for (const auto& adj : graph().neighbors(sw)) {
    path_engine().link_failed(adj.link);
  }
  // The crash loses all soft state; purging mirrors what the re-connected
  // switch would report (an empty table), and keeps the orphan-rule audit
  // honest about rules that no longer exist anywhere.
  switch_at(sw)->table().clear();
  // A path crossing an incident link passes `sw`, so the switch alone
  // names what died.  The replans avoid it: route sampling skips every
  // route failure_hits flags against the whole failure view.
  return failure_transition({}, {sw}, "switch failure");
}

void MimicController::restore_switch(topo::NodeId sw) {
  if (failed_switches_.erase(sw) == 0) return;
  std::vector<topo::LinkId> links;
  for (const auto& adj : graph().neighbors(sw)) links.push_back(adj.link);
  apply_failure_rule(std::move(links));
}

// --- crash recovery -----------------------------------------------------------

void MimicController::crash() {
  if (crashed_) return;
  ++crashes_;
  crashed_ = true;
  // Soft state dies with the process.  The journal (stable storage), the
  // deployment config, client keys, hidden services, the CF label map and
  // the failure view (re-learned from the NOS at recovery anyway) survive.
  channels_.clear();
  listeners_.clear();
  reserved_endpoints_.clear();
  registry_.reset_allocations();
  // Admission state (queued requests, buckets) is soft too: queued work
  // dies silently and the drain timer is cancelled.
  admission_.reset();
  next_channel_ =
      (static_cast<ChannelId>(mic_config_.instance_id) << 32) + 1;
  next_group_ = (mic_config_.instance_id << 24) + 1;
}

std::size_t MimicController::verify_channel_rules(
    const ChannelState& state, std::vector<std::string>* violations) {
  // Regenerate the channel's expected ops with a scratch group allocator:
  // group ids are re-allocated on every (re)install, so group identity is
  // compared through the referenced group's type and buckets, never by id.
  std::uint32_t scratch_group = 1;
  std::vector<InstallOp> expected;
  for (const MFlowPlan& plan : state.flows) {
    install_flow(state.id, plan, expected, scratch_group);
  }

  struct SwExpect {
    std::vector<const switchd::FlowRule*> rules;
    std::vector<const switchd::GroupEntry*> groups;
  };
  std::map<topo::NodeId, SwExpect> expect;
  std::unordered_map<std::uint32_t, const switchd::GroupEntry*>
      expected_groups;
  for (const InstallOp& op : expected) {
    if (const auto* rule = std::get_if<switchd::FlowRule>(&op.payload)) {
      expect[op.sw].rules.push_back(rule);
    } else {
      const auto* group = &std::get<switchd::GroupEntry>(op.payload);
      expect[op.sw].groups.push_back(group);
      expected_groups.emplace(group->group_id, group);
    }
  }

  const auto note = [violations](std::string message) {
    if (violations != nullptr) violations->push_back(std::move(message));
  };
  const auto tag = [&state](topo::NodeId sw) {
    return "channel " + std::to_string(state.id) + " @switch " +
           std::to_string(sw) + ": ";
  };

  std::size_t checked = 0;
  for (const auto& [sw, want] : expect) {
    if (failed_switches_.contains(sw)) {
      note(tag(sw) + "switch is down");
      continue;
    }
    switchd::DumpFilter filter;
    filter.cookie = state.id;
    const switchd::FlowDump dump = switch_at(sw)->dump(filter);
    checked += dump.rules.size() + dump.groups.size();

    std::unordered_map<std::uint32_t, const switchd::GroupEntry*>
        actual_groups;
    for (const switchd::GroupEntry& group : dump.groups) {
      actual_groups.emplace(group.group_id, &group);
    }
    const auto groups_equivalent = [&](std::uint32_t want_id,
                                       std::uint32_t got_id) {
      const auto w = expected_groups.find(want_id);
      const auto g = actual_groups.find(got_id);
      if (w == expected_groups.end() || g == actual_groups.end()) return false;
      return w->second->type == g->second->type &&
             w->second->buckets == g->second->buckets;
    };
    const auto actions_equivalent =
        [&](const std::vector<switchd::Action>& a,
            const std::vector<switchd::Action>& b) {
          if (a.size() != b.size()) return false;
          for (std::size_t i = 0; i < a.size(); ++i) {
            const auto* ga = std::get_if<switchd::GroupAction>(&a[i]);
            const auto* gb = std::get_if<switchd::GroupAction>(&b[i]);
            if ((ga != nullptr) != (gb != nullptr)) return false;
            if (ga != nullptr) {
              if (!groups_equivalent(ga->group_id, gb->group_id)) return false;
            } else if (!(a[i] == b[i])) {
              return false;
            }
          }
          return true;
        };

    std::vector<bool> rule_taken(dump.rules.size(), false);
    for (const switchd::FlowRule* rule : want.rules) {
      bool found = false;
      for (std::size_t i = 0; i < dump.rules.size(); ++i) {
        if (rule_taken[i]) continue;
        const switchd::FlowRule& got = dump.rules[i];
        if (got.priority == rule->priority && got.match == rule->match &&
            actions_equivalent(rule->actions, got.actions)) {
          rule_taken[i] = true;
          found = true;
          break;
        }
      }
      if (!found) note(tag(sw) + "expected rule missing");
    }
    for (std::size_t i = 0; i < dump.rules.size(); ++i) {
      if (!rule_taken[i]) note(tag(sw) + "unexpected rule with this cookie");
    }

    std::vector<bool> group_taken(dump.groups.size(), false);
    for (const switchd::GroupEntry* group : want.groups) {
      bool found = false;
      for (std::size_t i = 0; i < dump.groups.size(); ++i) {
        if (group_taken[i]) continue;
        if (dump.groups[i].type == group->type &&
            dump.groups[i].buckets == group->buckets) {
          group_taken[i] = true;
          found = true;
          break;
        }
      }
      if (!found) note(tag(sw) + "expected group missing");
    }
    for (std::size_t i = 0; i < dump.groups.size(); ++i) {
      if (!group_taken[i]) note(tag(sw) + "unexpected group with this cookie");
    }
  }
  return checked;
}

void MimicController::probe_channel(ChannelId id, ChannelListener listener,
                                    std::function<void(bool)> on_result) {
  if (crashed_) return;  // the client's timeout is the answer
  // Liveness probes are exempt from the admission token buckets: a tenant
  // whose establishment budget an attacker (or its own burst) drained must
  // still hear whether its existing channels are alive.
  admission_.note_exempt();
  network().simulator().schedule_in(
      mic_config_.control_latency,
      [this, id, listener = std::move(listener),
       cb = std::move(on_result)]() mutable {
        if (crashed_) return;
        const bool alive = channels_.contains(id);
        if (alive && listener) listeners_[id] = std::move(listener);
        network().simulator().schedule_in(
            mic_config_.control_latency,
            [cb = std::move(cb), alive] { cb(alive); });
      });
}

MimicController::RecoveryReport MimicController::recover(
    const ChannelJournal& journal) {
  MIC_ASSERT_MSG(crashed_, "recover() requires a preceding crash()");
  RecoveryReport report;
  const std::uint64_t lost_before = channels_lost_;

  // 1. Replay the (possibly truncated) log into a consistent image.
  const JournalImage image = journal.replay();

  // New controller generation: every record and southbound op from here on
  // carries an epoch above anything the previous life (or a deposed
  // ex-primary still running somewhere) ever stamped.  The journal's own
  // epoch counts too: a log compacted down to no live channel keeps no
  // record to carry it.
  const std::uint64_t new_epoch =
      std::max({journal_.epoch(), journal.epoch(), image.epoch}) + 1;
  journal_.set_epoch(new_epoch);
  set_fence_epoch(new_epoch);
  deposed_ = false;

  // 2. Adopt the image: channels, allocator state, endpoint reservations,
  // id watermarks.  Every adopted channel's install generation is bumped so
  // a pre-crash in-flight commit can never match it again.
  next_channel_ = std::max(next_channel_, image.next_channel);
  next_group_ = std::max(next_group_, image.next_group);
  std::map<ChannelId, std::uint64_t> adopted_txn;
  for (const auto& [id, state] : image.channels) {
    ChannelState adopted = state;
    ++adopted.install_txn;
    for (const MFlowPlan& plan : adopted.flows) {
      walk_holdings(plan, Holdings::kAdopt);
    }
    adopted_txn.emplace(id, adopted.install_txn);
    channels_.emplace(id, std::move(adopted));
    ++report.channels_recovered;
  }
  registry_.rebuild_free_list();

  // The MC answers again from here on.  Rebuild the durable journal from
  // the adopted state, so recovering from a harness-truncated copy leaves
  // journal_ and channels_ agreeing (RC-1's precondition).
  crashed_ = false;
  journal_.clear();
  for (const auto& [id, state] : image.channels) {
    journal_.record_establish(channels_.at(id), next_channel_, next_group_);
  }

  // 3. Re-learn PHY transitions missed while down: the failure rule over
  // every link records all of them, then one failure transition re-derives
  // the default routing and replans (or loses) the channels crossing newly
  // dead links before the rule diff below looks at them.
  std::vector<topo::LinkId> every_link(graph().link_count());
  std::iota(every_link.begin(), every_link.end(), topo::LinkId{0});
  apply_failure_rule(std::move(every_link), &report.links_resynced);

  // 4. Dump every live switch and collect which switches actually hold
  // entries for which cookie; entries no journaled channel explains --
  // including survivors of a truncated journal -- are torn down.
  std::vector<topo::NodeId> fabric_switches = graph().switches();
  std::sort(fabric_switches.begin(), fabric_switches.end());
  std::map<std::uint64_t, std::vector<topo::NodeId>> observed;
  std::map<std::uint64_t, std::size_t> observed_entries;
  for (const topo::NodeId sw : fabric_switches) {
    if (failed_switches_.contains(sw)) continue;  // unreachable, empty anyway
    ++report.switches_resynced;
    // Fence the switch under the new epoch while resyncing it: from this
    // moment a zombie ex-primary's ops (stamped with an older epoch) are
    // refused, so nothing can mutate the table behind the diff below.
    switch_at(sw)->raise_fence(new_epoch);
    switchd::DumpFilter filter;
    filter.exclude_cookie = ctrl::kL3Cookie;
    const switchd::FlowDump dump = switch_at(sw)->dump(filter);
    const auto record = [&](std::uint64_t cookie) {
      auto& holders = observed[cookie];
      if (holders.empty() || holders.back() != sw) holders.push_back(sw);
      ++observed_entries[cookie];
    };
    for (const switchd::FlowRule& rule : dump.rules) record(rule.cookie);
    for (const switchd::GroupEntry& group : dump.groups) record(group.cookie);
  }
  for (const auto& [cookie, holders] : observed) {
    if (channels_.contains(cookie)) continue;
    for (const topo::NodeId sw : holders) {
      remove_cookie(sw, cookie, /*immediate=*/true);
    }
    report.orphan_rules_removed += observed_entries.at(cookie);
  }

  // 5. Keep / reinstall / replan each recovered channel (ascending id, so
  // the rng_ draws of any replans stay deterministic).
  for (const auto& [id, txn] : adopted_txn) {
    const auto it = channels_.find(id);
    if (it == channels_.end()) continue;  // lost during the failure resync
    if (it->second.install_txn != txn) {
      // Repaired during the failure resync.  That repair swept only the
      // journaled scope, and every rule of its fresh generation is still
      // in flight (checked installs land a southbound latency after this
      // synchronous pass) -- so anything the dumps saw under this cookie
      // is pre-takeover residue the journal never carried: a lost repair
      // of the old primary, or a zombie's last plan.  Sweep it all; the
      // in-flight generation lands on clean tables right after.
      if (const auto obs = observed.find(id); obs != observed.end()) {
        for (const topo::NodeId sw : obs->second) {
          remove_cookie(sw, id, /*immediate=*/true);
        }
      }
      ++report.channels_replanned;
      continue;
    }
    ChannelState& state = it->second;
    const bool path_dead =
        std::ranges::any_of(state.flows, [this](const MFlowPlan& plan) {
          return failure_hits(plan.path, plan.decoys, failed_links(),
                              failed_switches_);
        });
    if (path_dead) {
      // The dumps may have seen this cookie on switches the (possibly
      // truncated) journal never recorded -- a pre-crash repair whose
      // record was lost.  repair_channels only sweeps the journaled scope,
      // so pull the out-of-scope survivors here or they outlive the
      // channel.
      if (const auto obs = observed.find(id); obs != observed.end()) {
        for (const topo::NodeId sw : obs->second) {
          if (!std::binary_search(state.touched_switches.begin(),
                                  state.touched_switches.end(), sw)) {
            remove_cookie(sw, id, /*immediate=*/true);
          }
        }
      }
      repair_channels({id}, "recovery");
      if (channels_.contains(id)) ++report.channels_replanned;
      continue;
    }

    // A channel whose rules sit on switches outside its journaled scope
    // (a truncated journal replayed a pre-repair route) is a mismatch by
    // construction; otherwise compare rule content switch by switch.
    bool mismatch = false;
    std::vector<topo::NodeId> holders;
    if (const auto obs = observed.find(id); obs != observed.end()) {
      holders = obs->second;
      for (const topo::NodeId sw : holders) {
        if (!std::binary_search(state.touched_switches.begin(),
                                state.touched_switches.end(), sw)) {
          mismatch = true;
          break;
        }
      }
    }
    if (!mismatch) {
      std::vector<std::string> violations;
      verify_channel_rules(state, &violations);
      mismatch = !violations.empty();
    }
    if (!mismatch) {
      ++report.channels_kept;
      continue;
    }

    // Reinstall under a fresh generation through the transactional path,
    // sweeping the cookie from both the journaled scope and wherever the
    // dumps actually saw it.
    std::vector<topo::NodeId> scope = state.touched_switches;
    scope.insert(scope.end(), holders.begin(), holders.end());
    std::sort(scope.begin(), scope.end());
    scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
    for (const topo::NodeId sw : scope) {
      remove_cookie(sw, id, /*immediate=*/true);
    }
    reissue_rules(state, "recovery", /*repair=*/false);
    ++report.channels_reinstalled;
  }

  report.channels_lost = channels_lost_ - lost_before;
  last_recovery_ = report;
  return report;
}

void MimicController::mirror_directory_from(const MimicController& other) {
  client_keys_ = other.client_keys_;
  hidden_services_ = other.hidden_services_;
  cf_labels_ = other.cf_labels_;
}

void MimicController::on_fenced_out(topo::NodeId sw) {
  if (crashed_ || deposed_) return;
  deposed_ = true;
  MIC_LOG_WARN("MC deposed: switch %u holds a newer fence epoch (ours %llu)",
               sw, static_cast<unsigned long long>(fence_epoch()));
  // Step down by self-crashing, but deferred: the refusal surfaces inside
  // an install path that may still be iterating controller state, and
  // crash() wipes it all.
  network().simulator().schedule_in(sim::SimTime{0}, [this] {
    if (!crashed_) crash();
  });
}

const ChannelState* MimicController::channel(ChannelId id) const {
  const auto it = channels_.find(id);
  return it == channels_.end() ? nullptr : &it->second;
}

std::vector<ChannelId> MimicController::channel_ids() const {
  std::vector<ChannelId> ids;
  ids.reserve(channels_.size());
  for (const auto& [id, state] : channels_) {
    (void)state;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace mic::core
