#include "core/fault_injector.hpp"

#include <algorithm>
#include <unordered_set>

#include "ctrl/standby.hpp"

namespace mic::core {

namespace {
/// Every link flap, switch crash and MC crash stays down for a uniform
/// outage in [kMinOutage, kMaxOutage].
constexpr sim::SimTime kMinOutage = sim::milliseconds(1);
constexpr sim::SimTime kMaxOutage = sim::milliseconds(15);
/// An install-fault burst rejects each install on its switch with this
/// probability, for this long.
constexpr double kInstallFaultProbability = 0.5;
constexpr sim::SimTime kInstallFaultDuration = sim::milliseconds(3);
/// A control-drop burst drops each checked flow-mod or reply with this
/// probability, for this long.
constexpr double kControlDropProbability = 0.25;
constexpr sim::SimTime kControlDropDuration = sim::milliseconds(3);
/// kTornTail kill: replica records dropped at the kill (in-flight
/// replication lost with the primary).
constexpr std::size_t kKillTruncateRecords = 2;
}  // namespace

FaultInjector::FaultInjector(net::Network& network, MimicController& mc,
                             FaultInjectorOptions options)
    : network_(network), mc_(mc), options_(options), rng_(options.seed) {}

void FaultInjector::arm() {
  MIC_ASSERT_MSG(!armed_, "FaultInjector::arm called twice");
  armed_ = true;

  sim::Simulator& sim = network_.simulator();
  const topo::Graph& graph = mc_.graph();
  auto fault_time = [this] {
    return options_.start + rng_.below(std::max<sim::SimTime>(options_.window, 1));
  };
  auto outage_time = [this] {
    return kMinOutage + rng_.below(kMaxOutage - kMinOutage + 1);
  };

  // Crash victims first; flap victims then avoid their incident links.
  // Every golden fingerprint depends on this draw, so it stays; the
  // small-scope explorer covers the crash/flap overlaps it avoids.
  std::vector<topo::NodeId> switches = graph.switches();
  rng_.shuffle(switches);
  const std::size_t crash_count =
      std::min<std::size_t>(static_cast<std::size_t>(
                                std::max(options_.switch_crashes, 0)),
                            switches.size());
  std::unordered_set<topo::NodeId> crash_victims(
      switches.begin(), switches.begin() + crash_count);

  for (std::size_t i = 0; i < crash_count; ++i) {
    const topo::NodeId sw = switches[i];
    const sim::SimTime down_at = fault_time();
    const sim::SimTime up_at = down_at + outage_time();
    sim.schedule_in(down_at, [this, sw, &graph] {
      crashed_now_.insert(sw);
      for (const auto& adj : graph.neighbors(sw)) {
        network_.set_link_up(adj.link, false);
      }
      mc_.fail_switch(sw);
    });
    sim.schedule_in(up_at, [this, sw, &graph] {
      crashed_now_.erase(sw);
      // Leave links to a still-crashed peer down; that peer's own recovery
      // raises them, so a zombie neighbour is never routed through.
      for (const auto& adj : graph.neighbors(sw)) {
        if (!crashed_now_.contains(adj.peer)) {
          network_.set_link_up(adj.link, true);
        }
      }
      mc_.restore_switch(sw);
    });
  }

  // Link flaps: distinct victims, switch-switch links preferred (in a
  // server-centric topology like BCube every link touches a host and all
  // are eligible), never incident to a crash victim.
  std::vector<topo::LinkId> interior, any;
  for (topo::LinkId link = 0;
       link < static_cast<topo::LinkId>(graph.link_count()); ++link) {
    const auto [a, b] = graph.link_endpoints(link);
    if (crash_victims.contains(a) || crash_victims.contains(b)) continue;
    any.push_back(link);
    if (graph.is_switch(a) && graph.is_switch(b)) interior.push_back(link);
  }
  std::vector<topo::LinkId>& candidates = interior.empty() ? any : interior;
  rng_.shuffle(candidates);
  const std::size_t flap_count = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(options_.link_flaps, 0)),
      candidates.size());
  for (std::size_t i = 0; i < flap_count; ++i) {
    const topo::LinkId link = candidates[i];
    const sim::SimTime down_at = fault_time();
    const sim::SimTime up_at = down_at + outage_time();
    sim.schedule_in(down_at,
                    [this, link] { network_.set_link_up(link, false); });
    sim.schedule_in(up_at,
                    [this, link] { network_.set_link_up(link, true); });
  }

  // Install-fault bursts: one switch per burst starts rejecting flow-mods.
  for (int i = 0; i < options_.install_fault_bursts && !switches.empty();
       ++i) {
    const topo::NodeId sw =
        switches[rng_.below(static_cast<std::uint64_t>(switches.size()))];
    const sim::SimTime at = fault_time();
    const std::uint64_t fault_seed = rng_.next();
    sim.schedule_in(at, [this, sw, fault_seed] {
      mc_.switch_at(sw)->inject_install_faults(kInstallFaultProbability,
                                               fault_seed);
    });
    sim.schedule_in(at + kInstallFaultDuration, [this, sw] {
      mc_.switch_at(sw)->clear_install_faults();
    });
  }

  // Control-message drop bursts (controller-wide).
  for (int i = 0; i < options_.control_drop_bursts; ++i) {
    const sim::SimTime at = fault_time();
    sim.schedule_in(at, [this] {
      mc_.set_control_drop_probability(kControlDropProbability);
    });
    sim.schedule_in(at + kControlDropDuration, [this] {
      mc_.set_control_drop_probability(0.0);
    });
  }

  // MC crash/recover cycles.  Drawn last so mc_crashes = 0 reproduces the
  // pre-existing schedule for any seed bit-for-bit.
  for (int i = 0; i < options_.mc_crashes; ++i) {
    const sim::SimTime down_at = fault_time();
    const sim::SimTime up_at = down_at + outage_time();
    sim.schedule_in(down_at, [this] {
      if (mc_.crashed()) return;  // an earlier cycle is still down
      mc_.crash();
      ++mc_crashes_fired_;
    });
    sim.schedule_in(up_at, [this] {
      if (!mc_.crashed()) return;  // paired crash was skipped
      if (options_.mc_crash_truncate_records > 0) {
        ChannelJournal damaged = mc_.journal();
        damaged.truncate_tail(
            static_cast<std::size_t>(options_.mc_crash_truncate_records));
        recoveries_.push_back(mc_.recover(damaged));
      } else {
        recoveries_.push_back(mc_.recover(mc_.journal()));
      }
    });
  }

  // Control-plane attack traffic, drawn after every fault draw above (the
  // same append-only rule as the MC crashes): enabling the flood never
  // perturbs an existing seed's fault schedule.  All randomness is drawn
  // here at arm() time; the scheduled callbacks touch no rng.
  if (options_.establish_floods > 0) {
    std::vector<topo::NodeId> hosts = graph.hosts();
    MIC_ASSERT(!hosts.empty());
    rng_.shuffle(hosts);
    std::size_t next_host = 0;
    auto pick_host = [&] { return hosts[next_host++ % hosts.size()]; };

    for (int burst = 0; burst < options_.establish_floods; ++burst) {
      const sim::SimTime burst_at = fault_time();
      for (int a = 0; a < options_.flood_attackers; ++a) {
        const topo::NodeId attacker_host = pick_host();
        const net::Ipv4 attacker = mc_.addressing().ip_of(attacker_host);
        // Key exchange done in advance (register_client is idempotent and
        // keys survive MC crashes), so the flood itself spends no MC rng.
        mc_.register_client(attacker);
        attacker_ips_.push_back(attacker);
        for (int r = 0; r < options_.flood_requests; ++r) {
          const sim::SimTime at =
              burst_at +
              rng_.below(std::max<sim::SimTime>(options_.flood_duration, 1));
          const std::uint64_t counter = rng_.next();
          sim.schedule_in(at, [this, attacker, counter] {
            send_flood_request(attacker, counter);
          });
        }
      }
    }
  }

  // Primary kills, drawn after every draw above (the same append-only
  // rule): enabling them never perturbs an existing seed's fault or flood
  // schedule.  All randomness is drawn here at arm() time; the callbacks
  // touch no rng.
  using KillMode = FaultInjectorOptions::PrimaryKillMode;
  if (options_.primary_kills > 0) {
    MIC_ASSERT_MSG(standby_ != nullptr,
                   "primary kills need attach_standby()");
  }
  for (int i = 0; i < options_.primary_kills; ++i) {
    const sim::SimTime kill_at = fault_time();
    sim.schedule_in(kill_at, [this] {
      ++primary_kills_fired_;
      if (options_.primary_kill_mode == KillMode::kZombie) {
        // The primary is healthy; only the standby's view of it dies.
        // The missed-heartbeat takeover fences every switch, and the
        // zombie's next southbound op deposes it.
        standby_->set_partitioned(true);
        return;
      }
      if (options_.primary_kill_mode == KillMode::kTornTail) {
        standby_->drop_replica_tail(kKillTruncateRecords);
      }
      if (!mc_.crashed()) mc_.crash();
    });
  }
}

void FaultInjector::send_flood_request(net::Ipv4 attacker,
                                       std::uint64_t counter) {
  // A well-formed, correctly encrypted request for a hidden service that
  // does not exist: the MC pays admission, decrypt and parse, then fails
  // planning -- pure control-plane load, no channel state left behind.
  EstablishRequest request;
  request.initiator_ip = attacker;
  request.service_name = "__chaff__";
  request.flow_count = 1;
  request.mn_count = 3;
  request.initiator_sports = {40000};
  std::vector<std::uint8_t> bytes = serialize_request(request);
  crypt_control_message(mc_.register_client(attacker), counter, bytes);
  ++flood_sent_;
  mc_.async_establish(attacker, std::move(bytes), counter,
                      [this](const EstablishResult& result) {
                        ++flood_answered_;
                        if (result.busy) ++flood_shed_;
                      });
}

}  // namespace mic::core
