#include "core/fault_injector.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/journal_store.hpp"
#include "ctrl/standby.hpp"

namespace mic::core {

FaultInjector::FaultInjector(net::Network& network, MimicController& mc,
                             FaultInjectorOptions options)
    : network_(network), mc_(mc), options_(options), rng_(options.seed) {
  MIC_ASSERT(options_.min_outage > 0 &&
             options_.min_outage <= options_.max_outage);
}

void FaultInjector::arm() {
  MIC_ASSERT_MSG(!armed_, "FaultInjector::arm called twice");
  armed_ = true;

  sim::Simulator& sim = network_.simulator();
  const topo::Graph& graph = mc_.graph();
  auto fault_time = [this] {
    return options_.start + rng_.below(std::max<sim::SimTime>(options_.window, 1));
  };
  auto outage_time = [this] {
    return options_.min_outage +
           rng_.below(options_.max_outage - options_.min_outage + 1);
  };

  // Crash victims first; flap victims then avoid their incident links, so a
  // flap's restore can never half-revive a switch the schedule crashed.
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
      mc_.switch_at(sw)->inject_install_faults(
          options_.install_fault_probability, fault_seed);
    });
    sim.schedule_in(at + options_.install_fault_duration, [this, sw] {
      mc_.switch_at(sw)->clear_install_faults();
    });
  }

  // Control-message drop bursts (controller-wide).
  for (int i = 0; i < options_.control_drop_bursts; ++i) {
    const sim::SimTime at = fault_time();
    sim.schedule_in(at, [this] {
      mc_.set_control_drop_probability(options_.control_drop_probability);
    });
    sim.schedule_in(at + options_.control_drop_duration, [this] {
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
  // same append-only rule as the MC crashes): enabling the flood or the
  // slow-client trickle never perturbs an existing seed's fault schedule.
  // All randomness is drawn here at arm() time; the scheduled callbacks
  // touch no rng.
  if (options_.establish_floods > 0 || options_.slow_client_sessions > 0) {
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

    for (int s = 0; s < options_.slow_client_sessions; ++s) {
      const topo::NodeId host = pick_host();
      const net::Ipv4 client = mc_.addressing().ip_of(host);
      const sim::SimTime open_at = fault_time();
      // The id is only known once the open fires; the touch events share it.
      auto id = std::make_shared<MimicController::ControlSessionId>(0);
      sim.schedule_in(open_at, [this, client, id] {
        *id = mc_.open_control_session(client);
        if (*id != 0) ++slow_sessions_opened_;
      });
      for (int t = 1; t <= options_.slow_client_touches; ++t) {
        sim.schedule_in(open_at + t * options_.slow_client_touch_gap,
                        [this, id] {
                          if (*id != 0) mc_.touch_control_session(*id);
                        });
      }
      // ...and never completed: the half-open reaper must collect it.
    }
  }

  // Durable-storage faults and primary kills, drawn after every draw above
  // (the same append-only rule): enabling them never perturbs an existing
  // seed's fault, flood or slow-client schedule.  All randomness is drawn
  // here at arm() time; the callbacks touch no rng.
  if (options_.storage_bit_flips > 0 || options_.fsync_lapse_windows > 0) {
    MIC_ASSERT_MSG(backend_ != nullptr,
                   "storage faults need attach_journal_backend()");
  }
  for (int i = 0; i < options_.storage_bit_flips; ++i) {
    const sim::SimTime at = fault_time();
    const std::uint64_t which = rng_.next();
    sim.schedule_in(at, [this, which] { backend_->flip_bit(which); });
  }
  for (int i = 0; i < options_.fsync_lapse_windows; ++i) {
    const sim::SimTime at = fault_time();
    sim.schedule_in(at, [this] {
      backend_->lapse_fsyncs(options_.fsync_lapse_count);
    });
  }

  using KillMode = FaultInjectorOptions::PrimaryKillMode;
  if (options_.primary_kills > 0) {
    MIC_ASSERT_MSG(standby_ != nullptr,
                   "primary kills need attach_standby()");
  }
  for (int i = 0; i < options_.primary_kills; ++i) {
    const sim::SimTime kill_at = fault_time();
    // Drawn unconditionally so every mode shares one draw sequence: the
    // same seed produces kills at the same instants in all four modes.
    const std::uint64_t torn_bytes = 1 + rng_.below(48);
    if (options_.primary_kill_mode == KillMode::kFsyncLapse) {
      // Open the lapse window shortly before the kill: the final commits
      // look durable to the primary but never ship to the standby.
      const sim::SimTime lapse_at = kill_at > options_.fsync_lapse_lead
                                        ? kill_at - options_.fsync_lapse_lead
                                        : sim::SimTime{0};
      sim.schedule_in(lapse_at, [this] {
        if (backend_ != nullptr) {
          backend_->lapse_fsyncs(options_.fsync_lapse_count);
        }
      });
    }
    sim.schedule_in(kill_at, [this, torn_bytes] {
      ++primary_kills_fired_;
      if (options_.primary_kill_mode == KillMode::kZombie) {
        // The primary is healthy; only the standby's view of it dies.
        // The missed-heartbeat takeover fences every switch, and the
        // zombie's next southbound op deposes it.
        standby_->set_partitioned(true);
        return;
      }
      if (options_.primary_kill_mode == KillMode::kTornTail) {
        if (backend_ != nullptr) backend_->arm_torn_tail(torn_bytes);
        standby_->drop_replica_tail(
            static_cast<std::size_t>(options_.kill_truncate_records));
      }
      if (backend_ != nullptr) backend_->crash();
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
