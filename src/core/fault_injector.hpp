// Deterministic fault-injection harness: a seeded schedule of link flaps,
// switch crash/recover cycles, rule-install fault bursts and control-message
// drop bursts, all scheduled on the simulator at arm() time.  Every fault it
// injects is transient (the schedule always restores what it broke), so a
// run that reaches quiescence does so on a healed fabric -- which is what
// the chaos soak's invariants (FD-1, CA-1, delivery) are defined against.
//
// The injector only touches public knobs: net::Network::set_link_up (the
// PHY), MimicController::fail_switch/restore_switch (operator-style crash
// semantics; the port-status pipeline detects the link side on its own),
// SdnSwitch::inject_install_faults and the controller's control-message
// drop probability.  Identical seed + topology + workload => identical
// schedule => identical simulation (SIM-1).
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "core/mimic_controller.hpp"

namespace mic::ctrl {
class StandbyController;
}

namespace mic::core {

struct FaultInjectorOptions {
  std::uint64_t seed = 1;
  /// Faults fire at uniformly random offsets in [start, start + window),
  /// measured from the moment arm() is called.
  sim::SimTime start = sim::milliseconds(1);
  sim::SimTime window = sim::milliseconds(60);

  /// Link flaps: a link goes down, stays down for a uniform outage in
  /// [1 ms, 15 ms], and comes back.  Victims prefer switch-switch links
  /// when the topology has any (fat-tree, leaf-spine); in server-centric
  /// topologies (BCube) every link is a host link and all are eligible.
  int link_flaps = 4;

  /// Whole-switch crash/recover cycles (same outage distribution).  Crash
  /// victims and flap victims are drawn disjoint: every golden fingerprint
  /// depends on that draw, so it stays.  The small-scope explorer
  /// (tests/test_failure_explorer.cpp) covers the overlaps it avoids.
  int switch_crashes = 1;

  /// Rule-install fault bursts: for 3 ms, one random switch rejects each
  /// install with probability 0.5.
  int install_fault_bursts = 1;

  /// Control-message drop bursts: for 3 ms, checked flow-mods/replies
  /// anywhere in the fabric are dropped with probability 0.25.
  int control_drop_bursts = 1;

  /// Mimic-controller crash/recover cycles (same outage distribution):
  /// crash() wipes the MC's soft state mid-run, recover() replays the
  /// journal and resyncs every switch.  Scheduled after all other fault
  /// draws, so enabling them never perturbs an existing seed's link-flap /
  /// switch-crash schedule.  A crash landing while the MC is already down
  /// is skipped (one controller, one outage at a time).
  int mc_crashes = 0;
  /// Recover from a tail-truncated copy of the journal instead of the
  /// intact one -- models a crash that lost the last few commits.  The
  /// resync sweep then finds switches ahead of the journal and tears the
  /// unknown cookies down (reconcile-by-audit).
  int mc_crash_truncate_records = 0;

  /// Establishment floods: per burst, `flood_attackers` random hosts each
  /// fire `flood_requests` properly-encrypted establish requests (to an
  /// unknown hidden service -- pure control-plane load: the MC pays
  /// admission, decrypt and parse for every admitted one) at uniformly
  /// random offsets over `flood_duration`.  Drawn after the MC-crash draws
  /// (the same append-only rule), so enabling floods never perturbs an
  /// existing seed's schedule.
  int establish_floods = 0;
  int flood_attackers = 2;
  int flood_requests = 100;
  sim::SimTime flood_duration = sim::milliseconds(5);

  /// --- primary-kill / failover schedule -------------------------------------
  /// Requires attach_standby(); the kill leaves the primary down (or, in
  /// zombie mode, running but partitioned) and the standby's heartbeat
  /// machinery performs the takeover on its own.  Drawn after the flood
  /// draws (append-only, like every extension before them), so enabling
  /// kills never perturbs an existing seed's schedule.
  enum class PrimaryKillMode : std::uint8_t {
    kClean,     // crash the primary, nothing else
    kTornTail,  // crash the primary; the standby loses the records still
                // in flight to it at the kill
    kZombie,    // partition the standby instead: the primary keeps
                // running until a fenced op forces it to step down
  };
  int primary_kills = 0;
  PrimaryKillMode primary_kill_mode = PrimaryKillMode::kClean;
};

class FaultInjector {
 public:
  FaultInjector(net::Network& network, MimicController& mc,
                FaultInjectorOptions options = {});

  /// Derive the full fault schedule from the seed and put every event on
  /// the simulator.  Call once, before (or while) traffic runs.
  void arm();

  /// Target of the primary-kill schedule.  Must be attached before arm()
  /// when primary_kills > 0.
  void attach_standby(ctrl::StandbyController* standby) noexcept {
    standby_ = standby;
  }

  std::size_t mc_crashes_fired() const noexcept { return mc_crashes_fired_; }
  std::size_t primary_kills_fired() const noexcept {
    return primary_kills_fired_;
  }
  /// Flood-attack outcome: requests sent, answers seen, and how many of
  /// those answers were admission sheds (Busy replies).  Dropped requests
  /// (MC crashed mid-flood) answer nothing.
  std::uint64_t flood_sent() const noexcept { return flood_sent_; }
  std::uint64_t flood_answered() const noexcept { return flood_answered_; }
  std::uint64_t flood_shed() const noexcept { return flood_shed_; }
  /// Tenants the flood schedule fires from (known once arm() ran) -- the
  /// flood bench keeps its honest clients disjoint from these.
  const std::vector<net::Ipv4>& attacker_ips() const noexcept {
    return attacker_ips_;
  }
  /// Recovery reports from every MC recover() the schedule performed.
  const std::vector<MimicController::RecoveryReport>& recoveries()
      const noexcept {
    return recoveries_;
  }

 private:
  net::Network& network_;
  MimicController& mc_;
  FaultInjectorOptions options_;
  Rng rng_;
  bool armed_ = false;
  ctrl::StandbyController* standby_ = nullptr;
  /// Switches currently down, as the *injector* sequenced them (the MC has
  /// its own view that lags by the detection pipeline).
  std::unordered_set<topo::NodeId> crashed_now_;
  /// Fire one encrypted chaff establish and count its (possible) answer.
  void send_flood_request(net::Ipv4 attacker, std::uint64_t counter);

  std::size_t mc_crashes_fired_ = 0;
  std::size_t primary_kills_fired_ = 0;
  std::uint64_t flood_sent_ = 0;
  std::uint64_t flood_answered_ = 0;
  std::uint64_t flood_shed_ = 0;
  std::vector<net::Ipv4> attacker_ips_;
  std::vector<MimicController::RecoveryReport> recoveries_;
};

}  // namespace mic::core
