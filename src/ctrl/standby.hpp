// Warm-standby Mimic Controller (the paper's Sec VI-C distributed-MC
// deployment, hardened into a failover pair).
//
// The standby owns a second MimicController instance built with the
// primary's seed and config (equal-seeded MAGA registries derive identical
// deployment secrets, so adopted channels decrypt and verify unchanged).
// It tails the primary's journal -- each record ships as the primary
// appends it and is adopted into the replica `replication_lag` later, and
// the replica compacts on the primary's cadence -- and probes the
// primary's liveness over the control channel.  When the missed-heartbeat
// budget is exhausted it takes over: the replica is replayed through the
// ordinary recover() path (switch dumps reconcile the possibly-stale image
// against what is actually installed), every switch is fenced under the
// new journal epoch so a zombie ex-primary's ops are refused, and the
// primary records the standby's controller as its successor, so clients
// that resolve `current()` reach the new primary.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/mimic_controller.hpp"

namespace mic::ctrl {

struct StandbyOptions {
  /// One-way latency of the replication stream (primary append -> record
  /// adopted into the standby's replica).
  sim::SimTime replication_lag = sim::microseconds(300);

  /// Liveness-probe period.  0 disables probing entirely: the standby only
  /// follows the journal stream and never takes over on its own (the
  /// bit-identical replay harness runs in this mode; take_over() can still
  /// be invoked explicitly).
  sim::SimTime heartbeat_interval = sim::milliseconds(2);
};

class StandbyController {
 public:
  /// Builds the standby MC from the primary's network, addressing, seed and
  /// configs.  Nothing is subscribed until start().
  explicit StandbyController(core::MimicController& primary,
                             StandbyOptions options = {});

  /// Stops probing, detaches from the primary's journal and leaves its
  /// probe replies and the replication events nothing to call.  A standby
  /// that took over leaves the successor chain.  The primary outlives it.
  ~StandbyController();

  /// Subscribe to the primary's record stream (records already in its
  /// journal are caught up immediately, lagged by replication_lag) and
  /// begin the heartbeat probe loop (unless heartbeat_interval is 0).
  void start();

  /// Promote the standby now: stop probing, detach from the old primary's
  /// stream, mirror the directory, fence + recover from the replica,
  /// reinstall the proactive routing for the resynced failure view,
  /// subscribe to port-status reports and become the primary's successor.
  /// Idempotent; returns false if this standby already took over.
  bool take_over(const std::string& reason);

  /// Simulate a control-network partition between standby and primary:
  /// probe replies are ignored (so the budget runs out and the standby
  /// takes over even though the primary still runs -- the zombie scenario)
  /// and replicated records stop being adopted.
  void set_partitioned(bool partitioned) noexcept {
    partitioned_ = partitioned;
  }

  /// Test hook: drop the last `n` replica records, modelling a standby
  /// whose replication stream lagged further than the failure.
  void drop_replica_tail(std::size_t n) { replica_.truncate_tail(n); }

  /// The standby's controller instance (the new primary after takeover).
  core::MimicController& mc() noexcept { return *mc_; }
  const core::MimicController& mc() const noexcept { return *mc_; }
  const core::ChannelJournal& replica() const noexcept { return replica_; }

  bool active() const noexcept { return active_; }
  const core::MimicController::RecoveryReport& takeover_report() const {
    return takeover_report_;
  }

  std::uint64_t records_replicated() const noexcept {
    return records_replicated_;
  }
  std::uint64_t probes_missed() const noexcept { return probes_missed_; }

 private:
  void schedule_probe();
  void on_probe_timeout();

  core::MimicController& primary_;
  StandbyOptions options_;
  std::unique_ptr<core::MimicController> mc_;
  core::ChannelJournal replica_;

  bool started_ = false;
  bool active_ = false;
  bool partitioned_ = false;
  int missed_ = 0;
  std::uint64_t probe_seq_ = 0;
  bool probe_answered_ = false;
  /// The probe tick or the probe timeout, whichever is pending.
  sim::EventId probe_timer_ = 0;
  /// What the primary's probe replies and the replication events hold of
  /// this standby; the destructor clears it.
  std::shared_ptr<StandbyController*> token_ =
      std::make_shared<StandbyController*>(this);
  std::uint64_t records_replicated_ = 0;
  std::uint64_t probes_missed_ = 0;
  core::MimicController::RecoveryReport takeover_report_;
};

}  // namespace mic::ctrl
