#include "ctrl/standby.hpp"

#include "common/log.hpp"

namespace mic::ctrl {

namespace {
/// How long one probe waits for the primary's reply before counting as
/// missed.  Must exceed two control-channel round trips.
constexpr sim::SimTime kHeartbeatTimeout = sim::milliseconds(1);
/// Consecutive missed probes before the standby declares the primary dead
/// and takes over.
constexpr int kMissedHeartbeatBudget = 3;
}  // namespace

StandbyController::StandbyController(core::MimicController& primary,
                                     core::ControllerDirectory& directory,
                                     StandbyOptions options)
    : primary_(primary),
      directory_(&directory),
      options_(options),
      mc_(std::make_unique<core::MimicController>(
          primary.network(), primary.addressing(), primary.seed(),
          primary.mic_config(), primary.config())) {}

StandbyController::~StandbyController() {
  // take_over() already detached; a follower that dies first must too, or
  // the primary's next commit calls into freed memory.
  if (started_ && !active_) primary_.journal().set_commit_listener(nullptr);
}

void StandbyController::start() {
  if (started_) return;
  started_ = true;
  // Tail the committed stream.  The listener fires at the primary, so the
  // record crosses the replication channel before the replica adopts it;
  // records committed before start() are caught up through the same path.
  primary_.journal().set_commit_listener(
      [this](const core::JournalRecord& record) {
        // Deposed generations don't replicate, and a partition drops the
        // record.
        if (active_ || partitioned_) return;
        mc_->network().simulator().schedule_in(
            options_.replication_lag, [this, record] {
              if (active_ || partitioned_) return;
              replica_.adopt_record(record);
              ++records_replicated_;
            });
      });
  if (options_.heartbeat_interval > 0) schedule_probe();
}

void StandbyController::schedule_probe() {
  if (active_) return;
  mc_->network().simulator().schedule_in(options_.heartbeat_interval, [this] {
    if (active_) return;
    const std::uint64_t seq = ++probe_seq_;
    probe_answered_ = false;
    // probe_channel(0, ...) always answers alive=false from a live MC and
    // stays silent from a crashed one -- any reply at all is proof of life.
    primary_.probe_channel(0, nullptr, [this, seq](bool) {
      if (partitioned_) return;  // the reply is lost in the partition
      if (seq == probe_seq_) probe_answered_ = true;
    });
    mc_->network().simulator().schedule_in(
        kHeartbeatTimeout, [this, seq] { on_probe_timeout(seq); });
  });
}

void StandbyController::on_probe_timeout(std::uint64_t seq) {
  if (active_ || seq != probe_seq_) return;
  if (probe_answered_) {
    missed_ = 0;
  } else {
    ++probes_missed_;
    if (++missed_ >= kMissedHeartbeatBudget) {
      take_over("missed-heartbeat budget exhausted");
      return;
    }
  }
  schedule_probe();
}

bool StandbyController::take_over(const std::string& reason) {
  if (active_) return false;
  active_ = true;
  log_warn("standby takeover (%s): replica holds %zu records",
           reason.c_str(), replica_.size());

  // Detach from the old primary first: whatever it commits from here on
  // belongs to a deposed generation and must not leak into the replica.
  primary_.journal().set_commit_listener(nullptr);

  // Provisioning-time directory state (client keys, hidden services, CF
  // labels) is shared deployment config, not soft state.
  mc_->mirror_directory_from(primary_);

  // The fabric still holds the old primary's proactive L3 rules; adopt
  // their signatures rather than reinstalling duplicates.
  mc_->adopt_default_routing();

  // Replay the replica through the ordinary crash-recovery path: switch
  // dumps reconcile a stale replica against reality, the journal epoch is
  // bumped, and every resynced switch is fenced under it (so a zombie
  // ex-primary's next op is refused and it steps down).
  if (!mc_->crashed()) mc_->crash();
  takeover_report_ = mc_->recover(replica_);

  if (primary_.failure_detection_enabled()) mc_->enable_failure_detection();
  if (directory_ != nullptr) directory_->fail_over_to(*mc_);
  return true;
}

}  // namespace mic::ctrl
