// The Mimic Controller (MC): the core of MIC (paper Sec IV-B).
//
// The MC runs inside the SDN controller.  It manages mimic-channel state,
// computes the routing of every m-flow (path choice, MN selection,
// m-address generation via MAGA), enforces collision avoidance, installs
// the per-hop rules, runs the hidden-service map, and answers client
// establishment requests over an encrypted control channel.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/address_restrictions.hpp"
#include "core/channel.hpp"
#include "core/channel_journal.hpp"
#include "core/maga_registry.hpp"
#include "ctrl/admission.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/l3_routing.hpp"
#include "sim/cpu.hpp"

namespace mic::core {

struct MicConfig {
  /// One-way latency between a client and the MC (dedicated control net).
  sim::SimTime control_latency = sim::microseconds(150);

  // --- crash recovery ---------------------------------------------------------
  /// Compact the write-ahead channel journal once it grows past this many
  /// records and past twice the live set its last compaction kept (0 =
  /// never compact).  A floor, not a cap: see
  /// ChannelJournal::set_compaction_threshold.
  std::size_t journal_compaction_threshold = 1024;

  // --- control-plane admission control ----------------------------------------
  /// Per-tenant token buckets and the bounded priority establish queue in
  /// front of every establishment entry point.
  /// The defaults are generous enough that ordinary workloads never
  /// saturate, which keeps every existing run bit-identical (SIM-1);
  /// tighten them to defend a real deployment (see DESIGN.md Sec 3h).
  ctrl::AdmissionConfig admission;

  // --- distributed-controller deployment (paper Sec VI-C) --------------------
  /// Distinguishes this controller instance: channel IDs, rule cookies and
  /// group IDs are derived from it so co-deployed MCs never collide.
  /// Instance i owns the group IDs [i << 24, (i + 1) << 24), so i must be
  /// below 128: the default routing owns ctrl::kL3GroupBase and up.
  std::uint32_t instance_id = 0;
  /// This instance's slice of the m-flow ID space; slices of co-deployed
  /// MCs must be disjoint.
  FlowIdRange flow_ids{};
  /// Deployment-wide MAGA secret seed.  All co-deployed MCs must share it
  /// (the hash functions are global; only the ID spaces are partitioned).
  /// 0 derives a private seed from the controller seed (single-MC setup).
  std::uint64_t shared_secret_seed = 0;
};

class MimicController : public ctrl::Controller {
 public:
  MimicController(net::Network& network, ctrl::HostAddressing addressing,
                  std::uint64_t seed, MicConfig mic_config = {},
                  ctrl::ControllerConfig ctrl_config = {});

  // --- bootstrap ------------------------------------------------------------

  /// (Re)install the CF-tagged proactive routing for common flows on every
  /// switch, derived for the current failure view, and arm the selective
  /// reroute that keeps it in step with later failures.  A warm standby
  /// calls this at takeover to replace its predecessor's rules.
  void install_default_routing();

  /// Hidden-service registration (paper Sec IV-D): the responder publishes
  /// a nickname; initiators never learn its address.
  void register_hidden_service(const std::string& name, net::Ipv4 ip,
                               net::L4Port port);

  /// First-contact key setup with a client (paper: DH/RSA exchange done in
  /// advance).  Returns the pre-shared AES key; idempotent.
  const crypto::Aes128::Key& register_client(net::Ipv4 client);

  bool client_registered(net::Ipv4 client) const {
    return client_keys_.contains(client.value);
  }

  // --- channel establishment ------------------------------------------------
  //
  // Every establishment entry point passes through the admission
  // controller first (per-tenant token buckets, bounded priority queue,
  // load shedding -- see ctrl/admission.hpp): a shed request is answered
  // with a Busy{retry_after} result instead of silence.  Probe/heartbeat
  // traffic is exempt, so an attacked tenant's live channels keep their
  // liveness detection.

  /// Synchronous planning + immediate rule install.  Used by benchmarks
  /// and tests.  Installation is all-or-nothing: if any switch rejects a
  /// rule, everything already installed is rolled back and the result
  /// carries the error.  The caller cannot wait, so admission here is
  /// admit-or-shed (a token is drawn or the result says busy).
  EstablishResult establish(const EstablishRequest& request);

  /// The full control-plane path: admission (tenant = the client address,
  /// classified before any decrypt CPU is spent), then the encrypted
  /// request is decrypted and parsed (both charged to the MC CPU), the
  /// routing computed, rules installed with southbound latency, and the
  /// callback invoked when the encrypted acknowledgement reaches the
  /// client.  `priority` is the cleartext priority class: clients mark
  /// re-establishments kRepair, which outranks fresh establishes in the
  /// admission queue.
  void async_establish(net::Ipv4 client,
                       std::vector<std::uint8_t> encrypted_request,
                       std::uint64_t message_counter,
                       std::function<void(EstablishResult)> on_result,
                       ctrl::AdmitPriority priority =
                           ctrl::AdmitPriority::kFresh);

  void teardown(ChannelId id, bool immediate = true);

  // --- failure handling (extension; the SDN controller's natural job) --------
  //
  // One rule keeps the failure view on the PHY: a link is failed iff its
  // PHY is down or an end is a failed switch, and a failed switch has
  // rebooted once the PHY shows one of its links up and every link to a
  // peer outside failed_switches() up.

  /// Port-status handler: the reported link takes the failure rule, so
  /// duplicate reports and reports the view already holds change nothing.
  void on_port_status(topo::NodeId sw, topo::PortId port) override;

  /// Report a failed link whose PHY the caller has already lowered: the
  /// link takes the failure rule, which reads the PHY.  Every mimic channel
  /// whose path crosses it is re-routed around the failure: paths and
  /// m-addresses of the affected m-flows are re-planned while the endpoint
  /// addresses (entry address, presented address, initiator ports) stay
  /// fixed, so the transport connections survive the migration
  /// transparently.  Channels that cannot be re-routed (e.g. a dead access
  /// link) are torn down and their endpoints notified.  Returns {repaired
  /// channels, lost channels}; `repaired` counts successful re-plans whose
  /// rule installs are still confirming asynchronously -- an install that
  /// ultimately fails after retries demotes the channel to lost (with
  /// notification) later.
  struct RepairOutcome {
    std::size_t repaired = 0;
    std::size_t lost = 0;
  };
  RepairOutcome fail_link(topo::LinkId link);

  /// Whole-switch failure: all incident links fail, the dead switch's
  /// soft state (its entire flow table) is purged, and every channel it
  /// carried is re-planned with MN re-selection avoiding the node.  A
  /// crashed MC still records the switch; the reaction waits for recovery.
  RepairOutcome fail_switch(topo::NodeId sw);

  /// Bring a switch back, recorded also while crashed: its links take the
  /// failure rule and the default routing is re-installed (the rebooted
  /// switch's table starts empty).
  void restore_switch(topo::NodeId sw);

  /// The links the control plane treats as down: the path engine's
  /// failure set, the one failure view every planner and the L3 app read.
  const std::unordered_set<topo::LinkId>& failed_links() const noexcept {
    return paths().failed_links();
  }
  /// Switches reported dead and not yet rebooted (a standby's starts empty).
  const std::unordered_set<topo::NodeId>& failed_switches() const noexcept {
    return failed_switches_;
  }

  enum class ChannelEvent : std::uint8_t {
    kRepaired,  // re-routed around a failure; entry addresses unchanged
    kLost,      // unrepairable or reclaimed; the channel no longer exists
  };
  using ChannelListener =
      std::function<void(ChannelEvent, const std::string& reason)>;

  // --- crash recovery (journal + switch resync) -------------------------------
  //
  // The MC is the one node that knows every channel's path, MNs and
  // m-addresses; a restart must not strand the rewrite rules it installed.
  // Every establish/repair/teardown is committed to a write-ahead channel
  // journal first; `crash()` drops all soft state (channels, listeners,
  // endpoint reservations, MAGA allocations) while the switches keep
  // forwarding with the rules already installed; `recover(journal)`
  // replays the log, re-adopts the allocators, dumps every switch's flow
  // table and three-way-diffs it against the replayed image: verified
  // rules are kept, journaled-but-missing (or mismatched) rules are
  // re-issued through the transactional install path, and unknown cookies
  // -- including those a truncated journal can no longer explain -- are
  // torn down.  While crashed, every control-plane entry point is silent
  // (requests are dropped, not refused), which is what the client-side
  // timeout machinery detects.

  struct RecoveryReport {
    std::size_t channels_recovered = 0;    // adopted from the journal
    std::size_t channels_kept = 0;         // rules verified in place
    std::size_t channels_reinstalled = 0;  // missing/mismatched; re-issued
    std::size_t channels_replanned = 0;    // path dead; routed via repair
    std::size_t channels_lost = 0;         // replan failed; torn down
    std::size_t orphan_rules_removed = 0;  // entries with unknown cookies
    std::size_t switches_resynced = 0;     // dump RPCs issued
    std::size_t links_resynced = 0;        // link transitions missed while down
  };

  /// Simulate an MC process crash: all soft state is lost, the journal
  /// (stable storage) and the deployment config survive, and every control
  /// entry point goes silent until recover().
  void crash();
  bool crashed() const noexcept { return crashed_; }

  /// Restart from a journal (normally `journal()`, possibly truncated by
  /// the harness to model a crash mid-commit).  Replays the log, re-adopts
  /// ids/tuples/endpoints, resyncs the failure view against the PHY, and
  /// reconciles every switch's flow table (keep / reinstall / delete).
  RecoveryReport recover(const ChannelJournal& journal);

  const ChannelJournal& journal() const noexcept { return journal_; }
  /// Mutable journal access: the standby's replication stream
  /// (set_commit_listener) is wired through here.
  ChannelJournal& journal() noexcept { return journal_; }
  std::uint64_t crashes() const noexcept { return crashes_; }
  const RecoveryReport& last_recovery() const noexcept {
    return last_recovery_;
  }

  /// Copy the deployment directory (client keys, hidden services, CF
  /// labels) from another controller instance.  A warm standby mirrors the
  /// primary's directory at takeover: these are provisioning-time facts
  /// that survive even a crashed primary (they are not soft state), so the
  /// standby serves existing clients without re-registration.
  void mirror_directory_from(const MimicController& other);

  /// A switch refused one of our ops: a newer-epoch controller owns the
  /// tables.  The MC steps down (schedules an immediate self-crash) rather
  /// than fighting the new primary -- the zombie-ex-primary defence.
  void on_fenced_out(topo::NodeId sw) override;
  /// True once this instance observed a fence rejection and stepped down.
  bool deposed() const noexcept { return deposed_; }

  /// The construction seed (a standby must be built with the primary's
  /// seed so both derive identical MAGA deployment secrets).
  std::uint64_t seed() const noexcept { return seed_; }

  /// The controller that serves this one's clients now: the end of its
  /// successor chain, which a standby that takes over extends (see
  /// ctrl::StandbyController).  Clients resolve it on every control
  /// interaction, so a takeover redirects them without reconfiguration.
  MimicController& current() noexcept {
    return successor_ != nullptr ? successor_->current() : *this;
  }
  MimicController* successor() const noexcept { return successor_; }
  void set_successor(MimicController* next) noexcept { successor_ = next; }

  /// Control-channel liveness probe: answers (after a control round trip)
  /// whether `id` is still a live channel, re-registering `listener` on
  /// the way -- how a surviving client re-attaches after an MC restart
  /// wiped its subscription.  Silently dropped while crashed.
  void probe_channel(ChannelId id, ChannelListener listener,
                     std::function<void(bool alive)> on_result);

  /// RC-1 ground truth: verify that every switch this channel touches
  /// holds exactly its expected rule set (content-compared; SELECT/ALL
  /// group references are compared through their buckets, since group ids
  /// are re-allocated on reinstall).  Appends human-readable violations;
  /// returns the number of table entries checked.
  std::size_t verify_channel_rules(const ChannelState& state,
                                   std::vector<std::string>* violations);

  // --- endpoint notification ------------------------------------------------

  /// Register the endpoint-side listener for one channel (the client
  /// library does this).  Events are delivered after the control-channel
  /// latency.  One listener per channel; re-registering replaces.
  void set_channel_listener(ChannelId id, ChannelListener listener);
  void clear_channel_listener(ChannelId id);

  // --- introspection ----------------------------------------------------------

  const ChannelState* channel(ChannelId id) const;
  std::size_t active_channel_count() const noexcept { return channels_.size(); }
  /// Live channel IDs, ascending (the orphan-rule audit's ground truth).
  std::vector<ChannelId> channel_ids() const;
  std::uint64_t requests_handled() const noexcept { return requests_; }
  std::uint64_t install_retries() const noexcept { return install_retries_; }
  std::uint64_t channels_lost() const noexcept { return channels_lost_; }
  std::uint64_t channels_repaired() const noexcept {
    return channels_repaired_;
  }
  /// Cumulative selective-reroute counters of the L3 routing app
  /// (TableStats-style: scanned vs actually reinstalled switches).
  const ctrl::RerouteStats& reroute_stats() const noexcept {
    return reroute_stats_;
  }

  MagaRegistry& registry() noexcept { return registry_; }
  const AddressRestrictions& restrictions() const noexcept {
    return restrictions_;
  }
  sim::CpuMeter& mc_cpu() noexcept { return mc_cpu_; }
  const MicConfig& mic_config() const noexcept { return mic_config_; }
  /// The admission controller in front of the establishment entry points
  /// (AC-1's ground truth; mutable for the negative-test debug hooks).
  ctrl::AdmissionController& admission() noexcept { return admission_; }
  const ctrl::AdmissionController& admission() const noexcept {
    return admission_;
  }

  /// CF label policy handed to the L3 routing app (cached per host).
  net::MplsLabel cf_label_for(topo::NodeId host);

 private:
  struct PlanContext {
    topo::NodeId initiator;
    topo::NodeId responder;
    net::Ipv4 initiator_ip;
    net::Ipv4 responder_ip;
    net::L4Port responder_port;
  };

  bool plan_mflow(const PlanContext& ctx, int mn_count,
                  net::L4Port initiator_sport, int decoys, MFlowPlan& out,
                  std::string& error);
  /// Route + MN-position sampling, avoiding failed links and switches.
  bool sample_route_and_positions(const PlanContext& ctx, std::size_t n,
                                  MFlowPlan& out, std::string& error);
  /// The one failure predicate: true when `path` crosses a link in
  /// `links`, passes a switch in `switches`, or one of `decoys` parks its
  /// drop rule on such a switch (a plan's reverse direction walks the same
  /// links).  Route sampling and recovery ask it about the whole failure
  /// view, failure_transition about what just died.
  bool failure_hits(const topo::Path& path, std::span<const DecoyPlan> decoys,
                    const std::unordered_set<topo::LinkId>& links,
                    const std::unordered_set<topo::NodeId>& switches) const;
  /// Draw an endpoint address and port nobody holds and reserve it under
  /// `key(ip, port)`.  Candidates are the `plausible` addresses minus both
  /// participants, or every host but `owner` when that leaves none.
  /// nullopt once kMaxEndpointTries draws all collided.
  template <typename Key>
  std::optional<std::pair<net::Ipv4, net::L4Port>> draw_endpoint(
      const PlanContext& ctx, const std::vector<net::Ipv4>& plausible,
      net::Ipv4 owner, Key key);
  /// Fill forward[1..n-1] and reverse[1..n-1] from the current route.
  void generate_middle_tuples(const PlanContext& ctx, MFlowPlan& plan);
  /// Fails, with `error` set, when the m-flow ID range runs out; the
  /// decoys allocated so far stay in `plan` for the caller to release.
  bool generate_decoys(int count, MFlowPlan& plan, std::string& error);
  /// Re-route one m-flow around failures, keeping endpoints and flow ID.
  bool replan_flow(const PlanContext& ctx, MFlowPlan& plan,
                   std::string& error);

  // --- transactional installs -----------------------------------------------
  //
  // Rule installation for a channel is staged: install_flow/install_direction
  // emit the ops a plan needs, and a commit applies them all-or-nothing.  On
  // any rejection the partial install is rolled back by cookie and retried
  // (capped exponential backoff with seeded jitter), up to
  // kInstallRetryLimit attempts.
  struct InstallOp {
    topo::NodeId sw;
    switchd::TableEntry payload;
  };
  /// `group_alloc` is the group-id allocator: the live install paths pass
  /// next_group_, verification passes a scratch counter (group identity is
  /// compared through bucket content, never by id).
  void install_flow(ChannelId id, const MFlowPlan& plan,
                    std::vector<InstallOp>& ops,
                    std::uint32_t& group_alloc) const;
  PlanContext context_of(const ChannelState& state) const;
  void install_direction(ChannelId id, const topo::Path& path,
                         const std::vector<std::size_t>& mn_positions,
                         const std::vector<MTuple>& hops,
                         const std::vector<DecoyPlan>& decoys,
                         std::vector<InstallOp>& ops,
                         std::uint32_t& group_alloc) const;
  /// Nodes an op list touches (deduplicated) -- the rollback scope.
  std::vector<topo::NodeId> touched_switches(
      const std::vector<InstallOp>& ops) const;
  /// Synchronous all-or-nothing commit (the benchmark/test path): applies
  /// every op immediately; on any rejection removes `cookie` from every
  /// touched switch and returns false.  No retries -- the caller sees the
  /// failure synchronously.
  bool commit_now(std::uint64_t cookie, const std::vector<InstallOp>& ops);
  /// Asynchronous commit of channel `id`'s rules (cookie == id) over the
  /// checked southbound path.  Retries with backoff on failure;
  /// `on_done(true)` once every op is confirmed, `on_done(false)` after
  /// the retry budget is exhausted (the partial install rolled back) or
  /// when `txn` no longer matches the channel's install generation (torn
  /// down or superseded by a repair -- the new owner manages the cookie,
  /// so the stale commit touches nothing).
  void commit_async(ChannelId id, std::uint64_t txn,
                    std::vector<InstallOp> ops,
                    std::function<void(bool)> on_done, int attempt = 1);
  /// Request validation + planning + channel registration shared by the
  /// sync and async establishment paths.  On success the channel is live
  /// in channels_ (install_txn == 1) and `ops` holds its uncommitted rules.
  EstablishResult plan_channel(const EstablishRequest& request,
                               std::vector<InstallOp>& ops);
  /// The post-admission async establishment body (decrypt, CPU charge,
  /// plan, commit, ack), invoked by the admission controller inline when
  /// unsaturated or from the drain when a queued request's turn comes.
  /// Releases its admission service slot at the terminal points.
  void service_establish(net::Ipv4 client, std::vector<std::uint8_t> bytes,
                         std::uint64_t message_counter,
                         std::function<void(EstablishResult)> on_result);
  /// Backoff before retry `attempt` (1-based): base * 2^(attempt-1),
  /// clamped to the cap, plus seeded jitter, plus one southbound latency so
  /// the rollback flow-mods land before identical rules are re-sent.
  sim::SimTime retry_delay(int attempt);

  /// What a plan holds: its flow ID, its middle tuples, each decoy's ID and
  /// tuple, and its two endpoint reservations.  walk_holdings visits them
  /// in that order -- the registry's free list is LIFO, so the release
  /// order decides every later ID.
  enum class Holdings : std::uint8_t {
    kRelease,       // give everything back
    kReleaseRoute,  // only the middle tuples and decoys (a replan keeps
                    // the flow ID and endpoints)
    kAdopt,         // take everything again (recovery)
  };
  void walk_holdings(const MFlowPlan& plan, Holdings action);

  /// How drop_channel pulls the channel's rules.
  enum class RuleRemoval : std::uint8_t { kImmediate, kDeferred, kSkip };
  /// Drop a live channel: journal its teardown, pull its rules as
  /// `removal` says, release its holdings and erase it.  Listener cleanup
  /// is the caller's.  False when `id` is not live.
  bool drop_channel(ChannelId id, RuleRemoval removal);
  /// Tear down a live channel as failed: drop it, and notify the endpoint
  /// kLost with `reason`.
  void lose_channel(ChannelId id, const std::string& reason);
  /// Deliver `event` to the channel's listener after the control latency.
  void notify_channel_event(ChannelId id, ChannelEvent event,
                            std::string reason);
  /// Re-plan driver for failure_transition and recovery: re-routes every
  /// channel in `affected`, committing new rules asynchronously.
  RepairOutcome repair_channels(const std::vector<ChannelId>& affected,
                                const std::string& cause);
  /// Reissue a live channel's rules from its current plans under a fresh
  /// install generation (journaled as a repair), committed
  /// asynchronously.  A commit that fails after retries loses the channel
  /// with `cause`; with `repair` set, success counts a repair and notifies
  /// kRepaired.
  void reissue_rules(ChannelState& state, std::string cause, bool repair);
  /// The one failure-view transition.  fail_switch and apply_failure_rule
  /// record their change in the failure view (the path engine's
  /// failed-link set and failed_switches_) and then call this once with
  /// what newly died: it runs the L3 reroute for the new view, then
  /// repairs, in channel-ID order, every channel failure_hits says those
  /// links or switches hit.
  RepairOutcome failure_transition(
      const std::unordered_set<topo::LinkId>& dead_links,
      const std::unordered_set<topo::NodeId>& dead_switches,
      const std::string& cause);
  /// Apply the failure rule to `links` and to every link of a failed
  /// switch at their ends that has rebooted (silent while crashed).  Takes
  /// one failure_transition if any link changed state, and stores how many
  /// did in `changed`.
  RepairOutcome apply_failure_rule(std::vector<topo::LinkId> links,
                                   std::size_t* changed = nullptr);
  /// Run the L3 selective reroute and fold its counters into
  /// reroute_stats_.
  void reroute_default_routing();

  MicConfig mic_config_;
  std::uint64_t seed_;
  Rng rng_;
  MagaRegistry registry_;
  AddressRestrictions restrictions_;
  sim::CpuMeter mc_cpu_;
  ctrl::AdmissionController admission_;

  ChannelId next_channel_ = 1;
  std::uint32_t next_group_ = 1;
  std::unordered_map<ChannelId, ChannelState> channels_;
  std::unordered_map<std::string, std::pair<net::Ipv4, net::L4Port>>
      hidden_services_;
  std::unordered_map<std::uint32_t, crypto::Aes128::Key> client_keys_;
  std::unordered_map<topo::NodeId, net::MplsLabel> cf_labels_;
  /// Reserved (src endpoint, dst endpoint) pairs: entry addresses and
  /// presented addresses, so two channels can never share one.
  std::unordered_set<std::uint64_t> reserved_endpoints_;
  std::unordered_set<topo::NodeId> failed_switches_;
  std::unordered_map<ChannelId, ChannelListener> listeners_;
  bool default_routing_installed_ = false;
  std::uint64_t requests_ = 0;
  std::uint64_t install_retries_ = 0;
  std::uint64_t channels_lost_ = 0;
  std::uint64_t channels_repaired_ = 0;

  /// Write-ahead channel journal (the in-memory stand-in for stable
  /// storage); survives crash() by definition.
  ChannelJournal journal_;
  bool crashed_ = false;
  bool deposed_ = false;
  MimicController* successor_ = nullptr;
  std::uint64_t crashes_ = 0;
  RecoveryReport last_recovery_;
  ctrl::RerouteStats reroute_stats_;
};

}  // namespace mic::core
