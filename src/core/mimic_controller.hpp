// The Mimic Controller (MC): the core of MIC (paper Sec IV-B).
//
// The MC runs inside the SDN controller.  It manages mimic-channel state,
// computes the routing of every m-flow (path choice, MN selection,
// m-address generation via MAGA), enforces collision avoidance, installs
// the per-hop rules, runs the hidden-service map, and answers client
// establishment requests over an encrypted control channel.
#pragma once

#include <functional>
#include <string>
#include <variant>
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
  /// Compact the write-ahead channel journal whenever it grows past this
  /// many records (0 = never compact).
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

  /// Install the CF-tagged proactive routing for common flows.
  void install_default_routing();

  /// Adopt the proactive routing a predecessor already installed (the
  /// fabric keeps its rules across a controller failover): record the
  /// next-hop signatures without reinstalling anything, and arm the
  /// selective-reroute machinery.  A warm standby calls this at takeover.
  void adopt_default_routing();

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

  /// Wire the detection pipeline: every switch's async PortDown/PortUp
  /// notifications (raised by the fabric on loss of signal, after the
  /// switch-side detection latency) drive fail_link / restore_link without
  /// anyone feeding the MC by hand.  Idempotent.
  void enable_failure_detection();
  bool failure_detection_enabled() const noexcept { return detection_enabled_; }

  /// Port-status handler behind enable_failure_detection().  Duplicate
  /// reports (both ends of a switch-switch link report the same failure)
  /// and reports for links the MC already knows about are ignored.
  void on_port_status(topo::NodeId sw, topo::PortId port, bool up) override;

  /// Report a failed link.  Every mimic channel whose path crosses it is
  /// re-routed around the failure: paths and m-addresses of the affected
  /// m-flows are re-planned while the endpoint addresses (entry address,
  /// presented address, initiator ports) stay fixed, so the transport
  /// connections survive the migration transparently.  Channels that
  /// cannot be re-routed (e.g. a dead access link) are torn down and their
  /// endpoints notified.  Returns {repaired channels, lost channels};
  /// `repaired` counts successful re-plans whose rule installs are still
  /// confirming asynchronously -- an install that ultimately fails after
  /// retries demotes the channel to lost (with notification) later.
  struct RepairOutcome {
    std::size_t repaired = 0;
    std::size_t lost = 0;
  };
  RepairOutcome fail_link(topo::LinkId link);

  /// Restore a previously failed link: new channels may use it again,
  /// existing channels keep their repaired routes, and the common-flow
  /// routing is re-optimized (the failure detours do not persist).
  void restore_link(topo::LinkId link);

  /// Whole-switch failure: all incident links fail, the dead switch's
  /// soft state (its entire flow table) is purged, and every channel it
  /// carried is re-planned with MN re-selection avoiding the node.
  RepairOutcome fail_switch(topo::NodeId sw);

  /// Bring a switch back: incident links are restored and the default
  /// routing is re-installed (the rebooted switch's table starts empty).
  void restore_switch(topo::NodeId sw);

  const std::unordered_set<topo::LinkId>& failed_links() const noexcept {
    return failed_links_;
  }
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
    std::size_t links_resynced = 0;        // PHY transitions missed while down
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
  /// Mutable journal access: the durability/replication plumbing
  /// (attach_store, set_commit_listener) is wired through here.
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

  /// Channel reuse support (paper Sec IV-B1): clients mark finished
  /// channels idle instead of tearing them down; a periodic notification
  /// keeps the MC's view fresh.
  void mark_idle(ChannelId id, bool idle);

  /// Reclaim channels that have been idle longer than `max_idle` --
  /// the MC-side half of the channel-management story: reuse keeps hot
  /// channels alive, reclamation bounds the rule-table footprint.
  /// Returns the number of channels torn down.
  std::size_t reclaim_idle(sim::SimTime max_idle);

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
  /// Route + MN-position sampling, avoiding failed links.
  bool sample_route_and_positions(const PlanContext& ctx, std::size_t n,
                                  MFlowPlan& out, std::string& error);
  bool path_avoids_failures(const topo::Path& path) const;
  /// Fill forward[1..n-1] and reverse[1..n-1] from the current route.
  void generate_middle_tuples(const PlanContext& ctx, MFlowPlan& plan);
  /// Fails, with `error` set, when the m-flow ID range runs out; the
  /// decoys allocated so far stay in `plan` for release_plan_resources.
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
    std::variant<switchd::FlowRule, switchd::GroupEntry> payload;
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
                         const std::vector<HopAddresses>& hops,
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

  void release_plan_resources(const MFlowPlan& plan);
  /// Tear down a live channel as failed: remove its rules, release its
  /// resources, erase it, and notify the endpoint kLost with `reason`.
  void lose_channel(ChannelId id, const std::string& reason);
  /// Deliver `event` to the channel's listener after the control latency.
  void notify_channel_event(ChannelId id, ChannelEvent event,
                            std::string reason);
  /// Common re-plan driver for fail_link/fail_switch: re-routes every
  /// channel in `affected`, committing new rules asynchronously.
  RepairOutcome repair_channels(const std::vector<ChannelId>& affected,
                                const std::string& cause);

  /// Re-adopt one replayed channel's allocator state: flow ids, tuple
  /// fingerprints at every MN, decoys, and the two endpoint reservations.
  void adopt_channel_resources(const ChannelState& state);
  /// Align the MC's failure view with the current PHY state plus failed-
  /// switch incidence (port-status events missed while crashed); returns
  /// the number of link transitions learned.
  std::size_t resync_failure_view();
  /// True when any flow path crosses a failed link/switch (including the
  /// decoy next hops) -- such a recovered channel must be replanned, not
  /// merely reinstalled.
  bool channel_path_dead(const ChannelState& state) const;
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
  std::unordered_set<topo::LinkId> failed_links_;
  std::unordered_set<topo::NodeId> failed_switches_;
  std::unordered_map<ChannelId, ChannelListener> listeners_;
  bool default_routing_installed_ = false;
  bool detection_enabled_ = false;
  std::uint64_t requests_ = 0;
  std::uint64_t install_retries_ = 0;
  std::uint64_t channels_lost_ = 0;
  std::uint64_t channels_repaired_ = 0;

  /// Write-ahead channel journal (the in-memory stand-in for stable
  /// storage); survives crash() by definition.
  ChannelJournal journal_;
  bool crashed_ = false;
  bool deposed_ = false;
  std::uint64_t crashes_ = 0;
  RecoveryReport last_recovery_;
  ctrl::RerouteStats reroute_stats_;
};

/// The control-plane "virtual IP": clients resolve the current primary MC
/// through the directory on every control interaction, so a standby
/// takeover (fail_over_to) transparently redirects every subsequent
/// establishment, probe and teardown to the new primary -- the existing
/// watchdog/re-attach machinery in MicChannel does the rest.
class ControllerDirectory {
 public:
  explicit ControllerDirectory(MimicController& initial)
      : current_(&initial) {}

  MimicController& current() const noexcept { return *current_; }
  void fail_over_to(MimicController& mc) noexcept {
    current_ = &mc;
    ++failovers_;
  }
  std::uint64_t failovers() const noexcept { return failovers_; }

 private:
  MimicController* current_;
  std::uint64_t failovers_ = 0;
};

}  // namespace mic::core
