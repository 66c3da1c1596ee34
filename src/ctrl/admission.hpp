// Control-plane admission control (the server half of the PR-5 survival
// story): at millions of users the Mimic Controller is the obvious DoS
// target -- every establishment funnels through one control channel, so a
// burst of establish requests, or a slowloris-style trickle of half-open
// control sessions, starves honest channels long before the data plane
// saturates (HORNET treats control-plane DoS as a first-class constraint
// for network-layer anonymity; see PAPERS.md).
//
// AdmissionController sits in front of every MimicController establishment
// entry point and provides three defenses:
//
//   1. Per-tenant token buckets (tenant = client IPv4): each tenant earns
//      `tenant_rate` establishments/sec up to a burst of `tenant_burst`,
//      plus a quota on pending work (queued + in service), so one tenant's
//      flood can never consume another tenant's budget.
//   2. A bounded establish work queue with two priority classes --
//      re-establishments of lost channels (kRepair) outrank fresh
//      establishes (kFresh) -- and explicit load-shedding: a rejected
//      request is answered with Busy{retry_after} instead of silence, so
//      honest clients back off for exactly as long as the server asks.
//   3. A half-open control-session tracker with an idle reaper riding the
//      timing-wheel timers: a client that opens a control exchange and then
//      trickles (or goes quiet) is reaped after `half_open_timeout`, so
//      slow-client attacks cannot pin MC state.
//
// Determinism contract (SIM-1): when enabled but unsaturated -- tokens
// available, queue empty, service slots free -- offer() admits the request
// synchronously on the caller's event, draws no randomness and arms no
// timers, so every existing chaos-soak trace hash replays bit-identical
// with admission control on.  Only saturated paths (queueing, shedding,
// reaping) schedule anything.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "net/addr.hpp"
#include "sim/simulator.hpp"

namespace mic::ctrl {

/// Priority class of one establishment request.  Carried in the clear
/// (the MC must classify *before* spending decrypt CPU on the request --
/// that is the whole point of admission control), so it is advisory: a
/// malicious tenant can claim kRepair, but the per-tenant token bucket
/// bounds what that buys it to its own budget.
enum class AdmitPriority : std::uint8_t {
  kRepair = 0,  // re-establishment of a lost channel
  kFresh = 1,   // first-time establishment
};

struct AdmissionConfig {
  /// Master switch.  Disabled short-circuits every limit (pure accounting
  /// pass-through); the defaults below are generous enough that ordinary
  /// workloads never saturate, which is the SIM-1 bit-identity regime.
  bool enabled = true;

  // --- per-tenant token bucket -----------------------------------------------
  /// Establishment tokens earned per second per tenant.
  double tenant_rate = 50'000.0;
  /// Bucket capacity: the largest burst one tenant can fire instantly.
  double tenant_burst = 4096.0;
  /// Max pending establishments (queued + in service) per tenant.
  std::size_t tenant_pending_quota = 1024;

  // --- bounded establish work queue ------------------------------------------
  /// Requests waiting for tokens or service slots, across all tenants.
  /// 0 disables queueing entirely (admit-or-shed).
  std::size_t queue_capacity = 4096;
  /// Establishments concurrently in the plan/install pipeline.
  std::size_t max_in_service = 1024;
  /// Floor for the retry_after hint a shed request carries back.
  sim::SimTime retry_after_floor = sim::milliseconds(2);

  // --- half-open control sessions --------------------------------------------
  std::size_t max_half_open_sessions = 4096;
  std::size_t tenant_half_open_quota = 64;
  /// Idle deadline: a session neither completed nor touched for this long
  /// is reaped.
  sim::SimTime half_open_timeout = sim::milliseconds(20);
};

class AdmissionController {
 public:
  using ControlSessionId = std::uint64_t;

  AdmissionController(sim::Simulator& simulator, AdmissionConfig config);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // --- establishment admission ------------------------------------------------

  /// Offer one asynchronous establishment.  Exactly one of `run` / `shed`
  /// is eventually invoked: `run` synchronously when unsaturated (or later
  /// when a queued request drains), `shed(retry_after)` synchronously when
  /// the request is rejected -- and also for a queued request evicted by a
  /// higher-priority arrival, or dropped by reset().  An admitted caller
  /// must call finish(tenant, epoch) once its service completes, with
  /// epoch() captured at admission time.
  void offer(net::Ipv4 tenant, AdmitPriority priority,
             std::function<void()> run,
             std::function<void(sim::SimTime)> shed);

  /// Synchronous admission (MimicController::establish): the caller
  /// cannot wait, so there is no queueing -- a token is drawn now or the
  /// request is shed.  Service is instantaneous from the admission
  /// controller's view (no finish() call).
  struct Ticket {
    bool admitted = false;
    sim::SimTime retry_after = 0;
  };
  Ticket offer_sync(net::Ipv4 tenant);

  /// An admitted asynchronous establishment completed (acked or failed).
  /// Stale epochs (service that straddled a reset()) are ignored.
  void finish(net::Ipv4 tenant, std::uint64_t epoch);
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Heartbeat / probe traffic is exempt from the token buckets -- an
  /// attacked tenant's live channels must not lose liveness detection.
  /// Counted so AC-1 can report the exemption is exercised.
  void note_exempt() { ++stats_.exempt; }

  // --- half-open control sessions ---------------------------------------------

  /// A client opened a control exchange but has not delivered the full
  /// request yet.  Returns 0 (rejected) when the global or per-tenant
  /// half-open quota is exhausted; otherwise the session id, with the idle
  /// reaper armed.
  ControlSessionId open_session(net::Ipv4 tenant);
  /// Activity on a half-open session (a trickled fragment): pushes the
  /// idle deadline out.  False if the session was already reaped.
  bool touch_session(ControlSessionId id);
  /// The full request arrived: the session leaves the tracker and the
  /// reaper is disarmed.  False if the session was already reaped -- the
  /// caller must then drop the request (the MC forgot the exchange).
  bool complete_session(ControlSessionId id);

  // --- crash semantics ----------------------------------------------------------
  /// MC crash: all admission state is soft.  Queued requests are dropped
  /// silently (the dead MC answers nothing -- clients detect via their
  /// watchdogs), sessions and reaper timers die, buckets and counters are
  /// wiped, and the epoch is bumped so in-flight finish() calls from the
  /// previous life cannot corrupt the new one.
  void reset();

  // --- introspection (AC-1's ground truth) -------------------------------------

  struct Stats {
    std::uint64_t offered = 0;   // every offer() / offer_sync()
    std::uint64_t admitted = 0;  // entered service (inline or via drain)
    std::uint64_t shed = 0;      // answered Busy{retry_after}
    std::uint64_t exempt = 0;    // probe/heartbeat fast-path passes
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_completed = 0;
    std::uint64_t sessions_reaped = 0;
    std::uint64_t sessions_rejected = 0;  // over half-open quota
  };
  const Stats& stats() const noexcept { return stats_; }
  const AdmissionConfig& config() const noexcept { return config_; }

  std::size_t queued_count() const noexcept {
    return repair_queue_.size() + fresh_queue_.size();
  }
  std::size_t half_open_count() const noexcept { return sessions_.size(); }

  /// Per-tenant view, sorted by tenant address (deterministic order for
  /// audit messages).
  struct TenantSnapshot {
    std::uint32_t tenant = 0;
    std::size_t pending = 0;    // queued + in service
    std::size_t half_open = 0;
    double tokens = 0.0;        // balance at the last refill
  };
  std::vector<TenantSnapshot> tenant_snapshot() const;

  /// Session ids whose idle deadline lies strictly in the past -- at
  /// quiescence the reaper has fired for every expired session, so any
  /// survivor here is a leak (AC-1 violation).  Sorted ascending.
  std::vector<ControlSessionId> zombie_sessions() const;

  // --- AC-1 negative-test hooks -------------------------------------------------
  /// Corrupt the books the way a quota-bypass bug would: record an
  /// admission driving `tenant` past its pending quota.  AC-1 must flag it.
  void debug_force_admit(net::Ipv4 tenant);
  /// Leak a half-open session the way a lost reaper timer would: the
  /// session is tracked, expired, and no timer will ever reap it.  AC-1
  /// must flag it.
  ControlSessionId debug_leak_session(net::Ipv4 tenant);

 private:
  struct Bucket {
    double tokens = 0.0;
    sim::SimTime refilled_at = 0;
    std::size_t pending = 0;  // queued + in service
    std::size_t half_open = 0;
    bool primed = false;  // first sighting starts with a full bucket
  };
  struct QueuedRequest {
    net::Ipv4 tenant;
    AdmitPriority priority = AdmitPriority::kFresh;
    std::function<void()> run;
    std::function<void(sim::SimTime)> shed;
  };
  struct Session {
    net::Ipv4 tenant;
    sim::SimTime deadline = 0;
    sim::EventId reaper = 0;
  };

  Bucket& bucket_of(net::Ipv4 tenant);
  /// Refill `bucket` up to now; returns it for chaining.
  void refill(Bucket& bucket);
  bool take_token(Bucket& bucket);
  /// Time until `bucket` holds >= 1 token (0 when it already does).
  sim::SimTime token_wait(const Bucket& bucket) const;
  sim::SimTime retry_hint(const Bucket& bucket) const;
  /// Admit every runnable queued request (repairs first), then arm the
  /// drain timer for the earliest token if anything is still waiting.
  void drain_queue();
  void arm_drain_timer(sim::SimTime at);
  void reap_session(ControlSessionId id);

  sim::Simulator& sim_;
  AdmissionConfig config_;
  Stats stats_;
  std::uint64_t epoch_ = 1;

  /// std::map: tenant_snapshot() and AC-1 walk it in deterministic order.
  std::map<std::uint32_t, Bucket> tenants_;
  std::deque<QueuedRequest> repair_queue_;
  std::deque<QueuedRequest> fresh_queue_;
  std::size_t in_service_ = 0;
  sim::EventId drain_timer_ = 0;
  sim::SimTime drain_at_ = 0;

  std::map<ControlSessionId, Session> sessions_;
  ControlSessionId next_session_ = 1;
};

}  // namespace mic::ctrl
