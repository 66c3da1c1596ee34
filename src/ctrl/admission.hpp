// Control-plane admission control (the server half of the PR-5 survival
// story): at millions of users the Mimic Controller is the obvious DoS
// target -- every establishment funnels through one control channel, so a
// burst of establish requests starves honest channels long before the data
// plane saturates (HORNET treats control-plane DoS as a first-class
// constraint for network-layer anonymity; see PAPERS.md).
//
// AdmissionController sits in front of every MimicController establishment
// entry point and provides two defenses:
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
//
// Determinism contract (SIM-1): when unsaturated -- tokens
// available, queue empty, service slots free -- offer() admits the request
// synchronously on the caller's event, draws no randomness and arms no
// timers, so every existing chaos-soak trace hash replays bit-identical
// with admission control on.  Only saturated paths (queueing, shedding)
// schedule anything.
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

/// Floor for the retry_after hint a shed request carries back.
inline constexpr sim::SimTime kRetryAfterFloor = sim::milliseconds(2);

/// The defaults are generous enough that ordinary workloads never
/// saturate, which is the SIM-1 bit-identity regime.
struct AdmissionConfig {
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
};

class AdmissionController {
 public:
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

  // --- crash semantics ----------------------------------------------------------
  /// MC crash: all admission state is soft.  Queued requests are dropped
  /// silently (the dead MC answers nothing -- clients detect via their
  /// watchdogs), the drain timer dies, buckets and counters are wiped, and
  /// the epoch is bumped so in-flight finish() calls from the previous life
  /// cannot corrupt the new one.
  void reset();

  // --- introspection (AC-1's ground truth) -------------------------------------

  struct Stats {
    std::uint64_t offered = 0;   // every offer() / offer_sync()
    std::uint64_t admitted = 0;  // entered service (inline or via drain)
    std::uint64_t shed = 0;      // answered Busy{retry_after}
    std::uint64_t exempt = 0;    // probe/heartbeat fast-path passes
  };
  const Stats& stats() const noexcept { return stats_; }
  const AdmissionConfig& config() const noexcept { return config_; }

  std::size_t queued_count() const noexcept {
    return repair_queue_.size() + fresh_queue_.size();
  }

  /// Per-tenant view, sorted by tenant address (deterministic order for
  /// audit messages).
  struct TenantSnapshot {
    std::uint32_t tenant = 0;
    std::size_t pending = 0;    // queued + in service
    double tokens = 0.0;        // balance at the last refill
  };
  std::vector<TenantSnapshot> tenant_snapshot() const;

  // --- AC-1 negative-test hook --------------------------------------------------
  /// Corrupt the books the way a quota-bypass bug would: record an
  /// admission driving `tenant` past its pending quota.  AC-1 must flag it.
  void debug_force_admit(net::Ipv4 tenant);

 private:
  struct Bucket {
    double tokens = 0.0;
    sim::SimTime refilled_at = 0;
    std::size_t pending = 0;  // queued + in service
    bool primed = false;  // first sighting starts with a full bucket
  };
  struct QueuedRequest {
    net::Ipv4 tenant;
    AdmitPriority priority = AdmitPriority::kFresh;
    std::function<void()> run;
    std::function<void(sim::SimTime)> shed;
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
};

}  // namespace mic::ctrl
