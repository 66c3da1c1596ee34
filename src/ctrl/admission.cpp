#include "ctrl/admission.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace mic::ctrl {

AdmissionController::AdmissionController(sim::Simulator& simulator,
                                         AdmissionConfig config)
    : sim_(simulator), config_(config) {
  MIC_ASSERT(config_.tenant_rate >= 0.0 && config_.tenant_burst >= 1.0);
}

AdmissionController::Bucket& AdmissionController::bucket_of(net::Ipv4 tenant) {
  Bucket& bucket = tenants_[tenant.value];
  if (!bucket.primed) {
    // A tenant's first sighting starts with a full bucket: the burst
    // capacity is the steady-state budget, not something to be earned.
    bucket.tokens = config_.tenant_burst;
    bucket.refilled_at = sim_.now();
    bucket.primed = true;
  }
  return bucket;
}

void AdmissionController::refill(Bucket& bucket) {
  const sim::SimTime now = sim_.now();
  if (now <= bucket.refilled_at) return;
  const double elapsed_s =
      static_cast<double>(now - bucket.refilled_at) * 1e-9;
  bucket.tokens = std::min(config_.tenant_burst,
                           bucket.tokens + config_.tenant_rate * elapsed_s);
  bucket.refilled_at = now;
}

bool AdmissionController::take_token(Bucket& bucket) {
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

sim::SimTime AdmissionController::token_wait(const Bucket& bucket) const {
  if (bucket.tokens >= 1.0) return 0;
  if (config_.tenant_rate <= 0.0) return sim::seconds(1);  // never refills
  const double deficit = 1.0 - bucket.tokens;
  const double ns = std::ceil(deficit / config_.tenant_rate * 1e9);
  return static_cast<sim::SimTime>(std::max(ns, 1.0));
}

sim::SimTime AdmissionController::retry_hint(const Bucket& bucket) const {
  return std::max(kRetryAfterFloor, token_wait(bucket));
}

void AdmissionController::offer(net::Ipv4 tenant, AdmitPriority priority,
                                std::function<void()> run,
                                std::function<void(sim::SimTime)> shed) {
  ++stats_.offered;
  Bucket& bucket = bucket_of(tenant);
  refill(bucket);

  if (bucket.pending >= config_.tenant_pending_quota) {
    ++stats_.shed;
    shed(retry_hint(bucket));
    return;
  }

  // Unsaturated fast path: nothing queued ahead, a service slot free, a
  // token available.  Runs on the caller's event with no timers and no
  // randomness -- the SIM-1 bit-identity regime.
  if (queued_count() == 0 && in_service_ < config_.max_in_service &&
      take_token(bucket)) {
    ++stats_.admitted;
    ++in_service_;
    ++bucket.pending;
    run();
    return;
  }

  // Saturated: queue if the bounded queue has room, shedding the youngest
  // queued fresh request when a repair needs its slot.
  if (queued_count() >= config_.queue_capacity) {
    if (priority == AdmitPriority::kRepair && !fresh_queue_.empty()) {
      QueuedRequest evicted = std::move(fresh_queue_.back());
      fresh_queue_.pop_back();
      Bucket& victim = bucket_of(evicted.tenant);
      MIC_ASSERT(victim.pending > 0);
      --victim.pending;
      ++stats_.shed;
      refill(victim);
      evicted.shed(retry_hint(victim));
    } else {
      ++stats_.shed;
      shed(retry_hint(bucket));
      return;
    }
  }
  ++bucket.pending;
  auto& queue =
      priority == AdmitPriority::kRepair ? repair_queue_ : fresh_queue_;
  queue.push_back(
      QueuedRequest{tenant, priority, std::move(run), std::move(shed)});
  // The new arrival may itself be runnable (it only queued because older
  // requests from token-dry tenants hold the queue) -- let the drain
  // decide, and arm the refill timer for whatever still waits.
  drain_queue();
}

AdmissionController::Ticket AdmissionController::offer_sync(net::Ipv4 tenant) {
  ++stats_.offered;
  Bucket& bucket = bucket_of(tenant);
  refill(bucket);
  if (!take_token(bucket)) {
    ++stats_.shed;
    return Ticket{false, retry_hint(bucket)};
  }
  ++stats_.admitted;
  return Ticket{true, 0};
}

void AdmissionController::finish(net::Ipv4 tenant, std::uint64_t epoch) {
  if (epoch != epoch_) return;  // service that straddled a reset()
  MIC_ASSERT(in_service_ > 0);
  --in_service_;
  Bucket& bucket = bucket_of(tenant);
  MIC_ASSERT(bucket.pending > 0);
  --bucket.pending;
  drain_queue();
}

void AdmissionController::drain_queue() {
  const auto next_runnable = [this](std::deque<QueuedRequest>& queue,
                                    std::deque<QueuedRequest>::iterator& out) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      Bucket& bucket = bucket_of(it->tenant);
      refill(bucket);
      if (bucket.tokens >= 1.0) {
        out = it;
        return true;
      }
    }
    return false;
  };

  while (queued_count() > 0 && in_service_ < config_.max_in_service) {
    // Repairs outrank fresh establishes; within a class, FIFO among
    // tenants that hold a token (a dry tenant never blocks the others).
    std::deque<QueuedRequest>::iterator it;
    std::deque<QueuedRequest>* queue = &repair_queue_;
    if (!next_runnable(repair_queue_, it)) {
      queue = &fresh_queue_;
      if (!next_runnable(fresh_queue_, it)) break;
    }
    QueuedRequest request = std::move(*it);
    queue->erase(it);
    Bucket& bucket = bucket_of(request.tenant);
    take_token(bucket);
    ++stats_.admitted;
    ++in_service_;  // pending was counted at enqueue time
    request.run();
  }

  if (queued_count() > 0 && in_service_ < config_.max_in_service) {
    // Everything left waits on tokens: wake at the earliest refill.
    sim::SimTime earliest = sim::kNever;
    for (const auto* queue : {&repair_queue_, &fresh_queue_}) {
      for (const QueuedRequest& request : *queue) {
        const Bucket& bucket = bucket_of(request.tenant);
        earliest = std::min(earliest, sim_.now() + token_wait(bucket));
      }
    }
    arm_drain_timer(earliest);
  } else if (queued_count() == 0 && drain_timer_ != 0) {
    sim_.cancel(drain_timer_);
    drain_timer_ = 0;
  }
}

void AdmissionController::arm_drain_timer(sim::SimTime at) {
  if (drain_timer_ != 0) {
    if (drain_at_ <= at) return;  // an earlier wake-up already covers this
    sim_.cancel(drain_timer_);
  }
  drain_at_ = at;
  drain_timer_ = sim_.schedule_at(at, [this] {
    drain_timer_ = 0;
    drain_queue();
  });
}

// --- crash semantics -------------------------------------------------------------

void AdmissionController::reset() {
  ++epoch_;
  if (drain_timer_ != 0) {
    sim_.cancel(drain_timer_);
    drain_timer_ = 0;
  }
  // Queued requests die silently: a crashed MC answers nothing, which is
  // exactly what the client-side watchdog machinery detects.
  repair_queue_.clear();
  fresh_queue_.clear();
  tenants_.clear();
  in_service_ = 0;
  stats_ = Stats{};
}

// --- introspection ---------------------------------------------------------------

std::vector<AdmissionController::TenantSnapshot>
AdmissionController::tenant_snapshot() const {
  std::vector<TenantSnapshot> out;
  out.reserve(tenants_.size());
  for (const auto& [tenant, bucket] : tenants_) {
    out.push_back(TenantSnapshot{tenant, bucket.pending, bucket.tokens});
  }
  return out;
}

// --- AC-1 negative-test hook -------------------------------------------------------

void AdmissionController::debug_force_admit(net::Ipv4 tenant) {
  Bucket& bucket = bucket_of(tenant);
  const std::size_t excess = config_.tenant_pending_quota + 1;
  bucket.pending += excess;
  in_service_ += excess;
  stats_.offered += excess;
  stats_.admitted += excess;
}

}  // namespace mic::ctrl
