#include "support/reference_simulator.hpp"

namespace mic::sim {

std::uint64_t ReferenceSimulator::run_until(SimTime deadline) {
  std::uint64_t ran = 0;
  while (!queue_.empty()) {
    const Entry& top = queue_.top();
    if (top.when > deadline) break;

    if (auto it = cancelled_.find(top.id); it != cancelled_.end()) {
      cancelled_.erase(it);
      pending_.erase(top.id);
      queue_.pop();
      continue;
    }

    // Move the callback out before popping so re-entrant scheduling from
    // inside the callback cannot invalidate it.
    Entry entry = std::move(const_cast<Entry&>(top));
    queue_.pop();
    pending_.erase(entry.id);
    now_ = entry.when;
    --live_events_;
    ++executed_;
    ++ran;
    entry.cb();
  }
  if (queue_.empty()) {
    // Any remaining tombstones refer to events that will never fire.
    cancelled_.clear();
  }
  if (deadline != kNever && deadline > now_ &&
      (queue_.empty() || queue_.top().when > deadline)) {
    now_ = deadline;  // advance the clock to the requested horizon
  }
  return ran;
}

}  // namespace mic::sim
