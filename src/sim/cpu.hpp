// Serial CPU model with busy-time accounting.
//
// Every host and software switch owns a CpuMeter.  Charging cycles both
// *delays* the operation (work completes when the CPU gets to it) and
// *accounts* the busy time, which is what bench/fig9c_cpu_usage reports:
// utilization = busy_time / observation window, exactly how `top` computed
// the paper's Figure 9(c) numbers.
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "sim/time.hpp"

namespace mic::sim {

class CpuMeter {
 public:
  /// Matches the paper's testbed CPU (Xeon E5-2620 @ 2.00 GHz).
  explicit CpuMeter(double frequency_hz = 2.0e9) noexcept
      : frequency_hz_(frequency_hz) {
    MIC_ASSERT(frequency_hz > 0);
  }

  /// Charge `cycles` starting no earlier than `now`; returns the completion
  /// time.  Work is serialized: a busy CPU delays new work.
  SimTime charge(SimTime now, double cycles) noexcept {
    MIC_ASSERT(cycles >= 0);
    const SimTime start = now > free_at_ ? now : free_at_;
    const SimTime duration =
        static_cast<SimTime>(cycles / frequency_hz_ * 1e9);
    free_at_ = start + duration;
    busy_time_ += duration;
    return free_at_;
  }

  /// Time at which the CPU becomes idle.
  SimTime free_at() const noexcept { return free_at_; }

  /// Total busy nanoseconds since construction.
  SimTime busy_time() const noexcept { return busy_time_; }

  double frequency_hz() const noexcept { return frequency_hz_; }

 private:
  double frequency_hz_;
  SimTime free_at_ = 0;
  SimTime busy_time_ = 0;
};

}  // namespace mic::sim
