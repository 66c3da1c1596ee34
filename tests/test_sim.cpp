// Tests for the discrete-event engine and the CPU cost model.
#include <gtest/gtest.h>

#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace mic::sim {
namespace {

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  simulator.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  simulator.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  simulator.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), milliseconds(30));
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule_at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  simulator.run_until();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  const EventId id = simulator.schedule_in(seconds(1), [&] { fired = true; });
  simulator.cancel(id);
  simulator.run_until();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(simulator.idle());
}

TEST(Simulator, CancelTwiceIsHarmless) {
  Simulator simulator;
  const EventId id = simulator.schedule_in(seconds(1), [] {});
  simulator.cancel(id);
  simulator.cancel(id);
  simulator.run_until();
  EXPECT_TRUE(simulator.idle());
}

TEST(Simulator, CancelAfterFiringIsANoOp) {
  // Regression: cancelling an already-fired event used to insert a
  // permanent tombstone and wrongly decrement the live-event count, so
  // idle() reported true with live events still pending.
  Simulator simulator;
  int fired = 0;
  const EventId first = simulator.schedule_at(milliseconds(1), [&] { ++fired; });
  simulator.schedule_at(milliseconds(10), [&] { ++fired; });
  simulator.run_until(milliseconds(1));
  EXPECT_EQ(fired, 1);

  simulator.cancel(first);  // already fired: must change nothing
  EXPECT_FALSE(simulator.idle());
  simulator.run_until();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(simulator.idle());  // live-event count must not underflow
}

TEST(Simulator, CancelUnknownIdIsANoOp) {
  Simulator simulator;
  simulator.schedule_in(seconds(1), [] {});
  simulator.cancel(12345);  // never scheduled
  EXPECT_FALSE(simulator.idle());
  simulator.run_until();
  EXPECT_TRUE(simulator.idle());
}

TEST(Simulator, ReentrantScheduling) {
  Simulator simulator;
  int count = 0;
  std::function<void()> reschedule = [&] {
    if (++count < 5) simulator.schedule_in(milliseconds(1), reschedule);
  };
  simulator.schedule_in(milliseconds(1), reschedule);
  simulator.run_until();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(simulator.now(), milliseconds(5));
}

TEST(Simulator, RunUntilDeadlineStopsAndAdvancesClock) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_at(milliseconds(10), [&] { ++fired; });
  simulator.schedule_at(milliseconds(100), [&] { ++fired; });
  simulator.run_until(milliseconds(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now(), milliseconds(50));
  simulator.run_until();
  EXPECT_EQ(fired, 2);
}

// Pins the run_until(deadline) boundary semantics documented on the method:
// an event at exactly `deadline` fires, and the clock lands on the deadline.
TEST(Simulator, RunUntilDeadlineIsInclusive) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  simulator.schedule_at(milliseconds(10), [&] { order.push_back(2); });
  simulator.schedule_at(milliseconds(10) + 1, [&] { order.push_back(3); });
  EXPECT_EQ(simulator.run_until(milliseconds(10)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // deadline events fired, FIFO
  EXPECT_EQ(simulator.now(), milliseconds(10));
  EXPECT_FALSE(simulator.idle());  // the event 1 ns past the deadline did not
}

// Pins the second documented boundary: schedule_at(now()) from inside a
// callback is legal and the new event fires in the SAME run_until pass,
// before time advances -- even when the pass was bounded at exactly now().
TEST(Simulator, ScheduleAtNowInsideCallbackFiresInSamePass) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(milliseconds(5), [&] {
    order.push_back(1);
    simulator.schedule_at(simulator.now(), [&] {
      order.push_back(2);
      simulator.schedule_at(simulator.now(), [&] { order.push_back(3); });
    });
  });
  EXPECT_EQ(simulator.run_until(milliseconds(5)), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), milliseconds(5));
  EXPECT_TRUE(simulator.idle());
}

// An empty or past-deadline run still advances the clock to the horizon
// (and never moves it backwards).
TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator simulator;
  EXPECT_EQ(simulator.run_until(milliseconds(7)), 0u);
  EXPECT_EQ(simulator.now(), milliseconds(7));
  EXPECT_EQ(simulator.run_until(milliseconds(3)), 0u);  // horizon in the past
  EXPECT_EQ(simulator.now(), milliseconds(7));          // clock is monotone
}

TEST(Simulator, SchedulingIntoThePastDies) {
  Simulator simulator;
  simulator.schedule_at(milliseconds(10), [] {});
  simulator.run_until();
  EXPECT_DEATH(simulator.schedule_at(milliseconds(5), [] {}), "past");
}

TEST(Time, TransmissionDelay) {
  // 1500 bytes at 1 Gb/s = 12 microseconds.
  EXPECT_EQ(transmission_delay(1500, 1'000'000'000), microseconds(12));
  // Rounds up: 1 byte at 1 Gb/s = 8 ns.
  EXPECT_EQ(transmission_delay(1, 1'000'000'000), nanoseconds(8));
}

TEST(CpuMeter, SerializesWork) {
  CpuMeter cpu(1e9);  // 1 GHz: 1 cycle = 1 ns
  const SimTime t1 = cpu.charge(0, 1000);
  EXPECT_EQ(t1, nanoseconds(1000));
  // Work submitted while busy queues behind.
  const SimTime t2 = cpu.charge(500, 1000);
  EXPECT_EQ(t2, nanoseconds(2000));
  // Work submitted when idle starts immediately.
  const SimTime t3 = cpu.charge(5000, 1000);
  EXPECT_EQ(t3, nanoseconds(6000));
  EXPECT_EQ(cpu.busy_time(), nanoseconds(3000));
}

TEST(CpuMeter, UtilizationWindow) {
  // Fig. 9(c)'s utilization: the busy time accrued inside a window over
  // the window's length.
  CpuMeter cpu(1e9);
  cpu.charge(0, 500);
  const SimTime busy_start = cpu.busy_time();
  cpu.charge(1000, 300);
  const double util = static_cast<double>(cpu.busy_time() - busy_start) /
                      static_cast<double>(nanoseconds(2000) -
                                          nanoseconds(1000));
  EXPECT_DOUBLE_EQ(util, 0.3);
}

TEST(CpuMeter, PaperFrequencyDefault) {
  CpuMeter cpu;  // E5-2620 @ 2 GHz
  EXPECT_DOUBLE_EQ(cpu.frequency_hz(), 2.0e9);
  EXPECT_EQ(cpu.charge(0, 2000), nanoseconds(1000));
}

}  // namespace
}  // namespace mic::sim
