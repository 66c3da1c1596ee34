// Differential scheduler oracle (invariant SIM-2): the timing-wheel
// Simulator and the frozen binary-heap ReferenceSimulator are driven
// through identical randomized programs -- schedule, cancel (including
// stale handles), run_until with random horizons, schedule-inside-callback
// and cancel-inside-callback -- and must never diverge on any observable:
// firing order, now(), idle(), events_executed().
//
// Every event carries a "token", an engine-independent name assigned in
// schedule order.  Because both engines are asserted to fire tokens in the
// same order, each engine can independently derive identical re-entrant
// behavior from splitmix64(seed, token), and token -> EventId maps stay
// mirrored without any cross-engine communication.
//
// The fuzz section runs >10k operations by default (kSeeds x kOpsPerSeed
// plus re-entrant children); MIC_SIM_DIFF_CASES=N scales the per-seed op
// count up for the deeper TSan-tier run wired into scripts/check.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "support/reference_simulator.hpp"

namespace mic::sim {
namespace {

// Deterministic mixer for per-token decisions, identical in both engines.
std::uint64_t token_mix(std::uint64_t seed, std::uint64_t token,
                        std::uint64_t salt) {
  std::uint64_t state = seed ^ (token * 0x9e3779b97f4a7c15ULL) ^ salt;
  return splitmix64(state);
}

/// One engine plus the bookkeeping needed to mirror a token program.
template <typename Engine>
struct Agent {
  Engine sim;
  std::uint64_t seed;
  bool reentrant;  // token-derived schedule/cancel from inside callbacks
  std::uint64_t next_token = 0;
  std::vector<std::uint64_t> fired;   // tokens, in firing order
  std::vector<std::uint64_t> issued;  // tokens, in schedule order
  std::unordered_map<std::uint64_t, EventId> ids;  // every token ever issued

  explicit Agent(std::uint64_t s, bool re) : seed(s), reentrant(re) {}

  std::uint64_t schedule(SimTime when) {
    const std::uint64_t token = next_token++;
    issued.push_back(token);
    ids[token] = sim.schedule_at(when, [this, token] { fire(token); });
    return token;
  }

  // Cancel by token; deliberately replays stale handles (fired or already
  // cancelled tokens keep their EventId in `ids`), which both engines must
  // treat as a no-op even if the wheel has recycled the node since.
  void cancel_token(std::uint64_t token) { sim.cancel(ids.at(token)); }

  void fire(std::uint64_t token) {
    fired.push_back(token);
    if (!reentrant) return;
    // Re-entrant behavior, derived from (seed, token) so both engines act
    // identically without communicating.
    const std::uint64_t r = token_mix(seed, token, /*salt=*/0x5eed);
    switch (r % 8) {
      case 0:  // schedule a child strictly in the future
        schedule(sim.now() + 1 + (token_mix(seed, token, 1) % 5000));
        break;
      case 1:  // schedule a child at now(): must fire in the SAME pass
        schedule(sim.now());
        break;
      case 2: {  // cancel something (possibly self/fired/cancelled: no-op)
        if (!issued.empty()) {
          cancel_token(issued[token_mix(seed, token, 2) % issued.size()]);
        }
        break;
      }
      case 3: {  // reschedule pattern: cancel + schedule replacement
        if (!issued.empty()) {
          cancel_token(issued[token_mix(seed, token, 3) % issued.size()]);
        }
        schedule(sim.now() + (token_mix(seed, token, 4) % 100));
        break;
      }
      default:  // plain event
        break;
    }
  }
};

struct DiffHarness {
  Agent<Simulator> wheel;
  Agent<ReferenceSimulator> ref;

  explicit DiffHarness(std::uint64_t seed, bool reentrant = true)
      : wheel(seed, reentrant), ref(seed, reentrant) {}

  void schedule(SimTime when) {
    wheel.schedule(when);
    ref.schedule(when);
  }

  void cancel_issued(std::uint64_t pick) {
    if (wheel.issued.empty()) return;
    const std::uint64_t token = wheel.issued[pick % wheel.issued.size()];
    wheel.cancel_token(token);
    ref.cancel_token(token);
  }

  void run_until(SimTime deadline) {
    const std::uint64_t wheel_ran = wheel.sim.run_until(deadline);
    const std::uint64_t ref_ran = ref.sim.run_until(deadline);
    EXPECT_EQ(wheel_ran, ref_ran);
  }

  /// Every observable the two engines share must agree.
  void check(const char* where) {
    ASSERT_EQ(wheel.fired, ref.fired) << where;
    ASSERT_EQ(wheel.sim.now(), ref.sim.now()) << where;
    ASSERT_EQ(wheel.sim.idle(), ref.sim.idle()) << where;
    ASSERT_EQ(wheel.sim.events_executed(), ref.sim.events_executed()) << where;
    ASSERT_EQ(wheel.issued, ref.issued) << where;
  }
};

std::uint64_t ops_per_seed() {
  if (const char* env = std::getenv("MIC_SIM_DIFF_CASES")) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<std::uint64_t>(parsed);
  }
  return 1500;
}

// The SIM-2 fuzz oracle: >10k random operations across seeds (default
// 8 seeds x 1500 top-level ops, plus the re-entrant children they spawn).
TEST(SimulatorDiff, RandomProgramsNeverDiverge) {
  const std::uint64_t kSeeds = 8;
  const std::uint64_t kOps = ops_per_seed();
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    DiffHarness h(seed * 0xD1FF);
    Rng rng(seed * 0xD1FF);
    for (std::uint64_t op = 0; op < kOps; ++op) {
      const std::uint64_t dice = rng.below(100);
      if (dice < 55) {
        // Delay profile mixes dense near-term traffic (exercises level-0
        // slots and intra-slot FIFO), mid-range (cascades), and rare
        // horizons beyond the wheel's 2^48 ns range (overflow list).
        const std::uint64_t kind = rng.below(100);
        SimTime delay;
        if (kind < 55) {
          delay = rng.below(64);  // same-slot / same-epoch collisions
        } else if (kind < 85) {
          delay = rng.below(1'000'000);  // a few ms: multi-level cascades
        } else if (kind < 97) {
          delay = rng.below(1ULL << 40);  // high wheel levels
        } else {
          delay = (1ULL << 48) + rng.below(1ULL << 49);  // overflow list
        }
        h.schedule(h.wheel.sim.now() + delay);
      } else if (dice < 70) {
        h.cancel_issued(rng.next());
      } else if (dice < 93) {
        h.run_until(h.wheel.sim.now() + rng.below(1 << 20));
        h.check("after bounded run_until");
      } else if (dice < 98) {
        // Deep but bounded: drains everything the near-term program
        // created without chasing overflow events 2^48 ns out.
        h.run_until(h.wheel.sim.now() + (1ULL << 44));
        h.check("after deep run_until");
      } else {
        // Mid-program FULL drain.  This is the op that once exposed a lost-
        // event bug: draining past cancelled far-future timers walked the
        // wheel cursor beyond now(), and the next schedule_at() filed into
        // the wheel's past, never to fire.  The program keeps scheduling
        // afterwards, so any cursor damage shows up as a divergence.
        h.run_until(kNever);
        h.check("after mid-program full drain");
        ASSERT_TRUE(h.wheel.sim.idle());
      }
    }
    h.run_until(kNever);
    h.check("after final drain");
    ASSERT_TRUE(h.wheel.sim.idle());
    ASSERT_GT(h.wheel.sim.events_executed(), 0u);
  }
}

// Targeted: events parked beyond the wheel horizon (> 2^48 ns) must refill
// in schedule order and interleave correctly with near-term events.
TEST(SimulatorDiff, OverflowHorizonAgrees) {
  DiffHarness h(0xBEEF, /*reentrant=*/false);
  const SimTime far = (1ULL << 48) + 12345;  // beyond the wheel range
  h.schedule(far);
  h.schedule(far);  // same instant: FIFO must survive the overflow refill
  h.schedule(far - 1);
  h.schedule(milliseconds(1));
  h.run_until(far);
  h.check("overflow drain");
  ASSERT_TRUE(h.wheel.sim.idle());
  ASSERT_EQ(h.wheel.sim.events_executed(), 4u);
}

// Targeted: an event at kNever is legal and fires only on an unbounded run.
TEST(SimulatorDiff, EventAtKNeverAgrees) {
  DiffHarness h(0xCAFE, /*reentrant=*/false);
  h.schedule(kNever);
  h.schedule(seconds(1));
  h.run_until(seconds(5));
  h.check("bounded run leaves kNever pending");
  ASSERT_FALSE(h.wheel.sim.idle());
  h.run_until(kNever);
  h.check("unbounded run fires kNever");
  ASSERT_TRUE(h.wheel.sim.idle());
  ASSERT_EQ(h.wheel.sim.now(), kNever);
}

// Targeted: same-instant FIFO across placement paths.  Tokens scheduled
// for one instant from far away (high wheel level, reaches level 0 by
// cascading) and from close up (direct level-0 filing) must still fire in
// schedule order -- the cascade-before-direct-filing argument in the
// Simulator header, checked against the oracle.
TEST(SimulatorDiff, SameInstantFifoAcrossWheelLevels) {
  DiffHarness h(0xF1F0, /*reentrant=*/false);
  const SimTime target = milliseconds(10);
  h.schedule(target);                    // filed at a high level
  h.schedule(target);                    // same slot, behind the first
  h.run_until(target - nanoseconds(3));  // cursor now within the epoch
  h.schedule(target);                    // direct level-0 filing
  h.schedule(target - nanoseconds(1));   // earlier instant, filed later
  h.run_until(kNever);
  h.check("cross-level same-instant ordering");
  ASSERT_EQ(h.wheel.fired, (std::vector<std::uint64_t>{3, 0, 1, 2}));
}

// Regression (cursor overshoot): a full drain chases tombstones of
// cancelled far-future timers, cascading the wheel cursor toward their
// slots even though nothing remains to fire.  Before run_until(kNever)
// learned to re-anchor the cursor at now(), the cursor could end up far
// PAST now(), and a subsequent perfectly legal schedule_at(now() <= when
// < cursor) was filed into a slot no scan revisits -- the event was lost
// and the engine wedged with live_events > 0.  First seen as 36 chaos-
// soak failures whose flows all stalled waiting on an RTO that never
// fired.
TEST(SimulatorDiff, FullDrainAfterFarCancelDoesNotStrandNextEvent) {
  for (const SimTime far_delay :
       {SimTime{1} << 20, SimTime{1} << 40, (SimTime{1} << 48) + 7}) {
    DiffHarness h(0xD0D0, /*reentrant=*/false);
    h.schedule(seconds(1));
    const std::uint64_t victim = h.wheel.next_token;
    h.schedule(h.wheel.sim.now() + far_delay);  // far-future tombstone bait
    h.wheel.cancel_token(victim);
    h.ref.cancel_token(victim);
    // Full drain: fires the 1 s event, then chases the tombstone's slot.
    h.run_until(kNever);
    h.check("after full drain over a cancelled far timer");
    ASSERT_TRUE(h.wheel.sim.idle());
    // The poisoned window is [now, stale cursor).  An event here must
    // still fire on the very next drain.
    h.schedule(h.wheel.sim.now() + 100);
    h.run_until(kNever);
    h.check("event scheduled inside the formerly poisoned window");
    ASSERT_TRUE(h.wheel.sim.idle());
    ASSERT_EQ(h.wheel.sim.events_executed(), 2u);
  }
}

// The wheel recycles nodes through a freelist, so a schedule/cancel
// heartbeat that runs forever must not grow the pool (the old engine grew
// its pending_/cancelled_ tombstone sets without bound).  One chunk of
// nodes absorbs 10^6 cycles.
TEST(SimulatorDiff, TombstoneChurnDoesNotGrowPool) {
  Simulator sim;
  for (int i = 0; i < 1'000'000; ++i) {
    const EventId id = sim.schedule_in(milliseconds(10), [] {});
    sim.cancel(id);
  }
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.stats().scheduled, 1'000'000u);
  EXPECT_EQ(sim.stats().cancelled, 1'000'000u);
  // High-water mark: a single armed timer needs a single node; the pool
  // never grows past its first chunk.
  EXPECT_LE(sim.stats().nodes_allocated, 256u);
  EXPECT_EQ(sim.stats().heap_callbacks, 0u);
}

// Same bound for the armed-heartbeat variant: cancel-then-rearm, the RTO
// pattern TCP runs on every ACK.
TEST(SimulatorDiff, RearmHeartbeatDoesNotGrowPool) {
  Simulator sim;
  EventId timer = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    if (timer != 0) sim.cancel(timer);
    timer = sim.schedule_in(milliseconds(200), [] {});
  }
  sim.cancel(timer);
  EXPECT_TRUE(sim.idle());
  EXPECT_LE(sim.stats().nodes_allocated, 256u);
}

// A cancelled node's EventId dies with it: after the node is recycled for
// a new event, the stale handle must not cancel the newcomer.
TEST(SimulatorDiff, StaleHandleCannotCancelRecycledNode) {
  Simulator sim;
  const EventId stale = sim.schedule_in(seconds(1), [] {});
  sim.cancel(stale);
  bool fired = false;
  sim.schedule_in(seconds(2), [&] { fired = true; });  // reuses the node
  sim.cancel(stale);  // generation mismatch: must be a no-op
  sim.run_until();
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace mic::sim
