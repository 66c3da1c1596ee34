// Scheduler throughput: the timing-wheel Simulator versus the frozen
// binary-heap ReferenceSimulator, under the workloads that gate the
// ROADMAP's million-flow trajectory.
//
//   micro_sim                # google-benchmark tables
//   micro_sim --smoke        # fast CI sanity: engines agree, wheel works
//   micro_sim --sweep_json   # machine-readable wheel-vs-heap sweep
//                            # (BENCH_sim.json; see EXPERIMENTS.md)
//
// Two workloads:
//  * hold model -- N concurrent timers, each rearming itself with a random
//    delay when it fires (the classic calendar-queue benchmark; models N
//    flows each holding an RTO + pacing timer).  Reported as fired
//    events/sec at steady state.
//  * churn -- the TCP rearm pattern: schedule + cancel with no firing at
//    all, which the heap engine pays for in tombstones and the wheel in
//    nothing but freelist hits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.hpp"
#include "provenance.hpp"
#include "sim/simulator.hpp"
#include "support/reference_simulator.hpp"

namespace {

using namespace mic;

/// N self-rearming timers; stops rearming once `target` fires happened so
/// run_until(kNever) drains.  Delays are 1 ns .. 1 ms, exercising level-0
/// slots through multi-level cascades.
template <typename Engine>
struct HoldModel {
  Engine sim;
  Rng rng;
  std::uint64_t fired = 0;
  std::uint64_t target;

  HoldModel(std::uint64_t seed, std::uint64_t fire_target)
      : rng(seed), target(fire_target) {}

  void arm() {
    sim.schedule_in(1 + rng.below(1'000'000), [this] {
      ++fired;
      if (fired < target) arm();
    });
  }

  /// Returns fired events per wall-clock second.
  double run(std::size_t timers) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < timers; ++i) arm();
    sim.run_until(sim::kNever);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return static_cast<double>(fired) / secs;
  }
};

/// Schedule+cancel pairs per second with `live` armed timers as ballast
/// (so cancel cost is measured against a realistically full scheduler).
template <typename Engine>
double churn_pairs_per_sec(std::size_t live, std::uint64_t pairs) {
  Engine sim;
  Rng rng(7);
  for (std::size_t i = 0; i < live; ++i) {
    sim.schedule_in(1 + rng.below(1'000'000'000), [] {});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const sim::EventId id =
        sim.schedule_in(1 + rng.below(200'000'000), [] {});
    sim.cancel(id);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(pairs) / secs;
}

void BM_WheelHold(benchmark::State& state) {
  const auto timers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    HoldModel<sim::Simulator> model(42, static_cast<std::uint64_t>(timers) * 4);
    benchmark::DoNotOptimize(model.run(timers));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_WheelHold)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_HeapHold(benchmark::State& state) {
  const auto timers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    HoldModel<sim::ReferenceSimulator> model(
        42, static_cast<std::uint64_t>(timers) * 4);
    benchmark::DoNotOptimize(model.run(timers));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_HeapHold)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_WheelChurn(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        churn_pairs_per_sec<sim::Simulator>(live, 100'000));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_WheelChurn)->Arg(1'000)->Arg(100'000);

void BM_HeapChurn(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        churn_pairs_per_sec<sim::ReferenceSimulator>(live, 100'000));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_HeapChurn)->Arg(1'000)->Arg(100'000);

/// Cross-engine agreement on the hold model: same seed => identical fire
/// count and identical final clock.  A cheap differential check that rides
/// along in the CI smoke run.
bool engines_agree(std::size_t timers, std::uint64_t target) {
  HoldModel<sim::Simulator> wheel(42, target);
  HoldModel<sim::ReferenceSimulator> heap(42, target);
  wheel.run(timers);
  heap.run(timers);
  if (wheel.fired != heap.fired) {
    std::fprintf(stderr, "SMOKE FAIL: fired %llu (wheel) vs %llu (heap)\n",
                 static_cast<unsigned long long>(wheel.fired),
                 static_cast<unsigned long long>(heap.fired));
    return false;
  }
  if (wheel.sim.now() != heap.sim.now()) {
    std::fprintf(stderr, "SMOKE FAIL: now %llu (wheel) vs %llu (heap)\n",
                 static_cast<unsigned long long>(wheel.sim.now()),
                 static_cast<unsigned long long>(heap.sim.now()));
    return false;
  }
  return true;
}

int run_smoke() {
  if (!engines_agree(1'000, 50'000)) return 1;
  // Churn must not grow the wheel's pool past its first chunk.
  sim::Simulator sim;
  for (int i = 0; i < 100'000; ++i) {
    sim.cancel(sim.schedule_in(1'000'000, [] {}));
  }
  if (sim.stats().nodes_allocated > 256) {
    std::fprintf(stderr, "SMOKE FAIL: pool grew to %u nodes under churn\n",
                 sim.stats().nodes_allocated);
    return 1;
  }
  std::printf("micro_sim smoke OK\n");
  return 0;
}

/// Perf-regression guard for scripts/check.sh: the wheel must beat the
/// frozen heap engine on the hold model.  Best-of-3 per engine irons out
/// scheduler interference on loaded CI boxes.
int run_min_speedup(double required) {
  constexpr std::size_t kTimers = 10'000;
  constexpr std::uint64_t kTarget = 1'000'000;
  double wheel_eps = 0.0;
  double heap_eps = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    HoldModel<sim::Simulator> wheel(42, kTarget);
    wheel_eps = std::max(wheel_eps, wheel.run(kTimers));
    HoldModel<sim::ReferenceSimulator> heap(42, kTarget);
    heap_eps = std::max(heap_eps, heap.run(kTimers));
  }
  const double speedup = wheel_eps / heap_eps;
  std::printf("wheel %.0f events/s, heap %.0f events/s: %.2fx\n", wheel_eps,
              heap_eps, speedup);
  if (speedup < required) {
    std::fprintf(stderr, "wheel speedup %.2fx below required %.2fx\n",
                 speedup, required);
    return 1;
  }
  return 0;
}

int run_sweep_json() {
  std::printf("{\"bench\":\"micro_sim\",\"hold_model\":[");
  bool first = true;
  for (const std::size_t timers :
       {std::size_t{1'000}, std::size_t{10'000}, std::size_t{100'000},
        std::size_t{1'000'000}}) {
    // Enough fires that the measurement dwarfs CPU frequency ramp-up and
    // arm-phase warmup (sub-10 ms runs are bimodal), without making the
    // heap side of the biggest point take minutes.  Best of two runs per
    // engine irons out scheduler interference.
    const std::uint64_t target =
        std::max<std::uint64_t>(static_cast<std::uint64_t>(timers) * 4,
                                1'000'000);
    HoldModel<sim::Simulator> wheel(42, target);
    double wheel_eps = wheel.run(timers);
    double heap_eps = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      if (rep > 0) {
        HoldModel<sim::Simulator> again(42, target);
        wheel_eps = std::max(wheel_eps, again.run(timers));
      }
      HoldModel<sim::ReferenceSimulator> heap(42, target);
      heap_eps = std::max(heap_eps, heap.run(timers));
    }
    std::printf("%s{\"concurrent_timers\":%zu,\"fired\":%llu,"
                "\"wheel_events_per_sec\":%.0f,\"heap_events_per_sec\":%.0f,"
                "\"speedup\":%.2f,\"wheel_pool_nodes\":%u,"
                "\"wheel_cascades\":%llu}",
                first ? "" : ",", timers,
                static_cast<unsigned long long>(wheel.fired), wheel_eps,
                heap_eps, wheel_eps / heap_eps,
                wheel.sim.stats().nodes_allocated,
                static_cast<unsigned long long>(wheel.sim.stats().cascades));
    first = false;
  }
  std::printf("],\"churn\":[");
  first = true;
  for (const std::size_t live : {std::size_t{1'000}, std::size_t{100'000}}) {
    const double wheel_cps =
        churn_pairs_per_sec<sim::Simulator>(live, 1'000'000);
    const double heap_cps =
        churn_pairs_per_sec<sim::ReferenceSimulator>(live, 1'000'000);
    std::printf("%s{\"live_timers\":%zu,"
                "\"wheel_pairs_per_sec\":%.0f,\"heap_pairs_per_sec\":%.0f,"
                "\"speedup\":%.2f}",
                first ? "" : ",", live, wheel_cps, heap_cps,
                wheel_cps / heap_cps);
    first = false;
  }
  std::printf("],");
  mic::bench::write_provenance(stdout);
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  if (argc > 1 && std::strcmp(argv[1], "--sweep_json") == 0) {
    return run_sweep_json();
  }
  if (argc > 2 && std::strcmp(argv[1], "--min_speedup") == 0) {
    return run_min_speedup(std::atof(argv[2]));
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
