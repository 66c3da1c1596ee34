// Micro-benchmarks for MAGA: F's inversion, full tuple generation, and the
// label classifier (google-benchmark).
#include <benchmark/benchmark.h>

#include "core/maga.hpp"
#include "core/maga_registry.hpp"

namespace {

using mic::Rng;
using mic::core::MagaF;
using mic::core::MagaRegistry;
using mic::core::MplsClassifier;

void BM_MagaFInvert(benchmark::State& state) {
  Rng rng(3);
  const MagaF f = MagaF::sample(rng);
  std::uint32_t a = 1, b = 2;
  std::uint16_t g = 3, v = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.invert_delta(v++, a++, b++, g++));
  }
}
BENCHMARK(BM_MagaFInvert);

void BM_ClassifierSample(benchmark::State& state) {
  Rng rng(4);
  const MplsClassifier g = MplsClassifier::sample(rng);
  std::uint8_t s_id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.sample_label_half(s_id++, rng));
  }
}
BENCHMARK(BM_ClassifierSample);

void BM_RegistryGenerateTuple(benchmark::State& state) {
  MagaRegistry registry{Rng(5)};
  registry.register_switch(1);
  const auto flow = registry.allocate_flow_id();
  std::vector<mic::net::Ipv4> candidates;
  for (int i = 2; i < 18; ++i) candidates.push_back(mic::net::Ipv4(10, 0, 0, i));
  std::vector<mic::core::MTuple> generated;
  for (auto _ : state) {
    generated.push_back(registry.generate(1, flow, candidates, candidates));
    if (generated.size() >= 4096) {
      state.PauseTiming();
      registry.release_tuples(1, generated);
      generated.clear();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_RegistryGenerateTuple);

}  // namespace

BENCHMARK_MAIN();
