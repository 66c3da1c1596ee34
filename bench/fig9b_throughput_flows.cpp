// Figure 9(b): average per-flow throughput vs number of concurrent flows
// (path length fixed at the default 3).
//
// Paper shape to reproduce: TCP/SSL/MIC degrade gracefully as flows share
// the fabric; Tor collapses much faster because every anonymous flow
// multiplies traffic through the small relay set, saturating the relays'
// access links and CPUs.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace mic::bench;
  constexpr std::uint64_t kBytesPerFlow = 4ull * 1024 * 1024;

  std::printf(
      "# Figure 9(b): average per-flow throughput (Mb/s) vs flow count\n");
  std::printf("# path length 3, %llu MB per flow\n",
              static_cast<unsigned long long>(kBytesPerFlow >> 20));
  std::printf("%-8s %10s %10s %10s %10s %10s\n", "flows", "MIC-TCP", "MIC-SSL",
              "Tor", "TCP", "SSL");

  // Each cell averages several seeded runs: with drop-tail queues and no
  // SACK a single run's retransmission timing is noisy.
  constexpr int kSeeds = 3;
  Runs runs;
  for (const int flows : {1, 2, 4, 8, 16}) {
    auto run = [&](System system) {
      double sum = 0.0;
      for (int s = 0; s < kSeeds; ++s) {
        MultiFlowConfig config;
        config.system = system;
        config.flows = flows;
        config.bytes_per_flow = kBytesPerFlow;
        config.seed = 42 + static_cast<std::uint64_t>(s);
        sum += runs.multi_flow(config).mbps;
      }
      return sum / kSeeds;
    };
    std::printf("%-8d %10.1f %10.1f %10.1f %10.1f %10.1f\n", flows,
                run(System::kMicTcp), run(System::kMicSsl), run(System::kTor),
                run(System::kTcp), run(System::kSsl));
  }
  return runs.exit_code();
}
