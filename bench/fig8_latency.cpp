// Figure 8: transmission latency after session establishment -- the time
// for 10 bytes to reach the receiver and 10 bytes to come back.
//
// Paper shape to reproduce: Tor is dramatically slower (the paper measured
// ~62x vs TCP); MIC-TCP is comparable with TCP and MIC-SSL with SSL (MNs
// only add flow-table actions).
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace mic::bench;
  constexpr int kRounds = 50;

  std::printf("# Figure 8: 10-byte ping-pong latency (us), mean of %d rounds\n",
              kRounds);
  std::printf("# path length 3 (the paper's default)\n");
  std::printf("%-10s %12s %12s\n", "system", "latency_us", "vs_TCP");

  const System systems[] = {System::kTcp, System::kSsl, System::kMicTcp,
                            System::kMicSsl, System::kTor};
  double tcp_latency = 0.0;
  Runs runs;
  for (const System system : systems) {
    SessionConfig config;
    config.system = system;
    config.route_len = 3;
    config.ping_rounds = kRounds;
    const RunResult result = runs.session(config);
    if (system == System::kTcp) tcp_latency = result.latency_us;
    std::printf("%-10s %12.1f %11.2fx\n", system_name(system),
                result.latency_us,
                tcp_latency > 0 ? result.latency_us / tcp_latency : 0.0);
  }
  return runs.exit_code();
}
