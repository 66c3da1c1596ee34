// Figure 9(c): CPU usage while running the Figure 9(a) experiment.
//
// The paper ran everything (hosts, Open vSwitch instances, Tor relays) on
// one Xeon E5-2620 and read the overall CPU usage; we report the summed
// busy fraction of every simulated CPU (hosts + switches + MC) in units of
// one 2 GHz core.
//
// Paper shape to reproduce: MIC has a narrow increase over TCP/SSL (extra
// flow-table actions on the virtual switches); Tor burns far more CPU
// (redundant paths + per-cell crypto at every relay).
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace mic::bench;
  constexpr std::uint64_t kBytes = 8ull * 1024 * 1024;

  std::printf("# Figure 9(c): CPU usage during the Figure 9(a) run\n");
  std::printf("# summed busy fraction of all simulated CPUs, in 2 GHz cores\n");
  std::printf("%-10s %12s %12s\n", "system", "cpu_cores", "vs_TCP");

  const System systems[] = {System::kTcp, System::kSsl, System::kMicTcp,
                            System::kMicSsl, System::kTor};
  double tcp_cpu = 0.0;
  Runs runs;
  for (const System system : systems) {
    SessionConfig config;
    config.system = system;
    config.route_len = 3;
    config.bulk_bytes = kBytes;
    const RunResult result = runs.session(config);
    if (system == System::kTcp) tcp_cpu = result.cpu_cores;
    std::printf("%-10s %12.3f %11.2fx\n", system_name(system),
                result.cpu_cores,
                tcp_cpu > 0 ? result.cpu_cores / tcp_cpu : 0.0);
  }
  return runs.exit_code();
}
