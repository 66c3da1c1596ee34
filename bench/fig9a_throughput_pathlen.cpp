// Figure 9(a): throughput of one flow vs path length.
//
// Paper shape to reproduce: MIC (TCP and SSL variants) stays near the
// TCP/SSL baselines at every path length (rewriting is free at line rate);
// Tor's throughput decays as the path grows (every added relay adds host
// stack traversals, per-cell crypto and fabric crossings).
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace mic::bench;
  constexpr std::uint64_t kBytes = 8ull * 1024 * 1024;

  std::printf("# Figure 9(a): single-flow throughput (Mb/s) vs path length\n");
  std::printf("# transfer size %llu MB on the 1 Gb/s fat-tree\n",
              static_cast<unsigned long long>(kBytes >> 20));
  std::printf("%-10s %10s %10s %10s %10s %10s\n", "path_len", "MIC-TCP",
              "MIC-SSL", "Tor", "TCP", "SSL");

  Runs runs;
  for (int len = 1; len <= 5; ++len) {
    auto run = [&](System system) {
      SessionConfig config;
      config.system = system;
      config.route_len = len;
      config.bulk_bytes = kBytes;
      return runs.session(config).mbps;
    };
    std::printf("%-10d %10.1f %10.1f %10.1f %10.1f %10.1f\n", len,
                run(System::kMicTcp), run(System::kMicSsl), run(System::kTor),
                run(System::kTcp), run(System::kSsl));
  }
  return runs.exit_code();
}
