// Figure 7: route setup time vs route length, for MIC, Tor, TCP and SSL.
//
// Paper shape to reproduce: Tor's setup grows steeply with route length
// (each telescoping extension pays a circuit round trip plus DH); MIC's is
// nearly flat (one control round trip to the MC regardless of MN count)
// and sits slightly above the TCP/SSL baselines.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace mic::bench;

  std::printf("# Figure 7: route setup time (ms) vs route length\n");
  std::printf("# route length = MNs per m-flow (MIC) / relays (Tor);\n");
  std::printf("# TCP and SSL have no route stages (flat baselines).\n");
  std::printf("%-10s %10s %10s %10s %10s\n", "route_len", "MIC", "Tor", "TCP",
              "SSL");

  Runs runs;
  for (int len = 1; len <= 5; ++len) {
    SessionConfig mic_config{System::kMicTcp, len};
    SessionConfig tor_config{System::kTor, len};
    SessionConfig tcp_config{System::kTcp, len};
    SessionConfig ssl_config{System::kSsl, len};
    const RunResult mic = runs.session(mic_config);
    const RunResult tor = runs.session(tor_config);
    const RunResult tcp = runs.session(tcp_config);
    const RunResult ssl = runs.session(ssl_config);
    std::printf("%-10d %10.3f %10.3f %10.3f %10.3f\n", len, mic.setup_ms,
                tor.setup_ms, tcp.setup_ms, ssl.setup_ms);
  }
  return runs.exit_code();
}
