// Ablation: the multiple-m-flows mechanism (Sec IV-C).
//
// Sweeps F and reports the size-based traffic-analysis error: the
// adversary observes one m-flow's middle segment and takes the byte count
// as the channel size.  With striping, the observed fraction tends to 1/F.
// Also reports the goodput cost of splitting the channel.
#include <cstdio>
#include <string>

#include "anonymity/attacks.hpp"
#include "common.hpp"

int main() {
  using namespace mic::bench;
  constexpr std::uint64_t kBytes = 4ull * 1024 * 1024;

  std::printf("# Ablation: multiple m-flows vs size-based analysis\n");
  std::printf("# adversary watches ONE m-flow; observed_frac ~ 1/F\n");
  std::printf("%-8s %14s %12s %12s\n", "F", "observed_frac", "size_err",
              "goodput_Mb");

  Runs runs;
  for (const int flows : {1, 2, 4, 8}) {
    FabricOptions options;
    options.seed = 11;
    Fabric fabric(options);
    auto& simulator = fabric.simulator();

    MicServer server(fabric.host(kServerHost), 7000, fabric.rng());
    std::unique_ptr<mic::transport::BulkSink> sink;
    server.set_on_channel([&](mic::core::MicServerChannel& channel) {
      sink = std::make_unique<mic::transport::BulkSink>(channel, simulator,
                                                        kBytes);
    });

    MicChannelOptions mic_options;
    mic_options.responder_ip = fabric.ip(kServerHost);
    mic_options.responder_port = 7000;
    mic_options.flow_count = flows;
    MicChannel channel(fabric.host(kClientHost), fabric.mc(), mic_options,
                       fabric.rng());
    simulator.run_until();

    const auto* state = fabric.mc().channel(channel.id());
    if (state == nullptr || state->flows.empty()) {
      std::fprintf(stderr, "channel failed\n");
      return 1;
    }
    const auto& plan = state->flows[0];
    mic::anonymity::Observer observer;
    observer.compromise_switch(fabric.network(),
                               plan.path[plan.mn_positions[1]]);

    channel.send(mic::transport::Chunk::virtual_bytes(kBytes));
    simulator.run_until();

    const std::uint64_t seen = mic::anonymity::observed_payload_bytes(
        observer.ingress(), plan.forward[1].src, plan.forward[1].dst);
    const double fraction =
        static_cast<double>(seen) / static_cast<double>(kBytes);
    const bool finished = runs.expect(
        sink != nullptr && sink->finished(),
        "F=" + std::to_string(flows) + ": the sink never finished");
    const double goodput = finished ? sink->goodput_bps() / 1e6 : 0.0;
    std::printf("%-8d %14.3f %12.3f %12.1f\n", flows, fraction,
                std::abs(1.0 - fraction), goodput);
  }
  return runs.exit_code();
}
