// Ablation: the partially-multicast mechanism (Sec IV-C).
//
// Sweeps the decoy replication factor k and reports (a) the single-MN
// ingress/egress correlation attack's expected success at the first MN --
// which should fall toward 1/(k+1) -- and (b) the bandwidth and goodput
// cost of carrying the decoys.
#include <cstdio>
#include <string>

#include "anonymity/attacks.hpp"
#include "common.hpp"

int main() {
  using namespace mic::bench;
  using mic::anonymity::CorrelationReport;
  using mic::anonymity::Observer;
  constexpr std::uint64_t kBytes = 2ull * 1024 * 1024;

  std::printf("# Ablation: partial multicast vs correlation attack\n");
  std::printf(
      "# expected success of ingress/egress matching at the first MN;\n");
  std::printf("# fabric_bytes counts every byte on every link (decoy cost)\n");
  std::printf("%-8s %12s %12s %12s %12s\n", "decoys", "succ_rate",
              "candidates", "goodput_Mb", "fabric_MB");

  Runs runs;
  for (const int decoys : {0, 1, 2, 3}) {
    FabricOptions options;
    options.seed = 7;
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
    mic_options.multicast_decoys = decoys;
    MicChannel channel(fabric.host(kClientHost), fabric.mc(), mic_options,
                       fabric.rng());
    simulator.run_until();

    const auto* state = fabric.mc().channel(channel.id());
    if (state == nullptr || state->flows.empty()) {
      std::fprintf(stderr, "channel failed\n");
      return 1;
    }
    const auto& plan = state->flows[0];
    Observer observer;
    observer.compromise_switch(fabric.network(),
                               plan.path[plan.mn_positions[0]]);

    std::uint64_t fabric_bytes = 0;
    fabric.network().add_global_tap(
        [&](mic::topo::LinkId, mic::topo::NodeId, mic::topo::NodeId,
            const mic::net::Packet& packet,
            mic::sim::SimTime) { fabric_bytes += packet.wire_bytes(); });

    channel.send(mic::transport::Chunk::virtual_bytes(kBytes));
    simulator.run_until();

    const CorrelationReport report = mic::anonymity::correlate_at_switch(
        observer, mic::sim::milliseconds(10));
    const bool finished = runs.expect(
        sink != nullptr && sink->finished(),
        "decoys=" + std::to_string(decoys) + ": the sink never finished");
    const double goodput = finished ? sink->goodput_bps() / 1e6 : 0.0;
    std::printf("%-8d %12.3f %12.2f %12.1f %12.1f\n", decoys,
                report.expected_success, report.mean_candidates, goodput,
                static_cast<double>(fabric_bytes) / 1e6);
  }
  return runs.exit_code();
}
