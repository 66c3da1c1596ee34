// Ablation: channel reuse (Sec IV-B1).
//
// "In order to reduce the overhead on the MC, we should reuse the mimic
// channel among the communications between the same participants."  This
// bench compares the MC request load and total session-setup latency for a
// burst of short sessions between one pair, with and without reuse.
#include <cstdio>
#include <string>

#include "common.hpp"

int main() {
  using namespace mic::bench;
  constexpr int kSessions = 20;

  std::printf("# Ablation: channel reuse under %d short sessions\n",
              kSessions);
  std::printf("%-10s %14s %16s %14s\n", "mode", "mc_requests",
              "total_setup_ms", "mc_cpu_ms");

  Runs runs;
  for (const bool reuse : {false, true}) {
    const std::string mode = reuse ? "reuse" : "fresh";
    FabricOptions options;
    options.seed = 21;
    Fabric fabric(options);
    auto& simulator = fabric.simulator();

    std::uint64_t received = 0;
    MicServer server(fabric.host(kServerHost), 7000, fabric.rng());
    server.set_on_channel([&received](mic::core::MicServerChannel& channel) {
      channel.set_on_data([&received](const mic::transport::ChunkView& view) {
        received += view.length;
      });
    });

    double total_setup_ms = 0.0;
    std::unique_ptr<MicChannel> channel;
    for (int s = 0; s < kSessions; ++s) {
      if (!reuse || channel == nullptr) {
        if (channel != nullptr) {
          channel->close();  // shutdown request to the MC
          simulator.run_until();
        }
        MicChannelOptions mic_options;
        mic_options.responder_ip = fabric.ip(kServerHost);
        mic_options.responder_port = 7000;
        channel = std::make_unique<MicChannel>(
            fabric.host(kClientHost), fabric.mc(), mic_options, fabric.rng());
        simulator.run_until();
        runs.expect(channel->ready(), mode + " session " + std::to_string(s) +
                                          ": channel never came up");
        total_setup_ms += mic::sim::to_millis(channel->setup_time());
      }
      const std::uint64_t before = received;
      channel->send(mic::transport::Chunk::real(
          std::vector<std::uint8_t>(512, 0x42)));
      simulator.run_until();
      runs.expect(received - before == 512,
                  mode + " session " + std::to_string(s) +
                      ": the 512 request bytes did not arrive");
    }

    std::printf("%-10s %14llu %16.3f %14.3f\n", reuse ? "reuse" : "fresh",
                static_cast<unsigned long long>(
                    fabric.mc().requests_handled()),
                total_setup_ms,
                mic::sim::to_millis(fabric.mc().mc_cpu().busy_time()));
  }
  return runs.exit_code();
}
