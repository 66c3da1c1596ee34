// Ablation: how close to "global" must the adversary get?
//
// The paper excludes the global adversary ("MIC does not protect against a
// global adversary who can snoop on all paths or switches") and argues that
// compromising many switches is impractical.  This experiment quantifies
// the cliff: an adversary compromises a random fraction of the switches and
// runs the end-to-end content-correlation attack on everything it sees.
// Linking requires observing BOTH plaintext-address segments (before the
// first MN and after the last), so success stays near zero until coverage
// is nearly total -- the quantitative version of the paper's argument.
#include <cstdio>
#include <string>

#include "anonymity/attacks.hpp"
#include "common.hpp"

int main() {
  using namespace mic;
  using namespace mic::bench;

  constexpr int kTrials = 30;
  std::printf("# Ablation: adversary switch coverage vs endpoint linking\n");
  std::printf("# end-to-end content trace over the observed links only\n");
  std::printf("# %d trials per row, one mimic channel each (N=3)\n", kTrials);
  std::printf("%-12s %10s\n", "compromised", "link_rate");

  constexpr std::uint64_t kBytes = 64 * 1024;
  Runs runs;
  for (const int percent : {10, 25, 50, 75, 90, 100}) {
    int linked = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      FabricOptions options;
      options.seed = 1000 + static_cast<std::uint64_t>(trial);
      Fabric fabric(options);
      Rng pick(500 + static_cast<std::uint64_t>(trial));

      std::uint64_t received = 0;
      MicServer server(fabric.host(kServerHost), 7000, fabric.rng());
      server.set_on_channel([&received](core::MicServerChannel& channel) {
        channel.set_on_data([&received](const transport::ChunkView& view) {
          received += view.length;
        });
      });

      // Compromise `percent` of the switches (taps on their links).
      anonymity::Observer observer;
      auto switches = fabric.network().graph().switches();
      pick.shuffle(switches);
      const std::size_t count =
          (switches.size() * static_cast<std::size_t>(percent) + 99) / 100;
      for (std::size_t i = 0; i < count; ++i) {
        observer.compromise_switch(fabric.network(), switches[i]);
      }

      MicChannelOptions channel_options;
      channel_options.responder_ip = fabric.ip(kServerHost);
      channel_options.responder_port = 7000;
      MicChannel channel(fabric.host(kClientHost), fabric.mc(),
                         channel_options, fabric.rng());
      channel.send(transport::Chunk::virtual_bytes(kBytes));
      fabric.simulator().run_until();
      runs.expect(received == kBytes,
                  std::to_string(percent) + "% compromised, trial " +
                      std::to_string(trial) + ": the 64 KiB did not arrive");

      // The adversary tries every payload fingerprint it captured.
      bool trial_linked = false;
      std::unordered_set<std::uint64_t> tags;
      for (const auto& record : observer.records()) {
        if (record.payload_bytes > 0) tags.insert(record.content_tag);
      }
      for (const std::uint64_t tag : tags) {
        const auto trace =
            anonymity::global_content_trace(observer.records(), tag);
        if (trace.linked && trace.source == fabric.ip(kClientHost) &&
            trace.destination == fabric.ip(kServerHost)) {
          trial_linked = true;
          break;
        }
      }
      linked += trial_linked;
    }
    std::printf("%10d%% %10.2f\n", percent,
                static_cast<double>(linked) / kTrials);
  }
  return runs.exit_code();
}
