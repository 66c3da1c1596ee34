// Bench: failure recovery.
//
// Two series.  First, repair latency: time from a mid-transfer PHY link
// cut to the MC's transparent repair of the affected mimic channel, as a
// function of the switch-side detection latency (the delay before the
// async port-status message).  Second, availability: goodput under the
// standard chaos schedule (link flaps, a switch crash, install-fault and
// control-drop bursts) relative to an undisturbed run over the same
// horizon, plus the repair/loss counts behind it.
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "core/fault_injector.hpp"

namespace {

using namespace mic;
using namespace mic::bench;

struct Rig {
  explicit Rig(FabricOptions options) : fabric(options) {
    server = std::make_unique<MicServer>(fabric.host(kServerHost), 7000,
                                         fabric.rng());
    server->set_on_channel([this](core::MicServerChannel& server_channel) {
      server_channel.set_on_data([this](const transport::ChunkView& view) {
        received += view.length;
      });
    });
    MicChannelOptions mic_options;
    mic_options.responder_ip = fabric.ip(kServerHost);
    mic_options.responder_port = 7000;
    mic_options.auto_reestablish = true;
    channel = std::make_unique<MicChannel>(fabric.host(kClientHost),
                                           fabric.mc(), mic_options,
                                           fabric.rng());
    fabric.simulator().run_until();
  }

  Fabric fabric;
  std::unique_ptr<MicServer> server;
  std::unique_ptr<MicChannel> channel;
  std::uint64_t received = 0;
};

double repair_latency_ms(sim::SimTime detection_latency) {
  FabricOptions options;
  options.seed = 11;
  options.controller.detection_latency = detection_latency;
  Rig rig(options);
  auto& simulator = rig.fabric.simulator();

  rig.channel->send(transport::Chunk::virtual_bytes(8ull * 1024 * 1024));
  simulator.run_until(simulator.now() + sim::milliseconds(5));

  const auto& plan = rig.fabric.mc().channel(rig.channel->id())->flows[0];
  const topo::LinkId victim = rig.fabric.network().graph().link_between(
      plan.path[plan.path.size() / 2], plan.path[plan.path.size() / 2 + 1]);
  const sim::SimTime cut_at = simulator.now();
  rig.fabric.network().set_link_up(victim, false);

  // Poll in 20 us steps until the endpoint hears "repaired".
  const sim::SimTime deadline = cut_at + sim::seconds(1);
  while (rig.channel->repair_count() == 0 && simulator.now() < deadline) {
    simulator.run_until(simulator.now() + sim::microseconds(20));
  }
  return sim::to_millis(simulator.now() - cut_at);
}

struct AvailabilityPoint {
  double goodput_fraction = 0.0;
  std::uint64_t repaired = 0;
  std::uint64_t lost = 0;
  std::uint64_t install_retries = 0;
};

std::uint64_t delivered_over_horizon(std::uint64_t chaos_seed,
                                     AvailabilityPoint* point) {
  FabricOptions options;
  options.seed = 11;
  Rig rig(options);
  auto& simulator = rig.fabric.simulator();

  // More data than the horizon can carry: the channel stays busy.
  rig.channel->send(transport::Chunk::virtual_bytes(64ull * 1024 * 1024));

  // The injector's armed faults fire during the run, so it lives as long.
  std::optional<core::FaultInjector> injector;
  if (chaos_seed != 0) {
    core::FaultInjectorOptions fo;
    fo.seed = chaos_seed;
    injector.emplace(rig.fabric.network(), rig.fabric.mc(), fo);
    injector->arm();
  }
  simulator.run_until(simulator.now() + sim::milliseconds(100));

  if (point != nullptr) {
    point->repaired = rig.fabric.mc().channels_repaired();
    point->lost = rig.fabric.mc().channels_lost();
    point->install_retries = rig.fabric.mc().install_retries();
  }
  return rig.received;
}

}  // namespace

int main() {
  std::printf("# Repair latency vs detection latency (PHY cut mid-transfer,\n"
              "# time until the endpoint's \"repaired\" notification)\n");
  std::printf("%-22s %16s\n", "detection_latency_us", "repair_ms");
  for (const sim::SimTime detect :
       {sim::microseconds(100), sim::microseconds(500), sim::milliseconds(1),
        sim::milliseconds(2)}) {
    std::printf("%-22llu %16.3f\n",
                static_cast<unsigned long long>(detect / 1000),
                repair_latency_ms(detect));
  }

  std::printf("\n# Availability under the standard chaos schedule\n"
              "# (100 ms horizon, goodput relative to an undisturbed run)\n");
  const std::uint64_t baseline = delivered_over_horizon(0, nullptr);
  std::printf("%-12s %14s %10s %6s %16s\n", "chaos_seed", "availability",
              "repaired", "lost", "install_retries");
  double sum = 0.0;
  constexpr int kSeeds = 5;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    AvailabilityPoint point;
    const std::uint64_t delivered = delivered_over_horizon(seed, &point);
    point.goodput_fraction =
        baseline == 0 ? 0.0
                      : static_cast<double>(delivered) /
                            static_cast<double>(baseline);
    sum += point.goodput_fraction;
    std::printf("%-12llu %14.3f %10llu %6llu %16llu\n",
                static_cast<unsigned long long>(seed), point.goodput_fraction,
                static_cast<unsigned long long>(point.repaired),
                static_cast<unsigned long long>(point.lost),
                static_cast<unsigned long long>(point.install_retries));
  }
  std::printf("# mean availability: %.3f\n", sum / kSeeds);
  return 0;
}
