// Failover: a mid-transfer link cut is detected by the switches' own
// port-status pipeline (loss of signal -> async notification -> MC), and
// the Mimic Controller re-routes the live mimic channel around it without
// the endpoints noticing -- the SDN dividend of the in-network design (an
// overlay system would have to rebuild its circuits end-to-end).  Nothing
// here reports the failure by hand: cutting the PHY is all it takes.
#include <cstdio>

#include "core/audit_registry.hpp"
#include "core/fabric.hpp"
#include "core/mic_client.hpp"

using namespace mic;

namespace {

void print_path(const char* label, const core::MFlowPlan& plan) {
  std::printf("%s", label);
  for (const topo::NodeId node : plan.path) std::printf(" %u", node);
  std::printf("   (MNs at");
  for (const std::size_t pos : plan.mn_positions) {
    std::printf(" %u", plan.path[pos]);
  }
  std::printf(")\n");
}

}  // namespace

int main() {
  core::Fabric fabric;
  auto& simulator = fabric.simulator();

  core::MicServer server(fabric.host(12), 7000, fabric.rng());
  std::uint64_t received = 0;
  server.set_on_channel([&](core::MicServerChannel& channel) {
    channel.set_on_data([&](const transport::ChunkView& view) {
      received += view.length;
    });
  });

  core::MicChannelOptions options;
  options.responder_ip = fabric.ip(12);
  options.responder_port = 7000;
  core::MicChannel channel(fabric.host(0), fabric.mc(), options,
                           fabric.rng());
  simulator.run_until();

  const auto& plan_before = fabric.mc().channel(channel.id())->flows[0];
  print_path("route before failure:", plan_before);

  // Start a 8 MB transfer, then cut a link in the middle of the path while
  // it is in flight.
  constexpr std::uint64_t kBytes = 8ull * 1024 * 1024;
  channel.send(transport::Chunk::virtual_bytes(kBytes));
  simulator.run_until(simulator.now() + sim::milliseconds(10));
  std::printf("\n10 ms in: %llu / %llu bytes delivered\n",
              static_cast<unsigned long long>(received),
              static_cast<unsigned long long>(kBytes));

  const std::size_t mid = plan_before.path.size() / 2;
  const topo::LinkId victim = fabric.network().graph().link_between(
      plan_before.path[mid], plan_before.path[mid + 1]);
  const auto failure_at = simulator.now();
  fabric.network().set_link_up(victim, false);
  std::printf("cutting link %u (between switches %u and %u); no failure "
              "report is sent -- detection is on its own\n",
              victim, plan_before.path[mid], plan_before.path[mid + 1]);

  // Give the detection pipeline (PHY delay + async port-status message)
  // a moment, then show what the MC worked out by itself.
  simulator.run_until(simulator.now() + sim::milliseconds(2));
  std::printf("MC's failure view: link %u %s, %llu channel(s) repaired\n",
              victim,
              fabric.mc().failed_links().contains(victim) ? "DOWN" : "up",
              static_cast<unsigned long long>(
                  fabric.mc().channels_repaired()));

  simulator.run_until();
  const auto& plan_after = fabric.mc().channel(channel.id())->flows[0];
  print_path("route after repair:  ", plan_after);

  std::printf("\ntransfer completed: %llu bytes "
              "(%.1f ms total, repair downtime absorbed by TCP)\n",
              static_cast<unsigned long long>(received),
              sim::to_millis(simulator.now()));
  std::printf("entry address unchanged: %s:%u -- the initiator's socket "
              "never noticed (%llu transparent repair(s))\n",
              plan_after.forward[0].dst.str().c_str(),
              plan_after.forward[0].dport,
              static_cast<unsigned long long>(channel.repair_count()));
  std::printf("time from failure to completion: %.1f ms\n",
              sim::to_millis(simulator.now() - failure_at));

  // Repairing the cable clears the failure the same way: detection only.
  fabric.network().set_link_up(victim, true);
  simulator.run_until();
  std::printf("link %u repaired; MC failure set %s\n", victim,
              fabric.mc().failed_links().empty() ? "empty again" : "STALE");

  const auto report = mic::audit::run_all(fabric);
  std::printf("invariant audit after repair: %s (%s)\n",
              report.ok ? "CLEAN" : "VIOLATIONS", report.summary().c_str());

  // Finally, kill the controller itself.  The data plane keeps running on
  // the rules already in the switches; recover() replays the write-ahead
  // channel journal and resyncs every switch (DESIGN.md 3e).
  std::printf("\ncrashing the Mimic Controller (channels keep forwarding "
              "on installed rules)\n");
  fabric.mc().crash();
  channel.send(transport::Chunk::virtual_bytes(64 * 1024));
  simulator.run_until();
  const std::uint64_t after_crash = received;
  std::printf("64 KB sent across the dead-MC window: %s\n",
              after_crash == kBytes + 64 * 1024 ? "delivered" : "LOST");

  const auto recovery = fabric.mc().recover(fabric.mc().journal());
  simulator.run_until();
  std::printf("recover(): %zu channel(s) recovered, %zu kept in place, %zu "
              "reinstalled, %zu orphan rule(s) removed, %zu switches "
              "resynced\n",
              recovery.channels_recovered, recovery.channels_kept,
              recovery.channels_reinstalled, recovery.orphan_rules_removed,
              recovery.switches_resynced);
  const auto post_recovery = mic::audit::run_all(fabric);
  std::printf("invariant audit after recovery (incl. RC-1): %s (%s)\n",
              post_recovery.ok ? "CLEAN" : "VIOLATIONS",
              post_recovery.summary().c_str());

  return report.ok && post_recovery.ok &&
                 after_crash == kBytes + 64 * 1024 &&
                 recovery.channels_kept == 1 &&
                 fabric.mc().failed_links().empty() &&
                 channel.repair_count() == 1
             ? 0
             : 1;
}
