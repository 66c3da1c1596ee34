// Ablation: "massive short communication scenes" (paper Sec IV-B1) --
// the workload that motivates channel reuse.  Runs a burst of sequential
// RPC-style sessions (1 KB request, 4 KB response) between one pair and
// reports total completion time and per-session cost for:
//   TCP          - a fresh connection per RPC (the non-anonymous baseline)
//   MIC fresh    - a fresh mimic channel per RPC (worst case)
//   MIC reuse    - one mimic channel reused across RPCs via the pool
#include <cstdio>
#include <string>

#include "common.hpp"

namespace {

using namespace mic;
using namespace mic::bench;

constexpr int kSessions = 25;

std::vector<std::uint8_t> request_bytes() {
  return std::vector<std::uint8_t>(1024, 0x3f);
}

/// Runs `kSessions` sequential RPCs; returns total time in ms, or 0 after
/// reporting an incomplete RPC to `runs`.
double run_tcp(Runs& runs) {
  Fabric fabric;
  auto& simulator = fabric.simulator();
  fabric.host(kServerHost).listen(5000, [&](transport::TcpConnection& conn) {
    auto got = std::make_shared<std::uint64_t>(0);
    conn.set_on_data([c = &conn, got](const transport::ChunkView& view) {
      *got += view.length;
      if (*got >= 1024) {
        *got = 0;
        c->send(transport::Chunk::virtual_bytes(4096));
      }
    });
  });

  const sim::SimTime start = simulator.now();
  for (int s = 0; s < kSessions; ++s) {
    std::uint64_t received = 0;
    bool done = false;
    auto& conn = fabric.host(kClientHost).connect(fabric.ip(kServerHost), 5000);
    conn.set_on_ready(
        [&conn] { conn.send(transport::Chunk::real(request_bytes())); });
    conn.set_on_data([&](const transport::ChunkView& view) {
      received += view.length;
      if (received >= 4096) done = true;
    });
    simulator.run_until();
    if (!runs.expect(done, "TCP rpc " + std::to_string(s) + " incomplete")) {
      return 0;
    }
    conn.close();
    simulator.run_until();
  }
  return sim::to_millis(simulator.now() - start);
}

double run_mic(Runs& runs, bool reuse) {
  Fabric fabric;
  auto& simulator = fabric.simulator();
  fabric.mc().register_client(fabric.ip(kClientHost));
  simulator.run_until(simulator.now() + sim::milliseconds(50));

  MicServer server(fabric.host(kServerHost), 7000, fabric.rng());
  server.set_on_channel([](core::MicServerChannel& channel) {
    auto* ch = &channel;
    auto got = std::make_shared<std::uint64_t>(0);
    channel.set_on_data([ch, got](const transport::ChunkView& view) {
      *got += view.length;
      if (*got >= 1024) {
        *got = 0;
        ch->send(transport::Chunk::virtual_bytes(4096));
      }
    });
  });

  core::MicChannelPool pool(fabric.host(kClientHost), fabric.mc(),
                            fabric.rng());
  MicChannelOptions options;
  options.responder_ip = fabric.ip(kServerHost);
  options.responder_port = 7000;

  const sim::SimTime start = simulator.now();
  for (int s = 0; s < kSessions; ++s) {
    MicChannel& channel = pool.acquire(options);
    std::uint64_t received = 0;
    bool done = false;
    channel.set_on_data([&](const transport::ChunkView& view) {
      received += view.length;
      if (received >= 4096) done = true;
    });
    channel.send(transport::Chunk::real(request_bytes()));
    simulator.run_until();
    if (!runs.expect(done, std::string(reuse ? "MIC-reuse" : "MIC-fresh") +
                               " rpc " + std::to_string(s) + " incomplete")) {
      return 0;
    }
    if (reuse) {
      pool.release(channel);
    } else {
      channel.close();
      pool.drain();
    }
    simulator.run_until();
  }
  return sim::to_millis(simulator.now() - start);
}

}  // namespace

int main() {
  std::printf("# Ablation: %d sequential short RPCs (1 KB -> 4 KB)\n",
              kSessions);
  std::printf("%-10s %14s %16s\n", "mode", "total_ms", "per_session_ms");
  Runs runs;
  const double tcp = run_tcp(runs);
  const double fresh = run_mic(runs, /*reuse=*/false);
  const double reused = run_mic(runs, /*reuse=*/true);
  std::printf("%-10s %14.2f %16.3f\n", "TCP", tcp, tcp / kSessions);
  std::printf("%-10s %14.2f %16.3f\n", "MIC-fresh", fresh, fresh / kSessions);
  std::printf("%-10s %14.2f %16.3f\n", "MIC-reuse", reused,
              reused / kSessions);
  std::printf("# reuse removes the per-session MC round trip + rule "
              "install,\n# and a reused channel skips the handshake TCP "
              "pays per RPC.\n");
  return runs.exit_code();
}
