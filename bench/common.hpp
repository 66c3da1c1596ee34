// Shared scenario runners for the figure-reproduction benchmarks.
//
// Every runner builds a fresh Fabric (the paper's 16-host k=4 fat-tree),
// drives one of the four systems (TCP, SSL, MIC-TCP/MIC-SSL, Tor) through
// the workload of the corresponding figure, and reports the measured
// quantity plus the CPU cost (summed busy time of every host, switch and
// the MC, expressed in "cores of the paper's 2 GHz Xeon").
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fabric.hpp"
#include "core/mic_client.hpp"
#include "tor/client.hpp"
#include "tor/relay.hpp"
#include "transport/apps.hpp"
#include "transport/ssl.hpp"

namespace mic::bench {

using core::Fabric;
using core::FabricOptions;
using core::MicChannel;
using core::MicChannelOptions;
using core::MicServer;

/// Hosts used by the standard scenarios.
inline constexpr std::size_t kClientHost = 0;    // pod 0
inline constexpr std::size_t kServerHost = 12;   // pod 3 (inter-pod: 5 switches)
inline constexpr std::size_t kFirstRelayHost = 8;  // relays on pod 2/3 hosts

struct RunResult {
  bool ok = false;
  double setup_ms = 0.0;       // connection / circuit / channel setup
  double latency_us = 0.0;     // mean 10-byte ping-pong RTT
  double mbps = 0.0;           // per-flow goodput (mean across flows)
  double cpu_cores = 0.0;      // summed busy fraction over the run
  sim::SimTime duration = 0;
};

/// Total busy time across every simulated CPU (hosts, switches, MC).
inline sim::SimTime total_busy(Fabric& fabric) {
  sim::SimTime busy = fabric.mc().mc_cpu().busy_time();
  for (const topo::NodeId n : fabric.network().graph().switches()) {
    busy += fabric.mc().switch_at(n)->cpu().busy_time();
  }
  for (std::size_t i = 0; i < fabric.host_count(); ++i) {
    busy += fabric.host(i).cpu().busy_time();
  }
  return busy;
}

/// Starts `count` Tor relays on port 9001 of consecutive hosts from
/// `first_host` on and returns them as a circuit path.
inline std::vector<tor::RelayAddr> make_relays(
    Fabric& fabric, std::vector<std::unique_ptr<tor::TorRelay>>& storage,
    int count, std::size_t first_host) {
  std::vector<tor::RelayAddr> path;
  for (int i = 0; i < count; ++i) {
    const std::size_t host = first_host + static_cast<std::size_t>(i);
    storage.push_back(
        std::make_unique<tor::TorRelay>(fabric.host(host), 9001, fabric.rng()));
    path.push_back({fabric.ip(host), 9001});
  }
  return path;
}

enum class System { kTcp, kSsl, kMicTcp, kMicSsl, kTor };

inline const char* system_name(System system) {
  switch (system) {
    case System::kTcp: return "TCP";
    case System::kSsl: return "SSL";
    case System::kMicTcp: return "MIC-TCP";
    case System::kMicSsl: return "MIC-SSL";
    case System::kTor: return "Tor";
  }
  return "?";
}

inline bool is_mic(System system) {
  return system == System::kMicTcp || system == System::kMicSsl;
}

/// What open_session creates, kept alive for as long as the scenario runs.
struct Sessions {
  std::vector<std::unique_ptr<MicServer>> mic_servers;
  std::vector<std::unique_ptr<MicChannel>> mic_channels;
  std::vector<std::unique_ptr<tor::TorClient>> tor_clients;
  std::vector<std::unique_ptr<transport::SslSession>> ssl_sessions;
};

/// Opens one session of `system` from host `client` to host `server` on
/// `port` and returns the client's stream.  The server's stream goes to
/// `on_server` once it exists: at accept for TCP, SSL and Tor, at the
/// channel's first slice for MIC.  `mic` gives a MIC channel's N, F and
/// decoys, `relays` a Tor circuit's path.  A MIC client must already be
/// registered with the MC, and the relays must be running.
inline transport::ByteStream& open_session(
    Fabric& fabric, Sessions& sessions, System system, std::size_t client,
    std::size_t server, net::L4Port port, MicChannelOptions mic,
    const std::vector<tor::RelayAddr>& relays,
    std::function<void(transport::ByteStream&)> on_server) {
  auto& client_host = fabric.host(client);
  auto& server_host = fabric.host(server);
  const bool use_ssl = system == System::kSsl || system == System::kMicSsl;

  if (is_mic(system)) {
    sessions.mic_servers.push_back(
        std::make_unique<MicServer>(server_host, port, fabric.rng(), use_ssl));
    sessions.mic_servers.back()->set_on_channel(std::move(on_server));
    mic.responder_ip = fabric.ip(server);
    mic.responder_port = port;
    mic.use_ssl = use_ssl;
    sessions.mic_channels.push_back(std::make_unique<MicChannel>(
        client_host, fabric.mc(), mic, fabric.rng()));
    return *sessions.mic_channels.back();
  }
  if (system == System::kTor) {
    server_host.listen(port, std::move(on_server));
    sessions.tor_clients.push_back(std::make_unique<tor::TorClient>(
        client_host, relays, fabric.ip(server), port, fabric.rng()));
    return *sessions.tor_clients.back();
  }

  // TCP, or SSL on top of it.
  using Role = transport::SslSession::Role;
  auto wrap = [&fabric, &sessions, use_ssl](
                  transport::TcpConnection& conn, transport::Host& host,
                  Role role) -> transport::ByteStream& {
    if (!use_ssl) return conn;
    sessions.ssl_sessions.push_back(std::make_unique<transport::SslSession>(
        conn, role, host, fabric.rng()));
    return *sessions.ssl_sessions.back();
  };
  server_host.listen(port, [wrap, &server_host,
                            on_server = std::move(on_server)](
                               transport::TcpConnection& conn) {
    on_server(wrap(conn, server_host, Role::kServer));
  });
  return wrap(client_host.connect(fabric.ip(server), port), client_host,
              Role::kClient);
}

/// One end-to-end session of `system` with `route_len` rewriting/relay
/// stages, optionally followed by a ping-pong latency test and/or a bulk
/// transfer.  This is the engine behind Figures 7, 8 and 9(a).
struct SessionConfig {
  System system = System::kTcp;
  int route_len = 3;        // MIC MN count / Tor relay count; ignored for TCP/SSL
  int flows = 1;            // MIC m-flow count F
  int ping_rounds = 0;      // Figure 8 when > 0
  std::uint64_t bulk_bytes = 0;  // Figure 9(a) when > 0
  std::uint64_t seed = 42;
};

inline RunResult run_session(const SessionConfig& config) {
  FabricOptions options;
  options.seed = config.seed;
  Fabric fabric(options);
  auto& simulator = fabric.simulator();
  RunResult result;

  std::vector<std::unique_ptr<tor::TorRelay>> relays;
  std::vector<tor::RelayAddr> relay_path;
  if (config.system == System::kTor) {
    relay_path = make_relays(fabric, relays, config.route_len, kFirstRelayHost);
  }
  if (is_mic(config.system)) {
    // The one-time client<->MC key exchange happens "in advance using
    // asymmetric encryption algorithms" (Sec VI) -- it is not part of
    // the measured connect time.  Let idle time pass so the MC CPU is
    // free again before the connect request arrives.
    fabric.mc().register_client(fabric.ip(kClientHost));
    simulator.run_until(simulator.now() + sim::milliseconds(50));
  }
  MicChannelOptions mic;
  mic.mn_count = config.route_len;
  mic.flow_count = config.flows;
  Sessions sessions;
  transport::ByteStream* server_stream = nullptr;
  transport::ByteStream& client_stream = open_session(
      fabric, sessions, config.system, kClientHost, kServerHost,
      is_mic(config.system) ? 7000 : 5000, mic, relay_path,
      [&server_stream](transport::ByteStream& stream) {
        server_stream = &stream;
      });

  // --- setup phase ------------------------------------------------------------
  const sim::SimTime start = simulator.now();
  const sim::SimTime busy_at_start = total_busy(fabric);
  bool ready = false;
  sim::SimTime ready_at = 0;
  client_stream.set_on_ready([&] {
    ready = true;
    ready_at = simulator.now();
  });
  if (client_stream.ready()) {
    ready = true;
    ready_at = simulator.now();
  }
  simulator.run_until();
  // The server's stream exists by now: TCP, SSL and Tor accept before the
  // client is ready, and a MIC channel's hello slices follow its ready.
  if (!ready || server_stream == nullptr) {
    std::fprintf(stderr, "session setup failed for %s\n",
                 system_name(config.system));
    return result;
  }
  result.setup_ms = sim::to_millis(ready_at - start);

  // --- latency phase (Figure 8) --------------------------------------------------
  if (config.ping_rounds > 0) {
    transport::PingPongServer echo(*server_stream);
    transport::PingPongClient ping(client_stream, simulator,
                                   config.ping_rounds);
    simulator.run_until();
    result.latency_us = ping.mean_rtt_us();
  }

  // --- bulk phase (Figure 9a) ------------------------------------------------------
  if (config.bulk_bytes > 0) {
    transport::BulkSink sink(*server_stream, simulator, config.bulk_bytes);
    client_stream.send(transport::Chunk::virtual_bytes(config.bulk_bytes));
    simulator.run_until();
    if (!sink.finished()) {
      std::fprintf(stderr, "bulk transfer incomplete for %s\n",
                   system_name(config.system));
      return result;
    }
    result.mbps = sink.goodput_bps() / 1e6;
  }

  result.duration = simulator.now() - start;
  if (result.duration > 0) {
    result.cpu_cores =
        static_cast<double>(total_busy(fabric) - busy_at_start) /
        static_cast<double>(result.duration);
  }
  result.ok = true;
  return result;
}

/// N concurrent bulk flows, path length 3 (Figure 9b): returns the mean
/// per-flow goodput.
struct MultiFlowConfig {
  System system = System::kTcp;
  int flows = 1;
  std::uint64_t bytes_per_flow = 4 * 1024 * 1024;
  std::uint64_t seed = 42;
};

inline RunResult run_multi_flow(const MultiFlowConfig& config) {
  FabricOptions options;
  options.seed = config.seed;
  Fabric fabric(options);
  auto& simulator = fabric.simulator();
  RunResult result;

  std::vector<std::unique_ptr<tor::TorRelay>> relays;
  std::vector<tor::RelayAddr> relay_path;
  if (config.system == System::kTor) {
    relay_path = make_relays(fabric, relays, 3, kFirstRelayHost);
  }
  if (is_mic(config.system)) {
    for (int i = 0; i < 8; ++i) {
      fabric.mc().register_client(fabric.ip(static_cast<std::size_t>(i)));
    }
    simulator.run_until(simulator.now() + sim::milliseconds(100));
  }
  const sim::SimTime start = simulator.now();
  const sim::SimTime busy_at_start = total_busy(fabric);

  Sessions sessions;
  std::vector<std::unique_ptr<transport::BulkSink>> sinks;
  std::vector<std::unique_ptr<transport::BulkSender>> senders;

  // Flow i: client host (i % 8) in pods 0/1, server host 8 + (i % 8) in
  // pods 2/3 -- always inter-pod, path length 3 MNs fits.  Starts are
  // staggered by a few ms (iperf runs are never perfectly synchronized;
  // lock-step starts synchronize slow-start overshoot unrealistically).
  for (int i = 0; i < config.flows; ++i) {
    simulator.schedule_in(
        sim::milliseconds(static_cast<std::uint64_t>(5 * i)), [&, i] {
          transport::ByteStream& stream = open_session(
              fabric, sessions, config.system, static_cast<std::size_t>(i % 8),
              8 + static_cast<std::size_t>(i % 8),
              static_cast<net::L4Port>(5000 + i), MicChannelOptions{},
              relay_path, [&](transport::ByteStream& server_stream) {
                sinks.push_back(std::make_unique<transport::BulkSink>(
                    server_stream, simulator, config.bytes_per_flow));
              });
          senders.push_back(std::make_unique<transport::BulkSender>(
              stream, config.bytes_per_flow));
        });
  }

  simulator.run_until();

  double mbps_sum = 0.0;
  int finished = 0;
  for (const auto& sink : sinks) {
    if (sink->finished()) {
      mbps_sum += sink->goodput_bps() / 1e6;
      ++finished;
    }
  }
  if (finished != config.flows) {
    std::fprintf(stderr, "%s: only %d/%d flows finished\n",
                 system_name(config.system), finished, config.flows);
    return result;
  }
  result.mbps = mbps_sum / config.flows;
  result.duration = simulator.now() - start;
  if (result.duration > 0) {
    result.cpu_cores =
        static_cast<double>(total_busy(fabric) - busy_at_start) /
        static_cast<double>(result.duration);
  }
  result.ok = true;
  return result;
}

/// The runners the figure benches call, counting failures.  A failed run
/// returns zeros, which print like data, so each failure is named on
/// stderr and exit_code() turns non-zero; stdout is left to the bench.
/// Benches that drive their own scenario report each session through
/// expect().
class Runs {
 public:
  /// Counts `what` as failed unless `ok`; returns `ok`.
  bool expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
    return ok;
  }

  RunResult session(const SessionConfig& config) {
    RunResult result = run_session(config);
    if (!result.ok) {
      fail(std::string(system_name(config.system)) + " session: route_len " +
           std::to_string(config.route_len) + ", flows " +
           std::to_string(config.flows) + ", ping_rounds " +
           std::to_string(config.ping_rounds) + ", bulk_bytes " +
           std::to_string(config.bulk_bytes) + ", seed " +
           std::to_string(config.seed));
    }
    return result;
  }

  RunResult multi_flow(const MultiFlowConfig& config) {
    RunResult result = run_multi_flow(config);
    if (!result.ok) {
      fail(std::string(system_name(config.system)) + " multi-flow: flows " +
           std::to_string(config.flows) + ", bytes_per_flow " +
           std::to_string(config.bytes_per_flow) + ", seed " +
           std::to_string(config.seed));
    }
    return result;
  }

  /// The bench's exit status: 0 when every run succeeded.
  int exit_code() const noexcept { return failed_ == 0 ? 0 : 1; }

 private:
  void fail(const std::string& config) {
    ++failed_;
    std::fprintf(stderr, "run failed: %s\n", config.c_str());
  }

  int failed_ = 0;
};

}  // namespace mic::bench
