// Shared scenario runners for the figure-reproduction benchmarks.
//
// Every runner builds a fresh Fabric (the paper's 16-host k=4 fat-tree),
// drives one of the four systems (TCP, SSL, MIC-TCP/MIC-SSL, Tor) through
// the workload of the corresponding figure, and reports the measured
// quantity plus the CPU cost (summed busy time of every host, switch and
// the MC, expressed in "cores of the paper's 2 GHz Xeon").
#pragma once

#include <cstdio>
#include <memory>
#include <string>
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

inline std::vector<tor::RelayAddr> make_relays(
    Fabric& fabric, std::vector<std::unique_ptr<tor::TorRelay>>& storage,
    int count) {
  std::vector<tor::RelayAddr> path;
  for (int i = 0; i < count; ++i) {
    const std::size_t host = kFirstRelayHost + static_cast<std::size_t>(i);
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
  RunResult result;

  std::vector<std::unique_ptr<tor::TorRelay>> relays;
  std::unique_ptr<MicServer> mic_server;
  std::unique_ptr<MicChannel> mic_channel;
  std::unique_ptr<tor::TorClient> tor_client;
  std::unique_ptr<transport::SslSession> client_ssl;
  std::unique_ptr<transport::SslSession> server_ssl;
  transport::TcpConnection* plain_conn = nullptr;
  transport::ByteStream* client_stream = nullptr;
  transport::ByteStream* server_stream = nullptr;

  const net::Ipv4 server_ip = fabric.ip(kServerHost);
  auto& client_host = fabric.host(kClientHost);
  auto& server_host = fabric.host(kServerHost);
  auto& simulator = fabric.simulator();

  const bool use_ssl = config.system == System::kSsl ||
                       config.system == System::kMicSsl;

  switch (config.system) {
    case System::kTcp:
    case System::kSsl: {
      server_host.listen(5000, [&](transport::TcpConnection& conn) {
        if (use_ssl) {
          server_ssl = std::make_unique<transport::SslSession>(
              conn, transport::SslSession::Role::kServer, server_host,
              fabric.rng());
          server_stream = server_ssl.get();
        } else {
          server_stream = &conn;
        }
      });
      plain_conn = &client_host.connect(server_ip, 5000);
      if (use_ssl) {
        client_ssl = std::make_unique<transport::SslSession>(
            *plain_conn, transport::SslSession::Role::kClient, client_host,
            fabric.rng());
        client_stream = client_ssl.get();
      } else {
        client_stream = plain_conn;
      }
      break;
    }
    case System::kMicTcp:
    case System::kMicSsl: {
      // The one-time client<->MC key exchange happens "in advance using
      // asymmetric encryption algorithms" (Sec VI) -- it is not part of
      // the measured connect time.  Let idle time pass so the MC CPU is
      // free again before the connect request arrives.
      fabric.mc().register_client(fabric.ip(kClientHost));
      simulator.run_until(simulator.now() + sim::milliseconds(50));
      mic_server = std::make_unique<MicServer>(server_host, 7000,
                                               fabric.rng(), use_ssl);
      mic_server->set_on_channel([&](core::MicServerChannel& channel) {
        server_stream = &channel;
      });
      MicChannelOptions mic_options;
      mic_options.responder_ip = server_ip;
      mic_options.responder_port = 7000;
      mic_options.mn_count = config.route_len;
      mic_options.flow_count = config.flows;
      mic_options.use_ssl = use_ssl;
      mic_channel = std::make_unique<MicChannel>(client_host, fabric.mc(),
                                                 mic_options, fabric.rng());
      client_stream = mic_channel.get();
      break;
    }
    case System::kTor: {
      const auto path = make_relays(fabric, relays, config.route_len);
      server_host.listen(5000, [&](transport::TcpConnection& conn) {
        server_stream = &conn;
      });
      tor_client = std::make_unique<tor::TorClient>(
          client_host, path, server_ip, 5000, fabric.rng());
      client_stream = tor_client.get();
      break;
    }
  }

  // --- setup phase ------------------------------------------------------------
  const sim::SimTime start = simulator.now();
  const sim::SimTime busy_at_start = total_busy(fabric);
  bool ready = false;
  sim::SimTime ready_at = 0;
  client_stream->set_on_ready([&] {
    ready = true;
    ready_at = simulator.now();
  });
  if (client_stream->ready()) {
    ready = true;
    ready_at = simulator.now();
  }
  simulator.run_until();
  if (!ready) {
    std::fprintf(stderr, "session setup failed for %s\n",
                 system_name(config.system));
    return result;
  }
  result.setup_ms = sim::to_millis(ready_at - start);

  // --- latency phase (Figure 8) --------------------------------------------------
  if (config.ping_rounds > 0) {
    // The server side stream exists once the first bytes arrive for MIC;
    // for TCP/SSL/Tor it exists after accept.  Attach an echo when ready.
    std::unique_ptr<transport::PingPongServer> echo;
    std::unique_ptr<transport::PingPongClient> ping;
    auto attach_echo = [&] {
      if (server_stream != nullptr && echo == nullptr) {
        echo = std::make_unique<transport::PingPongServer>(*server_stream);
      }
    };
    attach_echo();
    if (echo == nullptr && mic_server != nullptr) {
      mic_server->set_on_channel([&](core::MicServerChannel& channel) {
        server_stream = &channel;
        attach_echo();
      });
    }
    ping = std::make_unique<transport::PingPongClient>(
        *client_stream, simulator, config.ping_rounds);
    simulator.run_until();
    result.latency_us = ping->mean_rtt_us();
  }

  // --- bulk phase (Figure 9a) ------------------------------------------------------
  if (config.bulk_bytes > 0) {
    std::unique_ptr<transport::BulkSink> sink;
    auto attach_sink = [&] {
      if (server_stream != nullptr && sink == nullptr) {
        sink = std::make_unique<transport::BulkSink>(*server_stream, simulator,
                                                     config.bulk_bytes);
      }
    };
    attach_sink();
    if (sink == nullptr && mic_server != nullptr) {
      mic_server->set_on_channel([&](core::MicServerChannel& channel) {
        server_stream = &channel;
        attach_sink();
      });
    }
    client_stream->send(transport::Chunk::virtual_bytes(config.bulk_bytes));
    simulator.run_until();
    attach_sink();
    if (sink == nullptr || !sink->finished()) {
      std::fprintf(stderr, "bulk transfer incomplete for %s\n",
                   system_name(config.system));
      return result;
    }
    result.mbps = sink->goodput_bps() / 1e6;
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

  const bool is_mic = config.system == System::kMicTcp ||
                      config.system == System::kMicSsl;
  const bool use_ssl = config.system == System::kSsl ||
                       config.system == System::kMicSsl;

  std::vector<std::unique_ptr<tor::TorRelay>> relays;
  std::vector<tor::RelayAddr> relay_path;
  if (config.system == System::kTor) {
    relay_path = make_relays(fabric, relays, 3);
  }
  if (is_mic) {
    for (int i = 0; i < 8; ++i) {
      fabric.mc().register_client(fabric.ip(static_cast<std::size_t>(i)));
    }
    simulator.run_until(simulator.now() + sim::milliseconds(100));
  }
  const sim::SimTime start = simulator.now();
  const sim::SimTime busy_at_start = total_busy(fabric);

  std::vector<std::unique_ptr<MicServer>> mic_servers;
  std::vector<std::unique_ptr<MicChannel>> mic_channels;
  std::vector<std::unique_ptr<tor::TorClient>> tor_clients;
  std::vector<std::unique_ptr<transport::SslSession>> ssl_sessions;
  std::vector<std::unique_ptr<transport::BulkSink>> sinks;
  std::vector<std::unique_ptr<transport::BulkSender>> senders;

  // Flow i: client host (i % 8) in pods 0/1, server host 8 + (i % 8) in
  // pods 2/3 -- always inter-pod, path length 3 MNs fits.  Starts are
  // staggered by a few ms (iperf runs are never perfectly synchronized;
  // lock-step starts synchronize slow-start overshoot unrealistically).
  for (int i = 0; i < config.flows; ++i) {
    auto setup_flow = [&config, &fabric, &simulator, &relay_path,
                       &mic_servers, &mic_channels, &tor_clients,
                       &ssl_sessions, &sinks, &senders, use_ssl, i] {
    const std::size_t client_index = static_cast<std::size_t>(i % 8);
    const std::size_t server_index = 8 + static_cast<std::size_t>(i % 8);
    auto& client_host = fabric.host(client_index);
    auto& server_host = fabric.host(server_index);
    const net::L4Port port = static_cast<net::L4Port>(5000 + i);

    switch (config.system) {
      case System::kTcp:
      case System::kSsl: {
        server_host.listen(port, [&, use_ssl](transport::TcpConnection& conn) {
          transport::ByteStream* stream = &conn;
          if (use_ssl) {
            ssl_sessions.push_back(std::make_unique<transport::SslSession>(
                conn, transport::SslSession::Role::kServer, server_host,
                fabric.rng()));
            stream = ssl_sessions.back().get();
          }
          sinks.push_back(std::make_unique<transport::BulkSink>(
              *stream, simulator, config.bytes_per_flow));
        });
        auto& conn = client_host.connect(fabric.ip(server_index), port);
        transport::ByteStream* stream = &conn;
        if (use_ssl) {
          ssl_sessions.push_back(std::make_unique<transport::SslSession>(
              conn, transport::SslSession::Role::kClient, client_host,
              fabric.rng()));
          stream = ssl_sessions.back().get();
        }
        senders.push_back(std::make_unique<transport::BulkSender>(
            *stream, config.bytes_per_flow));
        break;
      }
      case System::kMicTcp:
      case System::kMicSsl: {
        mic_servers.push_back(std::make_unique<MicServer>(
            server_host, port, fabric.rng(), use_ssl));
        mic_servers.back()->set_on_channel(
            [&](core::MicServerChannel& channel) {
              sinks.push_back(std::make_unique<transport::BulkSink>(
                  channel, simulator, config.bytes_per_flow));
            });
        MicChannelOptions mic_options;
        mic_options.responder_ip = fabric.ip(server_index);
        mic_options.responder_port = port;
        mic_options.mn_count = 3;
        mic_options.use_ssl = use_ssl;
        mic_channels.push_back(std::make_unique<MicChannel>(
            client_host, fabric.mc(), mic_options, fabric.rng()));
        senders.push_back(std::make_unique<transport::BulkSender>(
            *mic_channels.back(), config.bytes_per_flow));
        break;
      }
      case System::kTor: {
        server_host.listen(port, [&](transport::TcpConnection& conn) {
          sinks.push_back(std::make_unique<transport::BulkSink>(
              conn, simulator, config.bytes_per_flow));
        });
        tor_clients.push_back(std::make_unique<tor::TorClient>(
            client_host, relay_path, fabric.ip(server_index), port,
            fabric.rng()));
        senders.push_back(std::make_unique<transport::BulkSender>(
            *tor_clients.back(), config.bytes_per_flow));
        break;
      }
    }
    };
    simulator.schedule_in(sim::milliseconds(static_cast<std::uint64_t>(5 * i)),
                          setup_flow);
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
