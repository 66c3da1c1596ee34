// Tests of the Tor overlay baseline: circuit construction, onion layering,
// exit proxying, data transfer.
#include <gtest/gtest.h>

#include "core/fabric.hpp"
#include "tor/client.hpp"
#include "tor/relay.hpp"
#include "transport/apps.hpp"

namespace mic::tor {
namespace {

using core::Fabric;
using core::FabricOptions;

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

struct TorBed {
  explicit TorBed(int relay_count = 3) {
    // Relays on hosts 8..8+n, client on host 0, server on host 15.
    for (int i = 0; i < relay_count; ++i) {
      const std::size_t host_index = 8 + static_cast<std::size_t>(i);
      relays.push_back(std::make_unique<TorRelay>(fabric.host(host_index),
                                                  9001, fabric.rng()));
      path.push_back({fabric.ip(host_index), 9001});
    }
  }

  Fabric fabric;
  std::vector<std::unique_ptr<TorRelay>> relays;
  std::vector<RelayAddr> path;
};

TEST(Tor, CircuitBuildsThroughAllRelays) {
  TorBed bed(3);
  bed.fabric.host(15).listen(5000, [](transport::TcpConnection&) {});
  TorClient client(bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
                   bed.fabric.rng());
  bed.fabric.simulator().run_until();
  EXPECT_TRUE(client.ready());
  EXPECT_EQ(client.built_hops(), 3);
  EXPECT_GT(client.setup_time(), 0u);
}

TEST(Tor, SetupTimeGrowsWithPathLength) {
  sim::SimTime previous = 0;
  for (int hops = 1; hops <= 4; ++hops) {
    TorBed bed(hops);
    bed.fabric.host(15).listen(5000, [](transport::TcpConnection&) {});
    TorClient client(bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
                     bed.fabric.rng());
    bed.fabric.simulator().run_until();
    ASSERT_TRUE(client.ready());
    EXPECT_GT(client.setup_time(), previous);
    previous = client.setup_time();
  }
}

TEST(Tor, RealDataRoundTrips) {
  TorBed bed(3);
  std::string at_server;
  std::string at_client;
  bed.fabric.host(15).listen(5000, [&](transport::TcpConnection& conn) {
    conn.set_on_data([&](const transport::ChunkView& view) {
      at_server.append(view.bytes.begin(), view.bytes.end());
      if (at_server == "GET /secret") {
        conn.send(transport::Chunk::real(bytes_of("200 OK")));
      }
    });
  });
  TorClient client(bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
                   bed.fabric.rng());
  client.set_on_data([&](const transport::ChunkView& view) {
    at_client.append(view.bytes.begin(), view.bytes.end());
  });
  client.send(transport::Chunk::real(bytes_of("GET /secret")));
  bed.fabric.simulator().run_until();
  EXPECT_EQ(at_server, "GET /secret");
  EXPECT_EQ(at_client, "200 OK");
}

TEST(Tor, ClientAddressHiddenFromServer) {
  TorBed bed(3);
  net::Ipv4 peer_seen;
  bed.fabric.host(15).listen(5000, [&](transport::TcpConnection& conn) {
    peer_seen = conn.remote_ip();
  });
  TorClient client(bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
                   bed.fabric.rng());
  client.send(transport::Chunk::real(bytes_of("x")));
  bed.fabric.simulator().run_until();
  // The server's peer is the exit relay, never the client.
  EXPECT_EQ(peer_seen, bed.path.back().ip);
  EXPECT_NE(peer_seen, bed.fabric.ip(0));
}

TEST(Tor, BulkVirtualTransferCompletes) {
  TorBed bed(3);
  constexpr std::uint64_t kBytes = 512 * 1024;
  std::uint64_t received = 0;
  bed.fabric.host(15).listen(5000, [&](transport::TcpConnection& conn) {
    conn.set_on_data(
        [&](const transport::ChunkView& view) { received += view.length; });
  });
  TorClient client(bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
                   bed.fabric.rng());
  client.send(transport::Chunk::virtual_bytes(kBytes));
  bed.fabric.simulator().run_until();
  EXPECT_EQ(received, kBytes);
  for (const auto& relay : bed.relays) {
    EXPECT_GT(relay->cells_relayed(), 0u);
  }
}

TEST(Tor, BackwardBulkDataReachesClient) {
  TorBed bed(2);
  constexpr std::uint64_t kBytes = 128 * 1024;
  std::uint64_t at_client = 0;
  bed.fabric.host(15).listen(5000, [&](transport::TcpConnection& conn) {
    conn.set_on_ready([&conn] {});
    conn.set_on_data([&conn](const transport::ChunkView&) {
      conn.send(transport::Chunk::virtual_bytes(kBytes));
    });
  });
  TorClient client(bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
                   bed.fabric.rng());
  client.set_on_data(
      [&](const transport::ChunkView& view) { at_client += view.length; });
  client.send(transport::Chunk::real(bytes_of("pull")));
  bed.fabric.simulator().run_until();
  EXPECT_EQ(at_client, kBytes);
}

TEST(Tor, RelaysBurnCpuOnCells) {
  TorBed bed(3);
  bed.fabric.host(15).listen(5000, [&](transport::TcpConnection&) {});
  TorClient client(bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
                   bed.fabric.rng());
  client.send(transport::Chunk::virtual_bytes(256 * 1024));
  bed.fabric.simulator().run_until();
  // Every relay host paid crypto + cell handling.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(bed.fabric.host(8 + static_cast<std::size_t>(i))
                  .cpu()
                  .busy_time(),
              sim::microseconds(100));
  }
}

TEST(Tor, PingPongOverCircuit) {
  TorBed bed(3);
  std::unique_ptr<transport::PingPongServer> server;
  bed.fabric.host(15).listen(5000, [&](transport::TcpConnection& conn) {
    server = std::make_unique<transport::PingPongServer>(conn);
  });
  TorClient client(bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
                   bed.fabric.rng());
  transport::PingPongClient ping(client, bed.fabric.simulator(), 5);
  bed.fabric.simulator().run_until();
  ASSERT_EQ(ping.rtts().size(), 5u);
  EXPECT_GT(ping.mean_rtt_us(), 100.0);
}

TEST(Tor, ConcurrentCircuitsShareRelays) {
  // Several clients push through the same small relay set -- the overlay
  // bottleneck that drives Figure 9(b)'s Tor collapse.
  TorBed bed(2);
  constexpr std::uint64_t kBytes = 256 * 1024;
  std::uint64_t received[3] = {0, 0, 0};
  std::vector<std::unique_ptr<TorClient>> clients;
  for (int i = 0; i < 3; ++i) {
    const net::L4Port port = static_cast<net::L4Port>(5100 + i);
    bed.fabric.host(15).listen(port, [&received, i](
                                         transport::TcpConnection& conn) {
      conn.set_on_data([&received, i](const transport::ChunkView& view) {
        received[i] += view.length;
      });
    });
    clients.push_back(std::make_unique<TorClient>(
        bed.fabric.host(static_cast<std::size_t>(i)), bed.path,
        bed.fabric.ip(15), port, bed.fabric.rng()));
    clients.back()->send(transport::Chunk::virtual_bytes(kBytes));
  }
  bed.fabric.simulator().run_until();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(received[i], kBytes) << "client " << i;
  // Every relay carried all three circuits' cells.
  for (const auto& relay : bed.relays) {
    EXPECT_GT(relay->cells_relayed(), 3 * kBytes / kCellSize);
  }
}

TEST(Tor, SingleHopCircuitWorks) {
  TorBed bed(1);
  std::string at_server;
  bed.fabric.host(15).listen(5000, [&](transport::TcpConnection& conn) {
    conn.set_on_data([&](const transport::ChunkView& view) {
      at_server.append(view.bytes.begin(), view.bytes.end());
    });
  });
  TorClient client(bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
                   bed.fabric.rng());
  client.send(transport::Chunk::real(bytes_of("one-hop")));
  bed.fabric.simulator().run_until();
  EXPECT_EQ(at_server, "one-hop");
}

TEST(Tor, RelayClosesALinkThatWritesNoCellAndServesTheNext) {
  // Each probe writes to the relay of a one-relay bed what no Tor endpoint
  // writes.  The relay closes that link, and an honest circuit through it
  // still becomes ready afterwards.
  auto header = [](std::uint8_t cmd, std::uint16_t length) {
    std::vector<std::uint8_t> bytes =
        serialize_cell_header({7, CellCmd::kCreate, length});
    bytes[4] = cmd;
    return transport::Chunk::real(std::move(bytes));
  };
  const transport::Chunk garbage =
      transport::Chunk::real(std::vector<std::uint8_t>(kCellBodyBytes, 0xEE));
  const std::pair<const char*, std::vector<transport::Chunk>> probes[] = {
      {"4 KiB of virtual bytes", {transport::Chunk::virtual_bytes(4096)}},
      {"a cell with command 0x7f", {header(0x7f, 0), garbage}},
      {"CREATE, then a garbage RELAY cell on that one-hop circuit",
       {header(1, 0), garbage, header(3, 0), garbage}},
      {"a kRelayVirtual cell claiming 0xffff bytes",
       {header(4, 0xffff), transport::Chunk::virtual_bytes(kCellBodyBytes)}},
  };
  TorBed bed(1);
  bed.fabric.host(15).listen(5000, [](transport::TcpConnection&) {});
  std::vector<std::unique_ptr<TorClient>> clients;
  for (const auto& [what, chunks] : probes) {
    SCOPED_TRACE(what);
    transport::TcpConnection& probe =
        bed.fabric.host(1).connect(bed.path[0].ip, bed.path[0].port);
    probe.set_on_ready([&probe, &chunks] {
      for (const transport::Chunk& chunk : chunks) probe.send(chunk);
    });
    bed.fabric.simulator().run_until();
    // The relay's FIN arrived.
    EXPECT_EQ(probe.state(), transport::TcpConnection::State::kCloseWait);

    clients.push_back(std::make_unique<TorClient>(
        bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
        bed.fabric.rng()));
    bed.fabric.simulator().run_until();
    EXPECT_TRUE(clients.back()->ready());
  }
}

TEST(Tor, ClientClosesOnBytesNoRelayWrites) {
  // A "relay" answers the client's CREATE with virtual bytes: the client
  // closes its link and reports itself closed.
  Fabric fabric;
  fabric.host(8).listen(9001, [](transport::TcpConnection& conn) {
    conn.set_on_data([&conn](const transport::ChunkView&) {
      conn.send(transport::Chunk::virtual_bytes(4096));
    });
  });
  TorClient client(fabric.host(0), {{fabric.ip(8), 9001}}, fabric.ip(15),
                   5000, fabric.rng());
  int closed = 0;
  client.set_on_closed([&closed] { ++closed; });
  fabric.simulator().run_until();
  EXPECT_EQ(closed, 1);
  EXPECT_FALSE(client.ready());
}

TEST(Tor, SynToADestroyedRelayFindsNoListener) {
  // A relay that carried a circuit is destroyed; a later SYN to its port
  // reaches neither it nor its links.
  TorBed bed(1);
  std::uint64_t at_server = 0;
  bed.fabric.host(15).listen(5000, [&](transport::TcpConnection& conn) {
    conn.set_on_data(
        [&](const transport::ChunkView& view) { at_server += view.length; });
  });
  {
    TorClient client(bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
                     bed.fabric.rng());
    client.send(transport::Chunk::real(bytes_of("through the relay")));
    bed.fabric.simulator().run_until();
    ASSERT_TRUE(client.ready());
    client.close();
    bed.fabric.simulator().run_until();
  }
  EXPECT_EQ(at_server, 17u);

  bed.relays.clear();
  transport::Host& relay_host = bed.fabric.host(8);
  EXPECT_EQ(relay_host.listener_count(), 0u);
  transport::TcpConnection& probe =
      bed.fabric.host(1).connect(bed.path[0].ip, bed.path[0].port);
  bed.fabric.simulator().run_until();
  EXPECT_FALSE(probe.ready());
  // The client's link is gone; the exit stream the target never closed
  // waits for nothing and is gone too.
  EXPECT_EQ(relay_host.connection_count(), 0u);
}

TEST(Tor, RelayDestroyedWithACellQueuedSendsNothing) {
  // The relay of a one-relay circuit is destroyed while its CREATED cell
  // waits out the queueing delay: the cell goes with the relay.
  TorBed bed(1);
  bed.fabric.host(15).listen(5000, [](transport::TcpConnection&) {});
  TorClient client(bed.fabric.host(0), bed.path, bed.fabric.ip(15), 5000,
                   bed.fabric.rng());
  sim::Simulator& simulator = bed.fabric.simulator();
  const sim::CpuMeter& relay_cpu = bed.fabric.host(8).cpu();
  // The CREATE's Diffie-Hellman (two modexps) keeps the relay's CPU busy
  // for 4 ms; once it is charged, the CREATED cell is queued.
  while (relay_cpu.busy_time() < sim::milliseconds(4) && !simulator.idle()) {
    simulator.run_until(simulator.now() + sim::microseconds(10));
  }
  ASSERT_GE(relay_cpu.busy_time(), sim::milliseconds(4));
  bed.relays.clear();
  simulator.run_until();
  EXPECT_FALSE(client.ready());
}

TEST(TorCells, HeaderRoundTrip) {
  CellHeader header{0x12345678, CellCmd::kRelay, 444};
  const auto bytes = serialize_cell_header(header);
  const std::optional<CellHeader> parsed = parse_cell_header(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->circuit, header.circuit);
  EXPECT_EQ(parsed->cmd, header.cmd);
  EXPECT_EQ(parsed->length, header.length);
}

TEST(TorCells, RecognizedBodyRoundTrip) {
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  const auto body = make_recognized_body(RelaySubCmd::kData, data);
  EXPECT_EQ(body.size(), kCellBodyBytes);
  const RecognizedPayload payload = parse_recognized_body(body);
  EXPECT_TRUE(payload.recognized);
  EXPECT_EQ(payload.subcmd, RelaySubCmd::kData);
  EXPECT_EQ(payload.data, data);
}

TEST(TorCells, GarbageIsNotRecognized) {
  std::vector<std::uint8_t> body(kCellBodyBytes, 0xEE);
  EXPECT_FALSE(parse_recognized_body(body).recognized);
}

}  // namespace
}  // namespace mic::tor
