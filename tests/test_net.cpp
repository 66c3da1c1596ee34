// Tests for the fabric layer: link timing, queue drops, taps.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/trace.hpp"

namespace mic::net {
namespace {

/// Captures delivered packets.
class SinkDevice : public Device {
 public:
  void receive(const Packet& packet, topo::PortId in_port) override {
    received.push_back({packet, in_port, network_->simulator().now()});
  }
  struct Delivery {
    Packet packet;
    topo::PortId in_port;
    sim::SimTime at;
  };
  std::vector<Delivery> received;
};

struct TwoNodeFixture {
  TwoNodeFixture(LinkConfig config = {}) : network(simulator, graph_init(), config) {
    auto a_dev = std::make_unique<SinkDevice>();
    auto b_dev = std::make_unique<SinkDevice>();
    a_sink = a_dev.get();
    b_sink = b_dev.get();
    network.set_device(a, std::move(a_dev));
    network.set_device(b, std::move(b_dev));
  }

  const topo::Graph& graph_init() {
    a = graph.add_node(topo::NodeKind::kHost);
    b = graph.add_node(topo::NodeKind::kHost);
    graph.add_link(a, b);
    return graph;
  }

  Packet make_packet(std::uint32_t payload) {
    Packet p;
    p.src = Ipv4(10, 0, 0, 1);
    p.dst = Ipv4(10, 0, 0, 2);
    p.tcp.payload_len = payload;
    p.packet_id = network.next_packet_id();
    return p;
  }

  sim::Simulator simulator;
  topo::Graph graph;
  topo::NodeId a{}, b{};
  net::Network network;
  SinkDevice* a_sink{};
  SinkDevice* b_sink{};
};

TEST(Network, DeliveryTimingSerializationPlusPropagation) {
  LinkConfig config;
  config.bandwidth_bps = 1'000'000'000;
  config.propagation_delay = sim::microseconds(5);
  TwoNodeFixture fix(config);

  Packet p = fix.make_packet(1446);  // wire = 54 + 1446 = 1500 bytes
  ASSERT_TRUE(fix.network.transmit(fix.a, 0, p));
  fix.simulator.run_until();
  ASSERT_EQ(fix.b_sink->received.size(), 1u);
  // 1500 B at 1 Gb/s = 12 us serialization + 5 us propagation.
  EXPECT_EQ(fix.b_sink->received[0].at, sim::microseconds(17));
}

TEST(Network, BackToBackPacketsQueueBehind) {
  TwoNodeFixture fix;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fix.network.transmit(fix.a, 0, fix.make_packet(1446)));
  }
  fix.simulator.run_until();
  ASSERT_EQ(fix.b_sink->received.size(), 3u);
  EXPECT_EQ(fix.b_sink->received[0].at, sim::microseconds(17));
  EXPECT_EQ(fix.b_sink->received[1].at, sim::microseconds(29));
  EXPECT_EQ(fix.b_sink->received[2].at, sim::microseconds(41));
}

TEST(Network, DropTailWhenQueueFull) {
  LinkConfig config;
  config.queue_capacity_bytes = 3000;  // fits exactly two 1500 B packets
  TwoNodeFixture fix(config);
  EXPECT_TRUE(fix.network.transmit(fix.a, 0, fix.make_packet(1446)));
  EXPECT_TRUE(fix.network.transmit(fix.a, 0, fix.make_packet(1446)));
  EXPECT_FALSE(fix.network.transmit(fix.a, 0, fix.make_packet(1446)));
  EXPECT_EQ(fix.network.total_drops(), 1u);
  fix.simulator.run_until();
  EXPECT_EQ(fix.b_sink->received.size(), 2u);
}

TEST(Network, QueueDrainsAndAcceptsAgain) {
  LinkConfig config;
  config.queue_capacity_bytes = 1600;
  TwoNodeFixture fix(config);
  EXPECT_TRUE(fix.network.transmit(fix.a, 0, fix.make_packet(1446)));
  EXPECT_FALSE(fix.network.transmit(fix.a, 0, fix.make_packet(1446)));
  fix.simulator.run_until();
  EXPECT_TRUE(fix.network.transmit(fix.a, 0, fix.make_packet(1446)));
  fix.simulator.run_until();
  EXPECT_EQ(fix.b_sink->received.size(), 2u);
}

TEST(Network, DirectionsAreIndependent) {
  TwoNodeFixture fix;
  ASSERT_TRUE(fix.network.transmit(fix.a, 0, fix.make_packet(100)));
  ASSERT_TRUE(fix.network.transmit(fix.b, 0, fix.make_packet(100)));
  fix.simulator.run_until();
  EXPECT_EQ(fix.a_sink->received.size(), 1u);
  EXPECT_EQ(fix.b_sink->received.size(), 1u);
}

TEST(Network, TapsObserveWireHeaders) {
  TwoNodeFixture fix;
  std::vector<Packet> seen;
  fix.network.add_link_tap(0, [&](topo::LinkId, topo::NodeId from,
                                  topo::NodeId, const Packet& packet,
                                  sim::SimTime) {
    EXPECT_EQ(from, fix.a);
    seen.push_back(packet);
  });
  Packet p = fix.make_packet(10);
  p.mpls = 0x1234;
  ASSERT_TRUE(fix.network.transmit(fix.a, 0, p));
  fix.simulator.run_until();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].mpls, 0x1234u);
  EXPECT_EQ(seen[0].src, Ipv4(10, 0, 0, 1));
}

TEST(Network, LinkStatsCount) {
  TwoNodeFixture fix;
  ASSERT_TRUE(fix.network.transmit(fix.a, 0, fix.make_packet(1446)));
  ASSERT_TRUE(fix.network.transmit(fix.a, 0, fix.make_packet(1446)));
  fix.simulator.run_until();
  const auto& stats = fix.network.stats(0, 0);
  EXPECT_EQ(stats.packets, 2u);
  EXPECT_EQ(stats.bytes, 3000u);
}

TEST(Network, MplsAddsWireBytes) {
  Packet p;
  p.tcp.payload_len = 100;
  EXPECT_EQ(p.wire_bytes(), 154u);
  p.mpls = 42;
  EXPECT_EQ(p.wire_bytes(), 158u);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The lines of a text file, without their newlines.
std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream in(read_file(path));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The tab-separated fields of one trace record.
std::vector<std::string> fields_of(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  for (std::string field; std::getline(in, field, '\t');) {
    fields.push_back(field);
  }
  return fields;
}

TEST(Trace, WriterRecordsEveryPacketOnItsOwnLine) {
  const std::string path = ::testing::TempDir() + "mic_trace_test.tsv";
  {
    TwoNodeFixture fix;
    net::TraceWriter writer(fix.network, path);
    Packet p = fix.make_packet(100);
    p.mpls = 0xabc;
    p.content_tag = 0x1234;
    ASSERT_TRUE(fix.network.transmit(fix.a, 0, p));
    ASSERT_TRUE(fix.network.transmit(fix.b, 0, fix.make_packet(50)));
    fix.simulator.run_until();
    EXPECT_EQ(writer.entries_written(), 2u);
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);  // the header, then one line per packet
  EXPECT_EQ(fields_of(lines[0]).front(), "time_ns");
  const std::vector<std::string> first = fields_of(lines[1]);
  ASSERT_EQ(first.size(), 15u);
  EXPECT_EQ(first[4], "10.0.0.1");  // src
  EXPECT_EQ(first[8], "2748");      // mpls 0xabc
  EXPECT_EQ(first[13], "100");      // payload bytes
  EXPECT_EQ(first[14], "1234");     // content tag, hex
  const std::vector<std::string> second = fields_of(lines[2]);
  ASSERT_EQ(second.size(), 15u);
  EXPECT_EQ(second[13], "50");
  std::remove(path.c_str());
}

TEST(Trace, DeterministicAcrossSeededRuns) {
  auto run = [](const std::string& path) {
    TwoNodeFixture fix;
    net::TraceWriter writer(fix.network, path);
    for (int i = 0; i < 5; ++i) {
      fix.network.transmit(fix.a, 0, fix.make_packet(100 + i));
    }
    fix.simulator.run_until();
  };
  const std::string path1 = ::testing::TempDir() + "mic_trace_a.tsv";
  const std::string path2 = ::testing::TempDir() + "mic_trace_b.tsv";
  run(path1);
  run(path2);
  EXPECT_EQ(read_lines(path1).size(), 6u);  // the header and 5 packets
  EXPECT_EQ(read_file(path1), read_file(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(Addr, Ipv4Formatting) {
  const Ipv4 ip(10, 1, 2, 3);
  EXPECT_EQ(ip.str(), "10.1.2.3");
  EXPECT_EQ(ip.octet(0), 10);
  EXPECT_EQ(ip.octet(3), 3);
  EXPECT_EQ(ip, Ipv4{0x0a010203});
}

}  // namespace
}  // namespace mic::net
