#include "net/trace.hpp"

#include <cinttypes>

#include "common/assert.hpp"

namespace mic::net {

namespace {

constexpr const char* kHeaderLine =
    "time_ns\tlink\tfrom\tto\tsrc\tdst\tsport\tdport\tmpls\tseq\tack\t"
    "flags\tbytes\tpayload\ttag";

/// What the taps see of one packet on one link.
struct TraceEntry {
  sim::SimTime time = 0;
  topo::LinkId link = 0;
  topo::NodeId from = 0;
  topo::NodeId to = 0;
  Ipv4 src;
  Ipv4 dst;
  L4Port sport = 0;
  L4Port dport = 0;
  MplsLabel mpls = kNoMpls;
  std::uint64_t tcp_seq = 0;
  std::uint64_t tcp_ack = 0;
  std::uint8_t tcp_flag_bits = 0;  // syn<<3 | ack<<2 | fin<<1 | rst
  std::uint32_t wire_bytes = 0;
  std::uint32_t payload_bytes = 0;
  std::uint64_t content_tag = 0;
};

std::uint8_t flag_bits_of(const Packet& packet) {
  return static_cast<std::uint8_t>(
      (static_cast<unsigned>(packet.tcp.flags.syn) << 3) |
      (static_cast<unsigned>(packet.tcp.flags.ack) << 2) |
      (static_cast<unsigned>(packet.tcp.flags.fin) << 1) |
      static_cast<unsigned>(packet.tcp.flags.rst));
}

TraceEntry make_trace_entry(topo::LinkId link, topo::NodeId from,
                            topo::NodeId to, const Packet& packet,
                            sim::SimTime time) {
  TraceEntry entry;
  entry.time = time;
  entry.link = link;
  entry.from = from;
  entry.to = to;
  entry.src = packet.src;
  entry.dst = packet.dst;
  entry.sport = packet.sport;
  entry.dport = packet.dport;
  entry.mpls = packet.mpls;
  entry.tcp_seq = packet.tcp.seq;
  entry.tcp_ack = packet.tcp.ack_seq;
  entry.tcp_flag_bits = flag_bits_of(packet);
  entry.wire_bytes = packet.wire_bytes();
  entry.payload_bytes = packet.payload_bytes();
  entry.content_tag = packet.content_tag;
  return entry;
}

/// Folds `entry` into a running FNV-1a state.
void fold_trace_entry(std::uint64_t& hash, const TraceEntry& entry) {
  auto fold = [&hash](std::uint64_t v) {
    // FNV-1a, one byte at a time so zero-heavy fields still diffuse.
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  fold(entry.time);
  fold(entry.link);
  fold((static_cast<std::uint64_t>(entry.from) << 32) | entry.to);
  fold((static_cast<std::uint64_t>(entry.src.value) << 32) | entry.dst.value);
  fold((static_cast<std::uint64_t>(entry.sport) << 48) |
       (static_cast<std::uint64_t>(entry.dport) << 32) | entry.mpls);
  fold(entry.tcp_seq);
  fold(entry.tcp_ack);
  fold(entry.tcp_flag_bits);
  fold((static_cast<std::uint64_t>(entry.wire_bytes) << 32) |
       entry.payload_bytes);
  fold(entry.content_tag);
}

}  // namespace

TraceWriter::TraceWriter(Network& network, const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
  MIC_ASSERT_MSG(file_ != nullptr, "cannot open trace file for writing");
  std::fprintf(file_, "%s\n", kHeaderLine);
  network.add_global_tap([this](topo::LinkId link, topo::NodeId from,
                                topo::NodeId to, const Packet& packet,
                                sim::SimTime time) {
    if (file_ == nullptr) return;
    const TraceEntry e = make_trace_entry(link, from, to, packet, time);
    std::fprintf(file_,
                 "%" PRIu64 "\t%u\t%u\t%u\t%s\t%s\t%u\t%u\t%u\t%" PRIu64
                 "\t%" PRIu64 "\t%u\t%u\t%u\t%" PRIx64 "\n",
                 e.time, e.link, e.from, e.to, e.src.str().c_str(),
                 e.dst.str().c_str(), e.sport, e.dport, e.mpls, e.tcp_seq,
                 e.tcp_ack, e.tcp_flag_bits, e.wire_bytes, e.payload_bytes,
                 e.content_tag);
    ++entries_;
  });
}

TraceWriter::~TraceWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

TraceHash::TraceHash(Network& network) : state_(std::make_shared<State>()) {
  network.add_global_tap([state = state_](topo::LinkId link, topo::NodeId from,
                                          topo::NodeId to,
                                          const Packet& packet,
                                          sim::SimTime time) {
    fold_trace_entry(state->hash,
                     make_trace_entry(link, from, to, packet, time));
    ++state->packets;
  });
}

}  // namespace mic::net
