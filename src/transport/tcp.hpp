// TCP for the simulated hosts: 3-way handshake, sliding window, Reno
// congestion control (slow start, congestion avoidance, fast retransmit /
// fast recovery), RFC 6298 retransmission timers.
//
// Simplifications relative to a kernel stack, all documented in DESIGN.md:
// sequence numbers are 64-bit stream offsets (no wraparound), no SACK, no
// delayed ACKs, no Nagle, receive window fixed.  None of these affect the
// comparisons in the paper's figures, which hinge on path length, crypto
// cost and congestion response.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>

#include "crypto/cost_model.hpp"
#include "net/network.hpp"
#include "transport/stream.hpp"

namespace mic::transport {

class Host;

class TcpConnection : public ByteStream {
 public:
  static constexpr std::uint32_t kMss = net::kTcpMss;

  enum class State : std::uint8_t {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,   // we sent FIN, waiting for ack/FIN
    kCloseWait  // peer sent FIN; close() finishes
  };

  ~TcpConnection() override;

  // ByteStream API -----------------------------------------------------------
  void send(Chunk chunk) override;
  void close() override;
  bool ready() const override { return state_ == State::kEstablished; }

  State state() const noexcept { return state_; }
  net::Ipv4 local_ip() const noexcept { return local_ip_; }
  net::Ipv4 remote_ip() const noexcept { return remote_ip_; }
  net::L4Port local_port() const noexcept { return local_port_; }
  net::L4Port remote_port() const noexcept { return remote_port_; }

  /// Bytes acknowledged by the peer so far (delivered end to end).
  std::uint64_t bytes_acked() const noexcept { return snd_una_; }
  std::uint64_t bytes_received() const noexcept { return rcv_nxt_; }
  std::uint32_t retransmissions() const noexcept { return retransmits_; }
  double cwnd_bytes() const noexcept { return cwnd_; }

  // Diagnostics.
  std::uint64_t debug_snd_nxt() const noexcept { return snd_nxt_; }
  std::uint64_t debug_buffer_end() const noexcept {
    return send_buffer_.end_offset();
  }
  sim::SimTime debug_rto() const noexcept { return rto_; }
  std::uint64_t debug_rcv_nxt() const noexcept { return rcv_nxt_; }
  std::size_t debug_ooo_size() const noexcept { return out_of_order_.size(); }

  /// When an MPLS label is set, outgoing segments carry it (used by tests
  /// that inject tagged traffic; normal hosts send untagged and the edge
  /// switch tags).
  void set_egress_mpls(net::MplsLabel label) noexcept { egress_mpls_ = label; }

 private:
  friend class Host;

  TcpConnection(Host& host, net::Ipv4 local_ip, net::L4Port local_port,
                net::Ipv4 remote_ip, net::L4Port remote_port);

  void start_active_open();
  void start_passive_open(const net::Packet& syn);
  void on_segment(const net::Packet& packet);

  void pump();                       // send as much as the window allows
  void emit_segment(std::uint64_t seq, std::uint32_t len, bool retransmit);
  void send_control(net::TcpFlags flags);
  void send_ack();

  void on_ack(const net::Packet& packet);
  void on_data(const net::Packet& packet);
  void enter_recovery();
  void on_rto();
  void arm_rto();
  void disarm_rto();
  void measure_rtt(sim::SimTime sent_at);

  double flight_size() const noexcept {
    return static_cast<double>(snd_nxt_ - snd_una_);
  }

  Host& host_;
  net::Ipv4 local_ip_;
  net::Ipv4 remote_ip_;
  net::L4Port local_port_;
  net::L4Port remote_port_;
  net::MplsLabel egress_mpls_ = net::kNoMpls;

  State state_ = State::kClosed;

  // Send side.
  SendBuffer send_buffer_;
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t snd_max_ = 0;  // high-water mark; below it = retransmission
  double cwnd_ = 10.0 * kMss;  // RFC 6928 initial window
  // Initial ssthresh well above the fabric BDP (~12.5 KB) but low enough
  // that slow start cannot overshoot a 150 KB drop-tail queue by a full
  // window: without SACK, recovering a burst of dozens of losses costs one
  // RTT per hole.  Real stacks avoid this via SACK; we avoid provoking it.
  double ssthresh_ = 64.0 * 1024;
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;
  std::uint32_t retransmits_ = 0;
  bool fin_sent_ = false;
  std::uint64_t stream_uid_ = 0;  // seeds virtual-payload content tags

  // Give up after this many consecutive RTOs without forward progress (a
  // real stack aborts too; unbounded retry against a blackhole would also
  // keep the event-driven simulation alive forever).
  static constexpr int kMaxConsecutiveRtos = 15;
  int consecutive_rtos_ = 0;

  // RTT estimation (RFC 6298).
  double srtt_ = 0;
  double rttvar_ = 0;
  sim::SimTime rto_ = sim::milliseconds(200);  // floor for a data center
  sim::EventId rto_timer_ = 0;
  bool rto_armed_ = false;
  std::uint64_t rtt_seq_ = 0;          // segment being timed
  sim::SimTime rtt_sent_at_ = 0;
  bool rtt_timing_ = false;

  // Receive side.
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, Chunk> out_of_order_;
  bool fin_received_ = false;
  std::uint64_t fin_offset_ = 0;

  static constexpr double kMaxCwnd = 8.0 * 1024 * 1024;
  static constexpr std::uint64_t kReceiveWindow = 4ull * 1024 * 1024;
};

/// End-host device: owns the TCP sockets bound to its single NIC.
class Host : public net::Device {
 public:
  using AcceptHandler = std::function<void(TcpConnection&)>;

  Host(net::Ipv4 ip,
       const crypto::CostModel& costs = crypto::default_cost_model())
      : ip_(ip), costs_(costs) {}

  net::Ipv4 ip() const noexcept { return ip_; }
  const crypto::CostModel& costs() const noexcept { return costs_; }

  /// Open a connection; the returned stream is owned by the host and stays
  /// valid until closed.  `remote` may be a real peer or a MIC entry
  /// address.
  TcpConnection& connect(net::Ipv4 remote, net::L4Port remote_port);

  /// Open a connection from a pre-reserved local port (the MIC client
  /// registers its source ports with the MC before connecting, so the MC
  /// can install exact reverse-path rewrites).
  TcpConnection& connect_from(net::L4Port local_port, net::Ipv4 remote,
                              net::L4Port remote_port);

  /// Reserve a local port for a later connect_from().
  net::L4Port reserve_port() { return allocate_ephemeral_port(); }

  /// Accept connections on `port`.
  void listen(net::L4Port port, AcceptHandler handler);

  void receive(const net::Packet& packet, topo::PortId in_port) override;

  net::Network& network() { return *network_; }

  /// Transmit out of the host's single NIC (port 0).
  void transmit(net::Packet packet) { network_->transmit(node_, 0, packet); }

  /// Charge the segment-processing CPU cost and put `packet` on the wire
  /// when the CPU is done with it.  The packet waits in the host's egress
  /// FIFO instead of inside the scheduler event: CpuMeter completion times
  /// are non-decreasing and same-time events fire in insertion order, so
  /// the FIFO front is always the packet whose event is firing, and the
  /// event itself captures nothing but `this`.
  void stage_transmit(net::Packet packet);

  std::uint64_t fresh_stream_uid() noexcept { return ++stream_uid_; }

  /// Charge the host CPU; returns completion time.
  sim::SimTime charge(double cycles) {
    return cpu_.charge(simulator().now(), cycles);
  }

 private:
  friend class TcpConnection;

  struct ConnKey {
    std::uint32_t remote_ip;
    std::uint32_t ports;  // local << 16 | remote
    bool operator==(const ConnKey&) const = default;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.remote_ip) << 32) | k.ports);
    }
  };

  static ConnKey key_of(net::Ipv4 remote, net::L4Port local_port,
                        net::L4Port remote_port) {
    return ConnKey{remote.value,
                   (static_cast<std::uint32_t>(local_port) << 16) |
                       remote_port};
  }

  net::L4Port allocate_ephemeral_port();

  /// Demultiplex a fully CPU-processed segment to its connection (or a
  /// listener, for a fresh SYN).
  void process_segment(const net::Packet& packet);

  net::Ipv4 ip_;
  const crypto::CostModel& costs_;
  std::unordered_map<ConnKey, std::unique_ptr<TcpConnection>, ConnKeyHash>
      connections_;
  std::unordered_map<net::L4Port, AcceptHandler> listeners_;
  net::L4Port next_ephemeral_ = 40000;
  std::uint64_t stream_uid_ = 0;
  // Packets waiting for their CPU charge to complete, in completion order
  // (see stage_transmit / receive).  Keeping them here instead of in the
  // event closures keeps every scheduler node capture-small.
  std::deque<net::Packet> egress_fifo_;
  std::deque<net::Packet> ingress_fifo_;
};

}  // namespace mic::transport
