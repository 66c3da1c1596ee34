#include "transport/tcp.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace mic::transport {

namespace {

constexpr sim::SimTime kMinRto = sim::milliseconds(10);
constexpr sim::SimTime kMaxRto = sim::seconds(10);

/// FNV-1a fingerprint of real payload bytes.
std::uint64_t tag_of_bytes(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Stable fingerprint for virtual payload: a function of the stream
/// identity and position, so a retransmitted segment carries the same tag
/// as the original (the bytes would be identical on a real wire).
std::uint64_t tag_of_virtual(std::uint64_t stream_uid, std::uint64_t seq,
                             std::uint32_t len) {
  std::uint64_t state = stream_uid ^ (seq * 0x9e3779b97f4a7c15ULL) ^ len;
  return splitmix64(state);
}

}  // namespace

// --- Host -------------------------------------------------------------------

TcpConnection& Host::connect(net::Ipv4 remote, net::L4Port remote_port) {
  return connect_from(allocate_ephemeral_port(), remote, remote_port);
}

TcpConnection& Host::connect_from(net::L4Port local_port, net::Ipv4 remote,
                                  net::L4Port remote_port) {
  const auto [it, fresh] =
      connections_.try_emplace(key_of(remote, local_port, remote_port));
  // Its owner still points at a live connection on this key.
  MIC_ASSERT_MSG(fresh, "connect_from over a live connection");
  it->second.reset(
      new TcpConnection(*this, ip_, local_port, remote, remote_port));
  ++local_ports_[local_port];
  TcpConnection& ref = *it->second;
  charge(costs_.tcp_connect_cycles);
  ref.start_active_open();
  return ref;
}

void Host::listen(net::L4Port port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

void Host::unlisten(net::L4Port port) { listeners_.erase(port); }

void Host::release(TcpConnection& conn) {
  MIC_ASSERT_MSG(!conn.silenced(), "connection released twice");
  conn.silence();
  released_.push_back(&conn);
}

void Host::reap_released() {
  for (std::size_t i = 0; i < released_.size();) {
    TcpConnection* conn = released_[i];
    if (!conn->reapable()) {
      ++i;
      continue;
    }
    released_[i] = released_.back();
    released_.pop_back();
    const auto held = local_ports_.find(conn->local_port_);
    if (--held->second == 0) local_ports_.erase(held);
    connections_.erase(
        key_of(conn->remote_ip_, conn->local_port_, conn->remote_port_));
  }
}

net::L4Port Host::allocate_ephemeral_port() {
  constexpr net::L4Port kFirst = 40000;
  constexpr net::L4Port kEnd = 65000;
  // After the range wraps, skip the ports live connections still hold.
  for (int tried = 0;; ++tried) {
    MIC_ASSERT_MSG(tried < kEnd - kFirst,
                   "every ephemeral port is held by a live connection");
    if (next_ephemeral_ >= kEnd) next_ephemeral_ = kFirst;
    const net::L4Port port = next_ephemeral_++;
    if (!local_ports_.contains(port)) return port;
  }
}

void Host::receive(const net::Packet& packet, topo::PortId /*in_port*/) {
  if (packet.dst != ip_) {
    // A decoy from the partially-multicast mechanism that escaped its drop
    // rule, or a misrouted packet.  A real NIC discards it.
    MIC_LOG_DEBUG("host %s: dropping packet addressed to %s",
                  ip_.str().c_str(), packet.dst.str().c_str());
    return;
  }

  // Segment-processing cost, then demultiplex.  The packet rides the
  // ingress FIFO: CPU completion times are non-decreasing and same-time
  // events fire in insertion order, so the front of the FIFO is always
  // the packet whose event fires.
  const sim::SimTime done =
      cpu_.charge(simulator().now(), costs_.tcp_segment_cycles);
  ingress_fifo_.push_back(packet);
  simulator().schedule_at(done, [this] {
    const net::Packet pkt = std::move(ingress_fifo_.front());
    ingress_fifo_.pop_front();
    // No connection's code is on the stack around process_segment(): reap
    // before it, so a SYN for a released key finds the listener, and after
    // it, so a connection its own handler released is gone when the event
    // ends.
    if (!released_.empty()) reap_released();
    process_segment(pkt);
    if (!released_.empty()) reap_released();
  });
}

void Host::process_segment(const net::Packet& pkt) {
  const ConnKey key = key_of(pkt.src, pkt.dport, pkt.sport);
  const auto it = connections_.find(key);
  if (it != connections_.end()) {
    it->second->on_segment(pkt);
    return;
  }
  if (pkt.tcp.flags.syn && !pkt.tcp.flags.ack) {
    const auto listener = listeners_.find(pkt.dport);
    if (listener != listeners_.end()) {
      auto conn = std::unique_ptr<TcpConnection>(
          new TcpConnection(*this, ip_, pkt.dport, pkt.src, pkt.sport));
      TcpConnection& ref = *conn;
      connections_.emplace(key, std::move(conn));
      ++local_ports_[pkt.dport];
      // Let the application attach stream callbacks before the handshake
      // completes.
      listener->second(ref);
      ref.start_passive_open(pkt);
      return;
    }
  }
  MIC_LOG_DEBUG("host %s: no socket for %s:%u -> :%u", ip_.str().c_str(),
                pkt.src.str().c_str(), pkt.sport, pkt.dport);
}

void Host::stage_transmit(net::Packet packet) {
  const sim::SimTime done = charge(costs_.tcp_segment_cycles);
  egress_fifo_.push_back(std::move(packet));
  simulator().schedule_at(done, [this] {
    net::Packet pkt = std::move(egress_fifo_.front());
    egress_fifo_.pop_front();
    transmit(std::move(pkt));
  });
}

// --- TcpConnection ----------------------------------------------------------

TcpConnection::TcpConnection(Host& host, net::Ipv4 local_ip,
                             net::L4Port local_port, net::Ipv4 remote_ip,
                             net::L4Port remote_port)
    : host_(host),
      local_ip_(local_ip),
      remote_ip_(remote_ip),
      local_port_(local_port),
      remote_port_(remote_port),
      stream_uid_(host.fresh_stream_uid()) {}

TcpConnection::~TcpConnection() { disarm_rto(); }

void TcpConnection::start_active_open() {
  state_ = State::kSynSent;
  send_control({.syn = true, .ack = false, .fin = false, .rst = false});
  arm_rto();
}

void TcpConnection::start_passive_open(const net::Packet& /*syn*/) {
  state_ = State::kSynReceived;
  send_control({.syn = true, .ack = true, .fin = false, .rst = false});
  arm_rto();
}

void TcpConnection::send(Chunk chunk) {
  send_buffer_.append(std::move(chunk));
  pump();
}

void TcpConnection::close() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait) return;
  fin_requested_ = true;
  pump();
}

void TcpConnection::send_control(net::TcpFlags flags) {
  net::Packet packet;
  packet.src = local_ip_;
  packet.dst = remote_ip_;
  packet.sport = local_port_;
  packet.dport = remote_port_;
  packet.tcp.seq = snd_nxt_;
  packet.tcp.ack_seq = rcv_nxt_;
  packet.tcp.flags = flags;
  packet.tcp.payload_len = 0;
  packet.packet_id = host_.network().next_packet_id();

  host_.stage_transmit(std::move(packet));
}

void TcpConnection::send_ack() {
  send_control({.syn = false, .ack = true, .fin = false, .rst = false});
}

void TcpConnection::emit_segment(std::uint64_t seq, std::uint32_t len,
                                 bool retransmit) {
  Chunk chunk = send_buffer_.range(seq, len);

  net::Packet packet;
  packet.src = local_ip_;
  packet.dst = remote_ip_;
  packet.sport = local_port_;
  packet.dport = remote_port_;
  packet.tcp.seq = seq;
  packet.tcp.ack_seq = rcv_nxt_;
  packet.tcp.flags = {.syn = false, .ack = true, .fin = false, .rst = false};
  packet.tcp.payload_len = len;
  if (chunk.is_real()) {
    packet.payload = chunk.data;
    packet.content_tag = tag_of_bytes(*chunk.data);
  } else {
    packet.content_tag = tag_of_virtual(stream_uid_, seq, len);
  }
  packet.packet_id = host_.network().next_packet_id();

  if (retransmit) ++retransmits_;
  if (!retransmit && !rtt_timing_) {
    rtt_timing_ = true;
    rtt_seq_ = seq;
    rtt_sent_at_ = host_.simulator().now();
  }

  host_.stage_transmit(std::move(packet));
}

void TcpConnection::pump() {
  // In kFinWait only go-back-N after an RTO finds anything left to send.
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kFinWait) {
    return;
  }
  const double window =
      std::min(cwnd_, static_cast<double>(kReceiveWindow));
  bool sent = false;
  while (snd_nxt_ < send_buffer_.end_offset()) {
    const std::uint64_t avail = send_buffer_.end_offset() - snd_nxt_;
    const std::uint32_t len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(kMss, avail));
    if (flight_size() > 0 && flight_size() + len > window) break;
    // Below the high-water mark we are resending after an RTO (go-back-N);
    // Karn's algorithm forbids timing those segments.
    const bool retransmit = snd_nxt_ < snd_max_;
    emit_segment(snd_nxt_, len, retransmit);
    snd_nxt_ += len;
    if (snd_nxt_ > snd_max_) snd_max_ = snd_nxt_;
    if (!rto_armed_) arm_rto();
    sent = true;
  }
  if (!fin_requested_ || snd_nxt_ != send_buffer_.end_offset()) return;
  // The buffer is out: close()'s FIN follows it, always at the stream's
  // end.  In kFinWait it went out already, and a resend repeats it once,
  // after its last byte.
  if (state_ == State::kFinWait && !sent) return;
  send_control({.syn = false, .ack = true, .fin = true, .rst = false});
  if (state_ == State::kEstablished) {
    state_ = State::kFinWait;
  } else if (state_ == State::kCloseWait) {
    state_ = State::kClosed;
    notify_closed();
  }
}

void TcpConnection::on_segment(const net::Packet& packet) {
  const auto& flags = packet.tcp.flags;

  switch (state_) {
    case State::kSynSent:
      if (flags.syn && flags.ack) {
        state_ = State::kEstablished;
        disarm_rto();
        send_ack();
        notify_ready();
        pump();
      }
      return;
    case State::kSynReceived:
      if (flags.ack && !flags.syn) {
        state_ = State::kEstablished;
        disarm_rto();
        notify_ready();
        pump();  // flush data the application queued before establishment
        // Fall through to normal processing: the ACK may carry data.
        break;
      }
      return;
    case State::kClosed:
      return;
    default:
      break;
  }

  if (flags.syn) return;  // stray handshake duplicate

  if (packet.tcp.payload_len > 0) {
    on_data(packet);
  }
  if (flags.ack) {
    on_ack(packet);
  }
  if (flags.fin) {
    const std::uint64_t fin_at = packet.tcp.seq + packet.tcp.payload_len;
    fin_received_ = true;
    fin_offset_ = fin_at;
    if (rcv_nxt_ >= fin_offset_) {
      send_ack();
      if (state_ == State::kFinWait) {
        state_ = State::kClosed;
        notify_closed();
      } else if (state_ == State::kEstablished) {
        state_ = State::kCloseWait;
        notify_closed();
      }
    }
  }
}

void TcpConnection::on_data(const net::Packet& packet) {
  std::uint64_t seq = packet.tcp.seq;
  std::uint32_t len = packet.tcp.payload_len;
  Chunk chunk;
  if (packet.payload != nullptr) {
    chunk.data = packet.payload;
    chunk.length = len;
  } else {
    chunk = Chunk::virtual_bytes(len);
  }

  if (seq + len <= rcv_nxt_) {
    send_ack();  // pure duplicate
    return;
  }
  if (seq < rcv_nxt_) {
    // Trim the already-received prefix.
    const std::uint64_t trim = rcv_nxt_ - seq;
    if (chunk.is_real()) {
      auto bytes = std::vector<std::uint8_t>(
          chunk.data->begin() + static_cast<long>(trim), chunk.data->end());
      chunk = Chunk::real(std::move(bytes));
    } else {
      chunk.length -= trim;
    }
    seq = rcv_nxt_;
    len = static_cast<std::uint32_t>(chunk.length);
  }

  if (seq > rcv_nxt_) {
    out_of_order_.emplace(seq, std::move(chunk));
    send_ack();  // duplicate ACK signals the hole
    return;
  }

  // In-order: deliver, then drain whatever contiguity the OOO buffer adds.
  rcv_nxt_ += len;
  if (chunk.is_real()) {
    notify_data(ChunkView{chunk.length, *chunk.data});
  } else {
    notify_data(ChunkView{chunk.length, {}});
  }
  while (!out_of_order_.empty()) {
    auto it = out_of_order_.begin();
    if (it->first > rcv_nxt_) break;
    std::uint64_t ooo_seq = it->first;
    Chunk ooo = std::move(it->second);
    out_of_order_.erase(it);
    if (ooo_seq + ooo.length <= rcv_nxt_) continue;  // fully duplicate
    const std::uint64_t trim = rcv_nxt_ - ooo_seq;
    if (trim > 0) {
      if (ooo.is_real()) {
        auto bytes = std::vector<std::uint8_t>(
            ooo.data->begin() + static_cast<long>(trim), ooo.data->end());
        ooo = Chunk::real(std::move(bytes));
      } else {
        ooo.length -= trim;
      }
    }
    rcv_nxt_ += ooo.length;
    if (ooo.is_real()) {
      notify_data(ChunkView{ooo.length, *ooo.data});
    } else {
      notify_data(ChunkView{ooo.length, {}});
    }
  }
  send_ack();

  if (fin_received_ && rcv_nxt_ >= fin_offset_ &&
      state_ == State::kEstablished) {
    state_ = State::kCloseWait;
    notify_closed();
  }
}

void TcpConnection::on_ack(const net::Packet& packet) {
  const std::uint64_t ack = packet.tcp.ack_seq;

  if (ack > snd_una_) {
    const std::uint64_t newly_acked = ack - snd_una_;
    snd_una_ = ack;
    consecutive_rtos_ = 0;  // forward progress: the path is alive
    // During go-back-N resend the cumulative ACK can jump past the resend
    // pointer (the receiver had the data buffered out of order).
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    send_buffer_.release_until(ack);
    dupacks_ = 0;

    if (rtt_timing_ && ack > rtt_seq_) {
      measure_rtt(rtt_sent_at_);
      rtt_timing_ = false;
    } else if (srtt_ > 0) {
      // Forward progress collapses any RTO backoff (the retransmission
      // worked; the path is alive).
      const double rto = srtt_ + std::max(1000.0, 4 * rttvar_);
      rto_ = std::clamp(static_cast<sim::SimTime>(rto), kMinRto, kMaxRto);
    }

    if (in_recovery_) {
      if (ack >= recover_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // NewReno partial ack: retransmit the next hole immediately.
        const std::uint32_t len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kMss, snd_nxt_ - snd_una_));
        if (len > 0) emit_segment(snd_una_, len, /*retransmit=*/true);
        arm_rto();
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(
          std::min<std::uint64_t>(newly_acked, kMss));  // slow start
    } else {
      cwnd_ += static_cast<double>(kMss) * kMss / cwnd_;  // AIMD increase
    }
    cwnd_ = std::min(cwnd_, kMaxCwnd);

    if (snd_una_ == snd_nxt_) {
      disarm_rto();
    } else {
      arm_rto();  // restart for the next outstanding segment
    }
    pump();
  } else if (ack == snd_una_ && snd_nxt_ > snd_una_ &&
             packet.tcp.payload_len == 0) {
    ++dupacks_;
    if (!in_recovery_ && dupacks_ == 3) {
      enter_recovery();
    } else if (in_recovery_) {
      cwnd_ += kMss;  // inflate during recovery
      pump();
    }
  }
}

void TcpConnection::enter_recovery() {
  in_recovery_ = true;
  recover_ = snd_nxt_;
  ssthresh_ = std::max(flight_size() / 2.0, 2.0 * kMss);
  cwnd_ = ssthresh_ + 3.0 * kMss;
  const std::uint32_t len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(kMss, snd_nxt_ - snd_una_));
  emit_segment(snd_una_, len, /*retransmit=*/true);
  arm_rto();
}

void TcpConnection::arm_rto() {
  disarm_rto();
  rto_armed_ = true;
  rto_timer_ = host_.simulator().schedule_in(rto_, [this] {
    rto_armed_ = false;
    on_rto();
  });
}

void TcpConnection::disarm_rto() {
  if (rto_armed_) {
    host_.simulator().cancel(rto_timer_);
    rto_armed_ = false;
  }
}

void TcpConnection::on_rto() {
  if (++consecutive_rtos_ > kMaxConsecutiveRtos) {
    // The peer (or the path) is gone: abort, as a real stack would.
    MIC_LOG_WARN("tcp %s:%u -> %s:%u aborted after %d consecutive RTOs",
                 local_ip_.str().c_str(), local_port_,
                 remote_ip_.str().c_str(), remote_port_, kMaxConsecutiveRtos);
    state_ = State::kClosed;
    notify_closed();
    return;
  }
  switch (state_) {
    case State::kSynSent:
      send_control({.syn = true, .ack = false, .fin = false, .rst = false});
      break;
    case State::kSynReceived:
      send_control({.syn = true, .ack = true, .fin = false, .rst = false});
      break;
    case State::kEstablished:
    case State::kCloseWait:
    case State::kFinWait: {
      // Nothing outstanding.  A FIN takes no sequence number, so a lost
      // one is never re-sent from here.
      if (snd_una_ >= snd_nxt_) return;
      ssthresh_ = std::max(flight_size() / 2.0, 2.0 * kMss);
      cwnd_ = 1.0 * kMss;
      in_recovery_ = false;
      dupacks_ = 0;
      rtt_timing_ = false;  // Karn's algorithm
      // Go-back-N: resume from snd_una in slow start.  The receiver's
      // out-of-order buffer collapses redundant resends into fast
      // cumulative-ACK jumps, so a burst of holes heals in a few RTTs
      // instead of one RTO per hole.
      snd_nxt_ = snd_una_;
      pump();
      break;
    }
    case State::kClosed:
      return;
  }
  rto_ = std::min(rto_ * 2, kMaxRto);
  arm_rto();
}

void TcpConnection::measure_rtt(sim::SimTime sent_at) {
  const double sample =
      static_cast<double>(host_.simulator().now() - sent_at);
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample);
    srtt_ = 0.875 * srtt_ + 0.125 * sample;
  }
  const double rto = srtt_ + std::max(1000.0, 4 * rttvar_);
  rto_ = std::clamp(static_cast<sim::SimTime>(rto), kMinRto, kMaxRto);
}

}  // namespace mic::transport
