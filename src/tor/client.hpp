// Tor client: builds a circuit through a chosen relay path by telescoping
// (CREATE to the first hop, then EXTEND through the partially built circuit
// for each further hop -- each extension pays a full circuit round trip and
// a real Diffie-Hellman exchange), then opens a stream to the target and
// exposes it as a ByteStream.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "tor/cells.hpp"
#include "tor/relay.hpp"
#include "transport/tcp.hpp"

namespace mic::tor {

class TorClient : public transport::ByteStream {
 public:
  /// Starts building immediately; ready() once the end-to-end stream is
  /// connected.
  TorClient(transport::Host& host, std::vector<RelayAddr> path,
            net::Ipv4 target, net::L4Port target_port, Rng& rng);
  /// Releases the link to the first relay; it sends nothing, so close()
  /// first to end it.
  ~TorClient() override;
  TorClient(const TorClient&) = delete;
  TorClient& operator=(const TorClient&) = delete;

  void send(transport::Chunk chunk) override;
  void close() override;
  bool ready() const override { return ready_; }

  /// Circuit construction + stream begin time (the paper's Tor "connect").
  sim::SimTime setup_time() const noexcept { return ready_at_ - started_at_; }
  int built_hops() const noexcept { return static_cast<int>(hops_.size()); }

 private:
  struct Hop {
    crypto::Uint2048 dh_private;
    std::array<std::uint8_t, 32> key{};
    std::uint64_t fwd_nonce = 0;
    std::uint64_t bwd_nonce = 0;
    bool established = false;
  };

  /// False for a cell no honest relay sends; the client then closes its
  /// link and reports itself closed.
  bool on_cell(const CellHeader& header, std::vector<std::uint8_t> body);
  void on_created_or_extended(const std::vector<std::uint8_t>& pub_bytes);
  void extend_or_begin();
  void send_forward_recognized(std::size_t dest_hop, RelaySubCmd subcmd,
                               std::vector<std::uint8_t> data);
  void send_virtual_data(std::uint64_t length);
  void crypt_hop(std::size_t hop, bool backward, std::uint64_t nonce,
                 std::vector<std::uint8_t>& body);

  transport::Host& host_;
  std::vector<RelayAddr> path_;
  net::Ipv4 target_;
  net::L4Port target_port_;
  Rng& rng_;

  transport::TcpConnection* conn_ = nullptr;
  CellParser parser_;
  std::uint32_t circ_id_ = 1;
  std::vector<Hop> hops_;
  std::deque<transport::Chunk> pending_;
  bool ready_ = false;
  sim::SimTime started_at_ = 0;
  sim::SimTime ready_at_ = 0;
};

}  // namespace mic::tor
