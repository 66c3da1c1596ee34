// Onion-routing relay for the Tor baseline.
//
// Relays run as ordinary applications on end hosts (this is the crux of the
// overlay architecture's cost: every hop traverses the fabric to a host,
// climbs its stack, pays per-cell crypto, and descends again).  A relay
// accepts cells over TCP, answers CREATE with a real Diffie-Hellman
// exchange, extends circuits on request, peels one onion layer from
// forward relay cells (adds one on backward cells), and -- when it is the
// exit -- proxies the byte stream to the target over plain TCP.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/rng.hpp"
#include "crypto/chacha20.hpp"
#include "tor/cells.hpp"
#include "transport/tcp.hpp"

namespace mic::tor {

struct RelayAddr {
  net::Ipv4 ip;
  net::L4Port port = 9001;
};

class TorRelay {
 public:
  TorRelay(transport::Host& host, net::L4Port port, Rng& rng);
  /// Stops listening on `port`, drops the cells still queued and releases
  /// every link and exit stream.
  ~TorRelay();
  TorRelay(const TorRelay&) = delete;
  TorRelay& operator=(const TorRelay&) = delete;

  net::Ipv4 ip() const { return host_.ip(); }
  std::uint64_t cells_relayed() const noexcept { return cells_relayed_; }

 private:
  /// One TCP link carrying cells (from a client or another relay).
  struct Link {
    transport::TcpConnection* conn = nullptr;
    CellParser parser;
  };

  /// Per-circuit state at this relay.
  struct Circuit {
    Link* client_side = nullptr;   // toward the client
    std::uint32_t client_circ = 0;
    Link* next_side = nullptr;     // toward the next relay (null = last hop)
    std::uint32_t next_circ = 0;
    std::array<std::uint8_t, 32> key{};  // shared with the client
    std::uint64_t fwd_nonce = 0;
    std::uint64_t bwd_nonce = 0;
    // Exit state.
    transport::TcpConnection* exit_conn = nullptr;
    bool exit_ready = false;
    std::deque<transport::Chunk> exit_pending;
  };

  /// A cell waiting out the relay's queueing delay.
  struct QueuedCell {
    Link* link = nullptr;
    CellHeader header;
    transport::Chunk body;
    sim::EventId departure = 0;
  };

  /// Reads cells off `conn`; closes it on anything that is not a cell or
  /// on a cell on_cell rejects.
  Link& add_link(transport::TcpConnection& conn);
  /// False for a cell no honest peer sends here.
  bool on_cell(Link& link, const CellHeader& header,
               std::vector<std::uint8_t> body);
  void handle_create(Link& link, const CellHeader& header,
                     std::vector<std::uint8_t> body);
  bool handle_forward_relay(Circuit& circuit, const CellHeader& header,
                            std::vector<std::uint8_t> body);
  void handle_backward_relay(Circuit& circuit, const CellHeader& header,
                             std::vector<std::uint8_t> body);
  bool handle_recognized(Circuit& circuit, RecognizedPayload payload);
  void begin_exit(Circuit& circuit, net::Ipv4 target, net::L4Port port);
  void send_backward_recognized(Circuit& circuit, RelaySubCmd subcmd,
                                std::vector<std::uint8_t> data);
  void send_cell(Link& link, const CellHeader& header,
                 transport::Chunk body);

  void crypt_layer(Circuit& circuit, std::uint64_t nonce,
                   std::vector<std::uint8_t>& body);

  static std::uint64_t circuit_key(const Link* link, std::uint32_t circ) {
    return (reinterpret_cast<std::uintptr_t>(link) << 16) ^ circ;
  }

  transport::Host& host_;
  net::L4Port port_;
  Rng& rng_;
  std::vector<std::unique_ptr<Link>> links_;
  // Both (client_side, client_circ) and (next_side, next_circ) map to the
  // circuit so cells from either direction find it.
  std::unordered_map<std::uint64_t, std::shared_ptr<Circuit>> circuits_;
  /// Cells in the order send_cell queued them, which is the order they
  /// leave in: the queueing delay is the same for every cell.
  std::deque<QueuedCell> queued_;
  std::uint32_t next_circ_id_ = 0x40000000;  // relay-allocated range
  std::uint64_t cells_relayed_ = 0;
};

}  // namespace mic::tor
