#include "tor/relay.hpp"

#include "common/log.hpp"
#include "crypto/dh.hpp"

namespace mic::tor {

TorRelay::TorRelay(transport::Host& host, net::L4Port port, Rng& rng)
    : host_(host), port_(port), rng_(rng) {
  host_.listen(port_, [this](transport::TcpConnection& conn) {
    add_link(conn);
  });
}

TorRelay::~TorRelay() {
  host_.unlisten(port_);
  for (const auto& cell : queued_) host_.simulator().cancel(cell.departure);
  for (const auto& link : links_) host_.release(*link->conn);
  for (auto& [key, circuit] : circuits_) {
    if (circuit->exit_conn == nullptr) continue;
    host_.release(*circuit->exit_conn);
    circuit->exit_conn = nullptr;  // an extended circuit sits under two keys
  }
}

TorRelay::Link& TorRelay::add_link(transport::TcpConnection& conn) {
  auto link = std::make_unique<Link>();
  link->conn = &conn;
  Link* raw = link.get();
  conn.set_on_data([this, raw](const transport::ChunkView& view) {
    if (raw->parser.failed()) return;
    raw->parser.feed(view, [this, raw](const CellHeader& header,
                                       std::vector<std::uint8_t> body) {
      return on_cell(*raw, header, std::move(body));
    });
    // A peer that writes what no Tor endpoint writes loses its link.
    if (raw->parser.failed()) raw->conn->close();
  });
  links_.push_back(std::move(link));
  return *raw;
}

void TorRelay::send_cell(Link& link, const CellHeader& header,
                         transport::Chunk body) {
  // Cells sit in the relay's circuit queues before hitting the wire; the
  // delay is pipelined (does not occupy the CPU), so it costs latency but
  // not throughput -- matching the real daemon's behaviour.
  const auto delay = sim::SimTime(
      host_.costs().tor_cell_sched_delay_us * 1000.0);
  const sim::EventId departure = host_.simulator().schedule_in(delay, [this] {
    QueuedCell cell = std::move(queued_.front());
    queued_.pop_front();
    cell.link->conn->send(
        transport::Chunk::real(serialize_cell_header(cell.header)));
    cell.link->conn->send(std::move(cell.body));
  });
  queued_.push_back({&link, header, std::move(body), departure});
}

void TorRelay::crypt_layer(Circuit& circuit, std::uint64_t nonce,
                           std::vector<std::uint8_t>& body) {
  crypto::ChaCha20::Key key;
  std::copy(circuit.key.begin(), circuit.key.end(), key.begin());
  const bool backward = (nonce >> 63) != 0;
  crypto::ChaCha20::crypt(key, nonce_for(nonce & ~(1ULL << 63), backward),
                          body);
}

bool TorRelay::on_cell(Link& link, const CellHeader& header,
                       std::vector<std::uint8_t> body) {
  const auto it = circuits_.find(circuit_key(&link, header.circuit));
  if (it == circuits_.end()) {
    if (header.cmd == CellCmd::kCreate) {
      handle_create(link, header, std::move(body));
    } else {
      MIC_LOG_WARN("tor relay %s: cell for unknown circuit %u",
                   host_.ip().str().c_str(), header.circuit);
    }
    return true;
  }
  Circuit& circuit = *it->second;

  if (&link == circuit.client_side && header.circuit == circuit.client_circ) {
    if (header.cmd == CellCmd::kRelay ||
        header.cmd == CellCmd::kRelayVirtual) {
      return handle_forward_relay(circuit, header, std::move(body));
    }
    return true;
  }

  // From the next-relay side: CREATED (extension completing) or backward
  // relay traffic.
  if (header.cmd == CellCmd::kCreated) {
    host_.charge(host_.costs().tor_cell_fixed_cycles);
    std::vector<std::uint8_t> pub(body.begin(),
                                  body.begin() + crypto::Uint2048::kBytes);
    send_backward_recognized(circuit, RelaySubCmd::kExtended, std::move(pub));
    return true;
  }
  handle_backward_relay(circuit, header, std::move(body));
  return true;
}

void TorRelay::handle_create(Link& link, const CellHeader& header,
                             std::vector<std::uint8_t> body) {
  const auto& group = crypto::dh_group_14();
  MIC_ASSERT(body.size() == kCellBodyBytes);
  const auto client_pub = crypto::Uint2048::from_bytes_be(
      {body.data(), crypto::Uint2048::kBytes});

  const auto priv = group.sample_private_key(rng_);
  const auto pub = group.public_key(priv);
  const auto shared = group.shared_secret(priv, client_pub);
  host_.charge(2 * host_.costs().dh_modexp_cycles +
               host_.costs().tor_cell_fixed_cycles);

  auto circuit = std::make_shared<Circuit>();
  circuit->client_side = &link;
  circuit->client_circ = header.circuit;
  circuit->key = group.derive_key(shared, "tor-hop-key");
  circuits_[circuit_key(&link, header.circuit)] = circuit;

  const auto pub_bytes = pub.to_bytes_be();
  CellHeader reply{header.circuit, CellCmd::kCreated, 0};
  send_cell(link, reply,
            transport::Chunk::real(pad_body(std::vector<std::uint8_t>(
                pub_bytes.begin(), pub_bytes.end()))));
}

bool TorRelay::handle_forward_relay(Circuit& circuit, const CellHeader& header,
                                    std::vector<std::uint8_t> body) {
  host_.charge(host_.costs().tor_cell_fixed_cycles +
               host_.costs().stream_crypt_cycles(kCellBodyBytes));
  ++cells_relayed_;

  if (header.cmd == CellCmd::kRelayVirtual) {
    if (circuit.next_side != nullptr) {
      CellHeader fwd{circuit.next_circ, CellCmd::kRelayVirtual, header.length};
      send_cell(*circuit.next_side, fwd,
                transport::Chunk::virtual_bytes(kCellBodyBytes));
    } else {
      // Exit: hand the bulk bytes to the target stream.
      transport::Chunk data = transport::Chunk::virtual_bytes(header.length);
      if (circuit.exit_ready) {
        circuit.exit_conn->send(std::move(data));
      } else {
        circuit.exit_pending.push_back(std::move(data));
      }
    }
    return true;
  }

  crypt_layer(circuit, circuit.fwd_nonce++, body);
  RecognizedPayload payload = parse_recognized_body(body);
  if (payload.recognized) return handle_recognized(circuit, std::move(payload));
  // No hop after the last can recognize it.
  if (circuit.next_side == nullptr) return false;
  CellHeader fwd{circuit.next_circ, CellCmd::kRelay, 0};
  send_cell(*circuit.next_side, fwd, transport::Chunk::real(std::move(body)));
  return true;
}

bool TorRelay::handle_recognized(Circuit& circuit,
                                 RecognizedPayload payload) {
  switch (payload.subcmd) {
    case RelaySubCmd::kExtend: {
      if (payload.data.size() != 6 + crypto::Uint2048::kBytes) return false;
      const net::Ipv4 next_ip{load_be32(payload.data.data())};
      const net::L4Port next_port = static_cast<net::L4Port>(
          (payload.data[4] << 8) | payload.data[5]);

      Link* raw = &add_link(host_.connect(next_ip, next_port));
      circuit.next_side = raw;
      circuit.next_circ = next_circ_id_++;
      // Register the next-side key so backward cells find the circuit.
      for (auto& [key, circ] : circuits_) {
        if (circ.get() == &circuit) {
          circuits_[circuit_key(raw, circuit.next_circ)] = circ;
          break;
        }
      }

      std::vector<std::uint8_t> create_body(
          payload.data.begin() + 6,
          payload.data.begin() + 6 + crypto::Uint2048::kBytes);
      CellHeader create{circuit.next_circ, CellCmd::kCreate, 0};
      send_cell(*raw, create,
                transport::Chunk::real(pad_body(std::move(create_body))));
      break;
    }
    case RelaySubCmd::kBegin: {
      // One exit stream per circuit: a second would orphan the first,
      // which the destructor could then never release.
      if (payload.data.size() != 6 || circuit.exit_conn != nullptr) {
        return false;
      }
      const net::Ipv4 target{load_be32(payload.data.data())};
      const net::L4Port port = static_cast<net::L4Port>(
          (payload.data[4] << 8) | payload.data[5]);
      begin_exit(circuit, target, port);
      break;
    }
    case RelaySubCmd::kData: {
      transport::Chunk data = transport::Chunk::real(std::move(payload.data));
      if (circuit.exit_ready) {
        circuit.exit_conn->send(std::move(data));
      } else {
        circuit.exit_pending.push_back(std::move(data));
      }
      break;
    }
    default:
      MIC_LOG_WARN("tor relay: unexpected recognized subcmd %d",
                   static_cast<int>(payload.subcmd));
  }
  return true;
}

void TorRelay::begin_exit(Circuit& circuit, net::Ipv4 target,
                          net::L4Port port) {
  circuit.exit_conn = &host_.connect(target, port);
  Circuit* circ = &circuit;
  circuit.exit_conn->set_on_ready([this, circ] {
    circ->exit_ready = true;
    while (!circ->exit_pending.empty()) {
      circ->exit_conn->send(std::move(circ->exit_pending.front()));
      circ->exit_pending.pop_front();
    }
    send_backward_recognized(*circ, RelaySubCmd::kConnected, {});
  });
  circuit.exit_conn->set_on_data([this, circ](const transport::ChunkView& view) {
    // Target bytes travel back as cells.
    std::uint64_t offset = 0;
    while (offset < view.length) {
      const std::uint32_t piece = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kRelayDataBytes, view.length - offset));
      if (view.is_real()) {
        std::vector<std::uint8_t> data(
            view.bytes.begin() + static_cast<long>(offset),
            view.bytes.begin() + static_cast<long>(offset + piece));
        send_backward_recognized(*circ, RelaySubCmd::kData, std::move(data));
      } else {
        host_.charge(host_.costs().tor_cell_fixed_cycles +
                     host_.costs().stream_crypt_cycles(kCellBodyBytes));
        CellHeader header{circ->client_circ, CellCmd::kRelayVirtual,
                          static_cast<std::uint16_t>(piece)};
        send_cell(*circ->client_side, header,
                  transport::Chunk::virtual_bytes(kCellBodyBytes));
      }
      offset += piece;
    }
  });
}

void TorRelay::send_backward_recognized(Circuit& circuit, RelaySubCmd subcmd,
                                        std::vector<std::uint8_t> data) {
  std::vector<std::uint8_t> body = make_recognized_body(subcmd, data);
  host_.charge(host_.costs().tor_cell_fixed_cycles +
               host_.costs().stream_crypt_cycles(kCellBodyBytes));
  crypt_layer(circuit, circuit.bwd_nonce++ | (1ULL << 63), body);
  CellHeader header{circuit.client_circ, CellCmd::kRelay, 0};
  send_cell(*circuit.client_side, header,
            transport::Chunk::real(std::move(body)));
}

void TorRelay::handle_backward_relay(Circuit& circuit,
                                     const CellHeader& header,
                                     std::vector<std::uint8_t> body) {
  host_.charge(host_.costs().tor_cell_fixed_cycles +
               host_.costs().stream_crypt_cycles(kCellBodyBytes));
  ++cells_relayed_;
  if (header.cmd == CellCmd::kRelayVirtual) {
    CellHeader fwd{circuit.client_circ, CellCmd::kRelayVirtual, header.length};
    send_cell(*circuit.client_side, fwd,
              transport::Chunk::virtual_bytes(kCellBodyBytes));
    return;
  }
  // Add this relay's onion layer on the way back to the client.
  crypt_layer(circuit, circuit.bwd_nonce++ | (1ULL << 63), body);
  CellHeader fwd{circuit.client_circ, CellCmd::kRelay, 0};
  send_cell(*circuit.client_side, fwd, transport::Chunk::real(std::move(body)));
}

}  // namespace mic::tor
