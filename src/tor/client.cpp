#include "tor/client.hpp"

#include "common/log.hpp"
#include "crypto/dh.hpp"

namespace mic::tor {

TorClient::TorClient(transport::Host& host, std::vector<RelayAddr> path,
                     net::Ipv4 target, net::L4Port target_port, Rng& rng)
    : host_(host),
      path_(std::move(path)),
      target_(target),
      target_port_(target_port),
      rng_(rng) {
  MIC_ASSERT_MSG(!path_.empty(), "Tor circuit needs at least one relay");
  started_at_ = host_.simulator().now();

  conn_ = &host_.connect(path_[0].ip, path_[0].port);
  conn_->set_on_data([this](const transport::ChunkView& view) {
    if (parser_.failed()) return;
    parser_.feed(view, [this](const CellHeader& header,
                              std::vector<std::uint8_t> body) {
      return on_cell(header, std::move(body));
    });
    if (parser_.failed()) {
      conn_->close();
      notify_closed();
    }
  });
  conn_->set_on_ready([this] {
    // CREATE to the first hop: a real DH exchange.
    const auto& group = crypto::dh_group_14();
    Hop hop;
    hop.dh_private = group.sample_private_key(rng_);
    const auto pub = group.public_key(hop.dh_private);
    host_.charge(host_.costs().dh_modexp_cycles +
                 host_.costs().tor_cell_fixed_cycles);
    hops_.push_back(std::move(hop));

    const auto pub_bytes = pub.to_bytes_be();
    CellHeader header{circ_id_, CellCmd::kCreate, 0};
    conn_->send(transport::Chunk::real(serialize_cell_header(header)));
    conn_->send(transport::Chunk::real(pad_body(std::vector<std::uint8_t>(
        pub_bytes.begin(), pub_bytes.end()))));
  });
}

TorClient::~TorClient() { host_.release(*conn_); }

void TorClient::crypt_hop(std::size_t hop, bool backward, std::uint64_t nonce,
                          std::vector<std::uint8_t>& body) {
  crypto::ChaCha20::Key key;
  std::copy(hops_[hop].key.begin(), hops_[hop].key.end(), key.begin());
  crypto::ChaCha20::crypt(key, nonce_for(nonce, backward), body);
}

void TorClient::on_created_or_extended(
    const std::vector<std::uint8_t>& pub_bytes) {
  const auto& group = crypto::dh_group_14();
  Hop& hop = hops_.back();
  const auto relay_pub = crypto::Uint2048::from_bytes_be(
      {pub_bytes.data(), crypto::Uint2048::kBytes});
  const auto shared = group.shared_secret(hop.dh_private, relay_pub);
  host_.charge(host_.costs().dh_modexp_cycles);
  hop.key = group.derive_key(shared, "tor-hop-key");
  hop.established = true;
  extend_or_begin();
}

void TorClient::extend_or_begin() {
  const auto& group = crypto::dh_group_14();
  if (hops_.size() < path_.size()) {
    // Telescope one hop further: EXTEND carries the next relay's address
    // and a fresh DH public, delivered to the current last hop.
    Hop next;
    next.dh_private = group.sample_private_key(rng_);
    const auto pub = group.public_key(next.dh_private);
    host_.charge(host_.costs().dh_modexp_cycles +
                 host_.costs().tor_cell_fixed_cycles);

    const RelayAddr& addr = path_[hops_.size()];
    std::vector<std::uint8_t> data(6);
    store_be32(data.data(), addr.ip.value);
    data[4] = static_cast<std::uint8_t>(addr.port >> 8);
    data[5] = static_cast<std::uint8_t>(addr.port);
    const auto pub_bytes = pub.to_bytes_be();
    data.insert(data.end(), pub_bytes.begin(), pub_bytes.end());

    const std::size_t dest = hops_.size() - 1;  // current last hop
    hops_.push_back(std::move(next));
    send_forward_recognized(dest, RelaySubCmd::kExtend, std::move(data));
    return;
  }

  // Circuit complete: open the stream.
  std::vector<std::uint8_t> data(6);
  store_be32(data.data(), target_.value);
  data[4] = static_cast<std::uint8_t>(target_port_ >> 8);
  data[5] = static_cast<std::uint8_t>(target_port_);
  send_forward_recognized(hops_.size() - 1, RelaySubCmd::kBegin,
                          std::move(data));
}

void TorClient::send_forward_recognized(std::size_t dest_hop,
                                        RelaySubCmd subcmd,
                                        std::vector<std::uint8_t> data) {
  std::vector<std::uint8_t> body = make_recognized_body(subcmd, data);
  // Onion-encrypt: innermost layer is the destination hop's, outermost the
  // first hop's (the first relay strips its layer first).
  for (std::size_t i = dest_hop + 1; i-- > 0;) {
    crypt_hop(i, /*backward=*/false, hops_[i].fwd_nonce++, body);
  }
  host_.charge(host_.costs().tor_cell_fixed_cycles +
               static_cast<double>(dest_hop + 1) *
                   host_.costs().stream_crypt_cycles(kCellBodyBytes));
  CellHeader header{circ_id_, CellCmd::kRelay, 0};
  conn_->send(transport::Chunk::real(serialize_cell_header(header)));
  conn_->send(transport::Chunk::real(std::move(body)));
}

void TorClient::send_virtual_data(std::uint64_t length) {
  host_.charge(host_.costs().tor_cell_fixed_cycles +
               static_cast<double>(hops_.size()) *
                   host_.costs().stream_crypt_cycles(kCellBodyBytes));
  CellHeader header{circ_id_, CellCmd::kRelayVirtual,
                    static_cast<std::uint16_t>(length)};
  conn_->send(transport::Chunk::real(serialize_cell_header(header)));
  conn_->send(transport::Chunk::virtual_bytes(kCellBodyBytes));
}

bool TorClient::on_cell(const CellHeader& header,
                        std::vector<std::uint8_t> body) {
  if (header.cmd == CellCmd::kCreated) {
    host_.charge(host_.costs().tor_cell_fixed_cycles);
    on_created_or_extended(body);
    return true;
  }
  if (header.cmd == CellCmd::kRelayVirtual) {
    host_.charge(host_.costs().tor_cell_fixed_cycles +
                 static_cast<double>(hops_.size()) *
                     host_.costs().stream_crypt_cycles(kCellBodyBytes));
    notify_data(transport::ChunkView{header.length, {}});
    return true;
  }
  if (header.cmd != CellCmd::kRelay) return false;

  // Peel backward layers until the payload is recognized; only the
  // counters of the hops the cell actually traversed advance.
  RecognizedPayload payload;
  std::size_t layers = 0;
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    if (!hops_[i].established) break;
    crypt_hop(i, /*backward=*/true, hops_[i].bwd_nonce++, body);
    ++layers;
    payload = parse_recognized_body(body);
    if (payload.recognized) break;
  }
  host_.charge(host_.costs().tor_cell_fixed_cycles +
               static_cast<double>(layers) *
                   host_.costs().stream_crypt_cycles(kCellBodyBytes));
  if (!payload.recognized) return false;

  switch (payload.subcmd) {
    case RelaySubCmd::kExtended:
      if (payload.data.size() != crypto::Uint2048::kBytes) return false;
      on_created_or_extended(payload.data);
      break;
    case RelaySubCmd::kConnected:
      ready_ = true;
      ready_at_ = host_.simulator().now();
      notify_ready();
      while (!pending_.empty()) {
        transport::Chunk chunk = std::move(pending_.front());
        pending_.pop_front();
        send(std::move(chunk));
      }
      break;
    case RelaySubCmd::kData: {
      notify_data(transport::ChunkView{payload.data.size(), payload.data});
      break;
    }
    default:
      MIC_LOG_WARN("tor client: unexpected subcmd %d",
                   static_cast<int>(payload.subcmd));
  }
  return true;
}

void TorClient::send(transport::Chunk chunk) {
  if (!ready_) {
    pending_.push_back(std::move(chunk));
    return;
  }
  std::uint64_t offset = 0;
  while (offset < chunk.length) {
    const std::uint64_t piece =
        std::min<std::uint64_t>(kRelayDataBytes, chunk.length - offset);
    if (chunk.is_real()) {
      std::vector<std::uint8_t> data(
          chunk.data->begin() + static_cast<long>(offset),
          chunk.data->begin() + static_cast<long>(offset + piece));
      send_forward_recognized(hops_.size() - 1, RelaySubCmd::kData,
                              std::move(data));
    } else {
      send_virtual_data(piece);
    }
    offset += piece;
  }
}

void TorClient::close() {
  if (conn_ != nullptr) conn_->close();
}

}  // namespace mic::tor
