#include "transport/ssl.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "crypto/sha256.hpp"

namespace mic::transport {

namespace {
constexpr std::uint32_t kDhPubBytes = crypto::Uint2048::kBytes;  // 256
constexpr std::uint32_t kRandomBytes = 32;
constexpr std::uint32_t kFinishedBytes = 32;  // HMAC-SHA256

/// The body size of each handshake message.
std::uint32_t handshake_bytes(SslSession::MsgType type) {
  switch (type) {
    case SslSession::MsgType::kClientHello:
      return kRandomBytes;
    case SslSession::MsgType::kServerHello:
      return kRandomBytes + kDhPubBytes;
    case SslSession::MsgType::kClientKexFinished:
      return kDhPubBytes + kFinishedBytes;
    default:  // kServerFinished
      return kFinishedBytes;
  }
}
}  // namespace

SslSession::SslSession(ByteStream& underlying, Role role, Host& host,
                       Rng& rng)
    : underlying_(underlying),
      role_(role),
      host_(host),
      rng_(rng),
      expect_(role == Role::kClient ? MsgType::kServerHello
                                    : MsgType::kClientHello) {
  underlying_.set_on_data([this](const ChunkView& view) {
    on_underlying_data(view);
  });
  underlying_.set_on_closed([this] {
    if (!rejected()) notify_closed();
  });
  if (underlying_.ready()) {
    start_handshake();
  } else {
    underlying_.set_on_ready([this] { start_handshake(); });
  }
}

void SslSession::start_handshake() {
  if (role_ == Role::kClient) {
    client_random_.resize(kRandomBytes);
    for (auto& b : client_random_) b = static_cast<std::uint8_t>(rng_.next());
    send_message(MsgType::kClientHello, client_random_);
  }
  // The server waits for the ClientHello.
}

void SslSession::send_message(MsgType type, std::vector<std::uint8_t> body) {
  std::vector<std::uint8_t> record;
  record.reserve(kHeaderBytes + body.size());
  record.push_back(static_cast<std::uint8_t>(type));
  std::uint8_t len_be[4];
  store_be32(len_be, static_cast<std::uint32_t>(body.size()));
  record.insert(record.end(), len_be, len_be + 4);
  record.insert(record.end(), body.begin(), body.end());
  underlying_.send(Chunk::real(std::move(record)));
}

void SslSession::on_underlying_data(const ChunkView& view) {
  if (reader_.failed()) return;
  reader_.feed(
      view,
      [this](std::span<const std::uint8_t> header) { return expects(header); },
      [this](const RecordHeader& header, std::vector<std::uint8_t> body) {
        return on_record(header, std::move(body));
      });
  if (reader_.failed()) {
    underlying_.close();
    notify_closed();
  }
}

std::optional<FrameSpec<SslSession::RecordHeader>> SslSession::expects(
    std::span<const std::uint8_t> bytes) const {
  if (bytes.size() != kHeaderBytes) return std::nullopt;
  const RecordHeader header{static_cast<MsgType>(bytes[0]),
                            load_be32(bytes.data() + 1)};
  if (header.type == MsgType::kDataReal ||
      header.type == MsgType::kDataVirtual) {
    if (!established_ || header.length > kMaxRecord) return std::nullopt;
    return {{header, header.length + kMacBytes,
             header.type == MsgType::kDataVirtual ? BodyKind::kCounted
                                                  : BodyKind::kReal}};
  }
  // expect_ is always a handshake type, so an unknown type fails here.
  if (established_ || header.type != expect_ ||
      header.length != handshake_bytes(header.type)) {
    return std::nullopt;
  }
  return {{header, header.length, BodyKind::kReal}};
}

bool SslSession::on_record(const RecordHeader& header,
                           std::vector<std::uint8_t> body) {
  // expects() lets through only data once established, and before that
  // only the handshake message expect_ names, at its size.
  const auto& group = crypto::dh_group_14();
  const auto& costs = host_.costs();

  switch (header.type) {
    case MsgType::kDataReal: {
      host_.charge(costs.ssl_record_fixed_cycles +
                   costs.stream_crypt_cycles(header.length));
      // Verify the MAC over the ciphertext, then decrypt in place.
      std::vector<std::uint8_t> ciphertext(
          body.begin(), body.begin() + static_cast<long>(header.length));
      const auto mac = crypto::hmac_sha256(recv_key_, ciphertext);
      if (!std::equal(mac.begin(), mac.end(), body.begin() + header.length)) {
        return false;
      }
      crypto::ChaCha20::Key key;
      std::copy(recv_key_.begin(), recv_key_.end(), key.begin());
      crypto::ChaCha20::crypt(key, nonce_for(recv_counter_++), ciphertext);
      notify_data(ChunkView{ciphertext.size(), ciphertext});
      return true;
    }
    case MsgType::kDataVirtual:
      host_.charge(costs.ssl_record_fixed_cycles +
                   costs.stream_crypt_cycles(header.length));
      ++recv_counter_;
      notify_data(ChunkView{header.length, {}});
      return true;
    case MsgType::kClientHello: {
      client_random_ = std::move(body);
      server_random_.resize(kRandomBytes);
      for (auto& b : server_random_) {
        b = static_cast<std::uint8_t>(rng_.next());
      }
      dh_private_ = group.sample_private_key(rng_);
      const auto pub = group.public_key(dh_private_);
      host_.charge(costs.dh_modexp_cycles);

      std::vector<std::uint8_t> hello = server_random_;
      const auto pub_bytes = pub.to_bytes_be();
      hello.insert(hello.end(), pub_bytes.begin(), pub_bytes.end());
      send_message(MsgType::kServerHello, std::move(hello));
      expect_ = MsgType::kClientKexFinished;
      return true;
    }
    case MsgType::kServerHello: {
      server_random_.assign(body.begin(), body.begin() + kRandomBytes);
      const auto server_pub = crypto::Uint2048::from_bytes_be(
          {body.data() + kRandomBytes, kDhPubBytes});

      dh_private_ = group.sample_private_key(rng_);
      const auto pub = group.public_key(dh_private_);
      const auto shared = group.shared_secret(dh_private_, server_pub);
      host_.charge(2 * costs.dh_modexp_cycles);
      shared_key_ = group.derive_key(shared, "mic-ssl-master");
      derive_keys();

      std::vector<std::uint8_t> kex;
      const auto pub_bytes = pub.to_bytes_be();
      kex.insert(kex.end(), pub_bytes.begin(), pub_bytes.end());
      const auto mac = finished_mac("client-finished");
      kex.insert(kex.end(), mac.begin(), mac.end());
      send_message(MsgType::kClientKexFinished, std::move(kex));
      expect_ = MsgType::kServerFinished;
      return true;
    }
    case MsgType::kClientKexFinished: {
      const auto client_pub =
          crypto::Uint2048::from_bytes_be({body.data(), kDhPubBytes});
      const auto shared = group.shared_secret(dh_private_, client_pub);
      host_.charge(costs.dh_modexp_cycles);
      shared_key_ = group.derive_key(shared, "mic-ssl-master");
      derive_keys();

      const auto expected = finished_mac("client-finished");
      if (!std::equal(expected.begin(), expected.end(),
                      body.begin() + kDhPubBytes)) {
        return false;
      }
      const auto mac = finished_mac("server-finished");
      send_message(MsgType::kServerFinished,
                   std::vector<std::uint8_t>(mac.begin(), mac.end()));
      become_ready();
      return true;
    }
    case MsgType::kServerFinished: {
      const auto expected = finished_mac("server-finished");
      if (!std::equal(expected.begin(), expected.end(), body.begin())) {
        return false;
      }
      become_ready();
      return true;
    }
  }
  return false;
}

void SslSession::derive_keys() {
  // Directional keys bound to both nonces.
  std::vector<std::uint8_t> context(shared_key_.begin(), shared_key_.end());
  context.insert(context.end(), client_random_.begin(), client_random_.end());
  context.insert(context.end(), server_random_.begin(), server_random_.end());
  const auto material = crypto::kdf_sha256(
      context,
      {reinterpret_cast<const std::uint8_t*>("mic-ssl-keys"), 12}, 64);
  std::array<std::uint8_t, 32> c2s{};
  std::array<std::uint8_t, 32> s2c{};
  std::copy(material.begin(), material.begin() + 32, c2s.begin());
  std::copy(material.begin() + 32, material.end(), s2c.begin());
  if (role_ == Role::kClient) {
    send_key_ = c2s;
    recv_key_ = s2c;
  } else {
    send_key_ = s2c;
    recv_key_ = c2s;
  }
}

std::array<std::uint8_t, 32> SslSession::finished_mac(
    const char* label) const {
  return crypto::hmac_sha256(
      shared_key_, {reinterpret_cast<const std::uint8_t*>(label),
                    std::char_traits<char>::length(label)});
}

crypto::ChaCha20::Nonce SslSession::nonce_for(std::uint64_t counter) const {
  crypto::ChaCha20::Nonce nonce{};
  store_le64(nonce.data(), counter);
  return nonce;
}

void SslSession::become_ready() {
  established_ = true;
  notify_ready();
  while (!pending_app_data_.empty()) {
    Chunk chunk = std::move(pending_app_data_.front());
    pending_app_data_.pop_front();
    send_data_record(std::move(chunk));
  }
}

void SslSession::send(Chunk chunk) {
  if (rejected()) return;
  if (!established_) {
    pending_app_data_.push_back(std::move(chunk));
    return;
  }
  send_data_record(std::move(chunk));
}

void SslSession::send_data_record(Chunk chunk) {
  // Split into records of at most kMaxRecord payload bytes.
  std::uint64_t offset = 0;
  while (offset < chunk.length) {
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kMaxRecord, chunk.length - offset));
    host_.charge(host_.costs().ssl_record_fixed_cycles +
                 host_.costs().stream_crypt_cycles(len));

    if (chunk.is_real()) {
      std::vector<std::uint8_t> ciphertext(
          chunk.data->begin() + static_cast<long>(offset),
          chunk.data->begin() + static_cast<long>(offset + len));
      crypto::ChaCha20::Key key;
      std::copy(send_key_.begin(), send_key_.end(), key.begin());
      crypto::ChaCha20::crypt(key, nonce_for(send_counter_++), ciphertext);
      const auto mac = crypto::hmac_sha256(send_key_, ciphertext);

      std::vector<std::uint8_t> record;
      record.reserve(kHeaderBytes + len + kMacBytes);
      record.push_back(static_cast<std::uint8_t>(MsgType::kDataReal));
      std::uint8_t len_be[4];
      store_be32(len_be, len);
      record.insert(record.end(), len_be, len_be + 4);
      record.insert(record.end(), ciphertext.begin(), ciphertext.end());
      record.insert(record.end(), mac.begin(), mac.end());
      underlying_.send(Chunk::real(std::move(record)));
    } else {
      ++send_counter_;
      std::vector<std::uint8_t> header;
      header.push_back(static_cast<std::uint8_t>(MsgType::kDataVirtual));
      std::uint8_t len_be[4];
      store_be32(len_be, len);
      header.insert(header.end(), len_be, len_be + 4);
      underlying_.send(Chunk::real(std::move(header)));
      underlying_.send(Chunk::virtual_bytes(len + kMacBytes));
    }
    offset += len;
  }
}

}  // namespace mic::transport
