// SSL/TLS-style secure stream layered over any ByteStream.
//
// Faithful in shape to the paper's SSL baseline: a 2-RTT handshake carrying
// a real Diffie-Hellman exchange (RFC 3526 group 14, computed for real),
// then a record layer (<=16 KiB records, 5-byte header + 32-byte MAC) whose
// per-byte ChaCha20+HMAC cost is charged to both endpoint CPUs.  Real
// payloads are actually encrypted and authenticated; virtual (bulk)
// payloads are charged but not materialized.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>

#include "common/rng.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "transport/tcp.hpp"

namespace mic::transport {

class SslSession : public ByteStream {
 public:
  enum class Role : std::uint8_t { kClient, kServer };

  static constexpr std::uint32_t kMaxRecord = 16 * 1024;
  static constexpr std::uint32_t kHeaderBytes = 5;
  static constexpr std::uint32_t kMacBytes = 32;

  /// Takes exclusive use of `underlying`'s callbacks.  `host` is charged
  /// the crypto cycles; `rng` supplies handshake randomness.
  SslSession(ByteStream& underlying, Role role, Host& host, Rng& rng);

  void send(Chunk chunk) override;
  void close() override { underlying_.close(); }
  bool ready() const override { return established_; }

  /// Whether this side dropped the connection over a record no peer of
  /// this protocol writes: header bytes that are not real, a header
  /// expects() refuses, a virtual byte in a real body, a MAC that does not
  /// match, or a Finished message that does not.  The session closes the
  /// connection, reports itself closed and ignores whatever arrives after.
  bool rejected() const noexcept { return reader_.failed(); }

  enum class MsgType : std::uint8_t {
    kClientHello = 1,
    kServerHello = 2,
    kClientKexFinished = 3,
    kServerFinished = 4,
    kDataReal = 5,
    kDataVirtual = 6,
  };
  /// A record header: [type u8][length u32, big-endian].
  struct RecordHeader {
    MsgType type = MsgType::kClientHello;
    std::uint32_t length = 0;
  };

  /// The record this side accepts next from a header's bytes, nullopt for
  /// any other: data of at most kMaxRecord bytes once established, else
  /// exactly the handshake message this role expects next, at its size.
  std::optional<FrameSpec<RecordHeader>> expects(
      std::span<const std::uint8_t> header) const;

 private:
  void start_handshake();
  void on_underlying_data(const ChunkView& view);
  /// False for a record whose MAC or Finished message does not match.
  bool on_record(const RecordHeader& header, std::vector<std::uint8_t> body);
  void send_message(MsgType type, std::vector<std::uint8_t> body);
  void send_data_record(Chunk chunk);
  void become_ready();
  void derive_keys();

  std::array<std::uint8_t, 32> finished_mac(const char* label) const;
  crypto::ChaCha20::Nonce nonce_for(std::uint64_t counter) const;

  ByteStream& underlying_;
  Role role_;
  Host& host_;
  Rng& rng_;

  bool established_ = false;
  FrameReader<RecordHeader, kHeaderBytes> reader_;
  std::deque<Chunk> pending_app_data_;

  // Handshake state.  `expect_` is the one handshake message this side
  // accepts next.
  MsgType expect_;
  std::vector<std::uint8_t> client_random_;
  std::vector<std::uint8_t> server_random_;
  crypto::Uint2048 dh_private_;
  std::array<std::uint8_t, 32> shared_key_{};

  // Record layer state.
  std::array<std::uint8_t, 32> send_key_{};
  std::array<std::uint8_t, 32> recv_key_{};
  std::uint64_t send_counter_ = 0;
  std::uint64_t recv_counter_ = 0;
};

}  // namespace mic::transport
