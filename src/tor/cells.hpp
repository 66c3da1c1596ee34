// Tor-style cell format for the overlay baseline.
//
// Fixed 512-byte cells (as in Tor): a 7-byte cleartext header
// [circuit u32][cmd u8][len u16] and a 505-byte body.  Control bodies
// (CREATE/CREATED and "recognized" relay payloads) are real bytes and are
// really onion-encrypted; bulk data rides in kRelayVirtual cells whose body
// is virtual (the crypto cost is charged, the bytes are not materialized).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "crypto/chacha20.hpp"
#include "transport/stream.hpp"

namespace mic::tor {

inline constexpr std::uint32_t kCellSize = 512;
inline constexpr std::uint32_t kCellHeaderBytes = 7;
inline constexpr std::uint32_t kCellBodyBytes = kCellSize - kCellHeaderBytes;

/// Recognized relay sub-payload: [magic u16][subcmd u8][len u16][data].
inline constexpr std::uint16_t kRecognizedMagic = 0x5A5A;
inline constexpr std::uint32_t kRelaySubHeader = 5;
/// Usable data bytes per relay cell.
inline constexpr std::uint32_t kRelayDataBytes =
    kCellBodyBytes - kRelaySubHeader;

enum class CellCmd : std::uint8_t {
  kCreate = 1,   // body: client DH public (real)
  kCreated = 2,  // body: relay DH public (real)
  kRelay = 3,    // body: onion-encrypted recognized payload (real)
  kRelayVirtual = 4,  // body: virtual bulk data; header len = data bytes
};

enum class RelaySubCmd : std::uint8_t {
  kExtend = 1,     // data: next addr u32, port u16, client DH public
  kExtended = 2,   // data: new relay's DH public
  kBegin = 3,      // data: target addr u32, port u16
  kConnected = 4,  // data: empty
  kData = 5,       // data: application bytes
};

struct CellHeader {
  std::uint32_t circuit = 0;
  CellCmd cmd = CellCmd::kCreate;
  std::uint16_t length = 0;  // meaning depends on cmd
};

inline std::vector<std::uint8_t> serialize_cell_header(
    const CellHeader& header) {
  std::vector<std::uint8_t> out(kCellHeaderBytes);
  store_be32(out.data(), header.circuit);
  out[4] = static_cast<std::uint8_t>(header.cmd);
  out[5] = static_cast<std::uint8_t>(header.length >> 8);
  out[6] = static_cast<std::uint8_t>(header.length);
  return out;
}

/// nullopt for a header no Tor endpoint writes: not kCellHeaderBytes long,
/// an unknown command, or a kRelayVirtual cell claiming more than
/// kRelayDataBytes.
inline std::optional<CellHeader> parse_cell_header(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kCellHeaderBytes) return std::nullopt;
  CellHeader header;
  header.circuit = load_be32(bytes.data());
  header.cmd = static_cast<CellCmd>(bytes[4]);
  header.length = static_cast<std::uint16_t>((bytes[5] << 8) | bytes[6]);
  const bool known = header.cmd >= CellCmd::kCreate &&
                     header.cmd <= CellCmd::kRelayVirtual;
  if (!known || (header.cmd == CellCmd::kRelayVirtual &&
                 header.length > kRelayDataBytes)) {
    return std::nullopt;
  }
  return header;
}

/// The ChaCha20 nonce of one onion layer: the cell counter little-endian in
/// bytes 0-7, the direction in byte 11.  Client and relay must agree on it.
inline crypto::ChaCha20::Nonce nonce_for(std::uint64_t counter,
                                         bool backward) {
  crypto::ChaCha20::Nonce nonce{};
  store_le64(nonce.data(), counter);
  nonce[11] = backward ? 0xBB : 0xFF;
  return nonce;
}

/// Zero-pad a real cell body to the full body size.
inline std::vector<std::uint8_t> pad_body(std::vector<std::uint8_t> data) {
  MIC_ASSERT(data.size() <= kCellBodyBytes);
  data.resize(kCellBodyBytes, 0);
  return data;
}

/// Build a recognized relay body: magic + subcmd + len + data, zero-padded
/// to the full body size.
inline std::vector<std::uint8_t> make_recognized_body(
    RelaySubCmd subcmd, const std::vector<std::uint8_t>& data) {
  MIC_ASSERT(data.size() <= kRelayDataBytes);
  std::vector<std::uint8_t> body(kCellBodyBytes, 0);
  body[0] = static_cast<std::uint8_t>(kRecognizedMagic >> 8);
  body[1] = static_cast<std::uint8_t>(kRecognizedMagic);
  body[2] = static_cast<std::uint8_t>(subcmd);
  body[3] = static_cast<std::uint8_t>(data.size() >> 8);
  body[4] = static_cast<std::uint8_t>(data.size());
  std::copy(data.begin(), data.end(), body.begin() + kRelaySubHeader);
  return body;
}

struct RecognizedPayload {
  bool recognized = false;
  RelaySubCmd subcmd = RelaySubCmd::kData;
  std::vector<std::uint8_t> data;
};

/// Recognized only with the magic and a length of at most kRelayDataBytes:
/// a still-encrypted body that happens to start with the magic claims a
/// random length.
inline RecognizedPayload parse_recognized_body(
    const std::vector<std::uint8_t>& body) {
  MIC_ASSERT(body.size() == kCellBodyBytes);
  RecognizedPayload out;
  const std::uint16_t magic =
      static_cast<std::uint16_t>((body[0] << 8) | body[1]);
  const std::uint16_t len =
      static_cast<std::uint16_t>((body[3] << 8) | body[4]);
  if (magic != kRecognizedMagic || len > kRelayDataBytes) return out;
  out.recognized = true;
  out.subcmd = static_cast<RelaySubCmd>(body[2]);
  out.data.assign(body.begin() + kRelaySubHeader,
                  body.begin() + kRelaySubHeader + len);
  return out;
}

/// Reads the cells of one link.
class CellParser {
 public:
  /// Feed stream data; `on_cell(header, body)` fires per whole cell, with
  /// the body's bytes, or none for kRelayVirtual, and returns false to
  /// reject the cell.  A header parse_cell_header refuses, a virtual byte
  /// in any other body, or a rejected cell fail the parser for good (see
  /// transport::FrameReader).
  template <typename OnCell>
  void feed(const transport::ChunkView& view, OnCell&& on_cell) {
    reader_.feed(
        view,
        [](std::span<const std::uint8_t> bytes)
            -> std::optional<transport::FrameSpec<CellHeader>> {
          const std::optional<CellHeader> header = parse_cell_header(bytes);
          if (!header) return std::nullopt;
          return {{*header, kCellBodyBytes,
                   header->cmd == CellCmd::kRelayVirtual
                       ? transport::BodyKind::kCounted
                       : transport::BodyKind::kReal}};
        },
        on_cell);
  }

  bool failed() const noexcept { return reader_.failed(); }

 private:
  transport::FrameReader<CellHeader, kCellHeaderBytes> reader_;
};

}  // namespace mic::tor
