#include "core/channel.hpp"

#include "common/bits.hpp"

namespace mic::core {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

/// Bounds-checked big-endian reads: false when fewer than the needed bytes
/// remain.
bool get_u16(const std::vector<std::uint8_t>& in, std::size_t& at,
             std::uint16_t& v) {
  if (in.size() - at < 2) return false;
  v = static_cast<std::uint16_t>((static_cast<std::uint16_t>(in[at]) << 8) |
                                 in[at + 1]);
  at += 2;
  return true;
}

bool get_u32(const std::vector<std::uint8_t>& in, std::size_t& at,
             std::uint32_t& v) {
  std::uint16_t hi = 0, lo = 0;
  if (!get_u16(in, at, hi) || !get_u16(in, at, lo)) return false;
  v = (static_cast<std::uint32_t>(hi) << 16) | lo;
  return true;
}

}  // namespace

std::vector<std::uint8_t> serialize_request(const EstablishRequest& req) {
  std::vector<std::uint8_t> out;
  put_u32(out, req.initiator_ip.value);
  put_u32(out, req.responder_ip.value);
  put_u16(out, req.responder_port);
  out.push_back(static_cast<std::uint8_t>(req.flow_count));
  out.push_back(static_cast<std::uint8_t>(req.mn_count));
  out.push_back(static_cast<std::uint8_t>(req.multicast_decoys));
  out.push_back(static_cast<std::uint8_t>(req.service_name.size()));
  out.insert(out.end(), req.service_name.begin(), req.service_name.end());
  put_u16(out, static_cast<std::uint16_t>(req.initiator_sports.size()));
  for (const auto port : req.initiator_sports) put_u16(out, port);
  return out;
}

std::optional<EstablishRequest> deserialize_request(
    const std::vector<std::uint8_t>& bytes) {
  EstablishRequest req;
  std::size_t at = 0;
  if (!get_u32(bytes, at, req.initiator_ip.value) ||
      !get_u32(bytes, at, req.responder_ip.value) ||
      !get_u16(bytes, at, req.responder_port) || bytes.size() - at < 4) {
    return std::nullopt;
  }
  req.flow_count = bytes[at++];
  req.mn_count = bytes[at++];
  req.multicast_decoys = bytes[at++];
  const std::size_t name_len = bytes[at++];
  if (bytes.size() - at < name_len) return std::nullopt;
  req.service_name.assign(bytes.begin() + static_cast<long>(at),
                          bytes.begin() + static_cast<long>(at + name_len));
  at += name_len;
  std::uint16_t n_ports = 0;
  if (!get_u16(bytes, at, n_ports) || bytes.size() - at != 2u * n_ports) {
    return std::nullopt;  // short, or trailing garbage
  }
  req.initiator_sports.resize(n_ports);
  for (auto& port : req.initiator_sports) get_u16(bytes, at, port);
  return req;
}

void crypt_control_message(const crypto::Aes128::Key& key,
                           std::uint64_t message_counter,
                           std::vector<std::uint8_t>& bytes) {
  crypto::Aes128::Block iv{};
  store_be64(iv.data(), message_counter);
  crypto::aes128_ctr(key, iv, bytes);
}

}  // namespace mic::core
