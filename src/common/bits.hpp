// Bit-manipulation helpers shared by the MAGA hash family and the crypto
// primitives.  Everything here is constexpr and branch-free.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>

namespace mic {

/// 128-bit arithmetic helper (GCC/Clang extension, hidden from -Wpedantic).
__extension__ using uint128 = unsigned __int128;

/// Rotate left within the value's own width.  Unlike raw shifts, rotation is
/// a bijection for every rotation count, which is what makes the MAGA hash
/// functions invertible (see maga.hpp).
template <typename T>
constexpr T rotl(T v, unsigned r) noexcept {
  return std::rotl(v, static_cast<int>(r));
}

template <typename T>
constexpr T rotr(T v, unsigned r) noexcept {
  return std::rotr(v, static_cast<int>(r));
}

/// Fold a 32-bit value to 16 bits by XORing the halves.
constexpr std::uint16_t fold16(std::uint32_t v) noexcept {
  return static_cast<std::uint16_t>(v ^ (v >> 16));
}

constexpr std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

constexpr void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

constexpr std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

constexpr void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

constexpr void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}

constexpr void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  store_le32(p, static_cast<std::uint32_t>(v));
  store_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

}  // namespace mic
