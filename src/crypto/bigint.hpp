// Fixed-width 2048-bit unsigned integers and Montgomery modular arithmetic.
//
// This is the arithmetic substrate for the Diffie-Hellman key exchange the
// paper prescribes for the first contact between a client and the Mimic
// Controller (Sec VI, "exchange a private key with the MC in advance using
// asymmetric encryption algorithms, like RSA or D-H").
//
// Representation: 32 little-endian 64-bit limbs.  Modular exponentiation
// uses CIOS Montgomery multiplication, so a 2048-bit modexp with a 256-bit
// exponent costs ~500 Montgomery multiplications -- fast enough to run real
// key exchanges inside unit tests and the control-plane code path.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace mic::crypto {

class Uint2048 {
 public:
  static constexpr std::size_t kLimbs = 32;
  static constexpr std::size_t kBytes = kLimbs * 8;

  constexpr Uint2048() noexcept : limbs_{} {}

  /// Construct from a small value.
  static Uint2048 from_u64(std::uint64_t v) noexcept;

  /// Parse a big-endian hex string (whitespace ignored).  Asserts on
  /// malformed input or overflow.
  static Uint2048 from_hex(std::string_view hex);

  /// Parse big-endian bytes (at most kBytes).
  static Uint2048 from_bytes_be(std::span<const std::uint8_t> bytes);

  /// Serialize to exactly kBytes big-endian bytes.
  std::array<std::uint8_t, kBytes> to_bytes_be() const noexcept;

  bool get_bit(std::size_t i) const noexcept;
  std::size_t bit_length() const noexcept;

  std::uint64_t limb(std::size_t i) const noexcept { return limbs_[i]; }
  void set_limb(std::size_t i, std::uint64_t v) noexcept { limbs_[i] = v; }

  /// Three-way comparison.
  int compare(const Uint2048& other) const noexcept;
  bool operator==(const Uint2048& other) const noexcept = default;

  /// this -= other; returns the borrow out (0 or 1).
  std::uint64_t sub_in_place(const Uint2048& other) noexcept;
  /// this <<= 1; returns the bit shifted out.
  std::uint64_t shl1_in_place() noexcept;

 private:
  std::array<std::uint64_t, kLimbs> limbs_;
};

/// Precomputed Montgomery context for an odd modulus (any width up to
/// 2048 bits; R is fixed at 2^2048, which CIOS tolerates for any odd n<R).
class MontgomeryCtx {
 public:
  explicit MontgomeryCtx(const Uint2048& modulus);

  const Uint2048& modulus() const noexcept { return n_; }

  /// Montgomery product: returns a*b*R^{-1} mod n.
  Uint2048 mont_mul(const Uint2048& a, const Uint2048& b) const noexcept;

  Uint2048 to_mont(const Uint2048& a) const noexcept;
  Uint2048 from_mont(const Uint2048& a) const noexcept;

  /// base^exp mod n (inputs and output in ordinary representation).
  Uint2048 modexp(const Uint2048& base, const Uint2048& exp) const noexcept;

 private:
  Uint2048 n_;
  Uint2048 rr_;            // R^2 mod n, R = 2^2048
  std::uint64_t n0_inv_ = 0;  // -n^{-1} mod 2^64
};

}  // namespace mic::crypto
