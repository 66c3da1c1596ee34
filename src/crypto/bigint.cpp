#include "crypto/bigint.hpp"

#include <cctype>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace mic::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = ::mic::uint128;

}  // namespace

Uint2048 Uint2048::from_u64(std::uint64_t v) noexcept {
  Uint2048 out;
  out.limbs_[0] = v;
  return out;
}

Uint2048 Uint2048::from_hex(std::string_view hex) {
  Uint2048 out;
  std::size_t nibbles = 0;
  // Walk from the end (least significant nibble) forward.
  for (auto it = hex.rbegin(); it != hex.rend(); ++it) {
    const char c = *it;
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    u64 v;
    if (c >= '0' && c <= '9') v = static_cast<u64>(c - '0');
    else if (c >= 'a' && c <= 'f') v = static_cast<u64>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v = static_cast<u64>(c - 'A' + 10);
    else { MIC_ASSERT_MSG(false, "invalid hex character"); }
    MIC_ASSERT_MSG(nibbles < kLimbs * 16, "hex literal exceeds 2048 bits");
    out.limbs_[nibbles / 16] |= v << (4 * (nibbles % 16));
    ++nibbles;
  }
  return out;
}

Uint2048 Uint2048::from_bytes_be(std::span<const std::uint8_t> bytes) {
  MIC_ASSERT(bytes.size() <= kBytes);
  Uint2048 out;
  std::size_t i = 0;
  for (auto it = bytes.rbegin(); it != bytes.rend(); ++it, ++i) {
    out.limbs_[i / 8] |= static_cast<u64>(*it) << (8 * (i % 8));
  }
  return out;
}

std::array<std::uint8_t, Uint2048::kBytes> Uint2048::to_bytes_be()
    const noexcept {
  std::array<std::uint8_t, kBytes> out{};
  for (std::size_t i = 0; i < kBytes; ++i) {
    const std::size_t rev = kBytes - 1 - i;
    out[rev] = static_cast<std::uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

bool Uint2048::get_bit(std::size_t i) const noexcept {
  return (limbs_[i / 64] >> (i % 64)) & 1;
}

std::size_t Uint2048::bit_length() const noexcept {
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (limbs_[i] != 0) {
      return 64 * i + (64 - static_cast<std::size_t>(__builtin_clzll(limbs_[i])));
    }
  }
  return 0;
}

int Uint2048::compare(const Uint2048& other) const noexcept {
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

std::uint64_t Uint2048::sub_in_place(const Uint2048& other) noexcept {
  u64 borrow = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const u128 diff =
        static_cast<u128>(limbs_[i]) - other.limbs_[i] - borrow;
    limbs_[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>((diff >> 64) & 1);
  }
  return borrow;
}

std::uint64_t Uint2048::shl1_in_place() noexcept {
  u64 carry = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const u64 next_carry = limbs_[i] >> 63;
    limbs_[i] = (limbs_[i] << 1) | carry;
    carry = next_carry;
  }
  return carry;
}

MontgomeryCtx::MontgomeryCtx(const Uint2048& modulus) : n_(modulus) {
  MIC_ASSERT_MSG(modulus.limb(0) & 1, "Montgomery modulus must be odd");
  MIC_ASSERT_MSG(modulus.bit_length() > 1, "modulus must exceed 1");

  // n0_inv = -n^{-1} mod 2^64 via Newton iteration on the low limb.
  const u64 n0 = modulus.limb(0);
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;  // inv = n0^{-1} mod 2^64
  n0_inv_ = ~inv + 1;                               // -inv

  // rr_ = 2^4096 mod n via 4096 modular doublings of 1.
  Uint2048 r = Uint2048::from_u64(1);
  for (int i = 0; i < 4096; ++i) {
    const u64 overflow = r.shl1_in_place();
    if (overflow != 0 || r.compare(n_) >= 0) r.sub_in_place(n_);
  }
  rr_ = r;
}

Uint2048 MontgomeryCtx::mont_mul(const Uint2048& a,
                                 const Uint2048& b) const noexcept {
  // CIOS (coarsely integrated operand scanning), one extra carry limb.
  constexpr std::size_t L = Uint2048::kLimbs;
  u64 t[L + 1] = {};
  u64 t_hi = 0;  // limb L+1

  for (std::size_t i = 0; i < L; ++i) {
    // t += a[i] * b
    u64 carry = 0;
    const u64 ai = a.limb(i);
    for (std::size_t j = 0; j < L; ++j) {
      const u128 sum = static_cast<u128>(ai) * b.limb(j) + t[j] + carry;
      t[j] = static_cast<u64>(sum);
      carry = static_cast<u64>(sum >> 64);
    }
    {
      const u128 sum = static_cast<u128>(t[L]) + carry;
      t[L] = static_cast<u64>(sum);
      t_hi += static_cast<u64>(sum >> 64);
    }

    // m = t[0] * n0_inv mod 2^64; t += m * n; t >>= 64.
    const u64 m = t[0] * n0_inv_;
    carry = 0;
    {
      const u128 sum = static_cast<u128>(m) * n_.limb(0) + t[0];
      carry = static_cast<u64>(sum >> 64);
    }
    for (std::size_t j = 1; j < L; ++j) {
      const u128 sum = static_cast<u128>(m) * n_.limb(j) + t[j] + carry;
      t[j - 1] = static_cast<u64>(sum);
      carry = static_cast<u64>(sum >> 64);
    }
    {
      const u128 sum = static_cast<u128>(t[L]) + carry;
      t[L - 1] = static_cast<u64>(sum);
      t[L] = t_hi + static_cast<u64>(sum >> 64);
      t_hi = 0;
    }
  }

  Uint2048 result;
  for (std::size_t i = 0; i < L; ++i) result.set_limb(i, t[i]);
  if (t[L] != 0 || result.compare(n_) >= 0) result.sub_in_place(n_);
  return result;
}

Uint2048 MontgomeryCtx::to_mont(const Uint2048& a) const noexcept {
  return mont_mul(a, rr_);
}

Uint2048 MontgomeryCtx::from_mont(const Uint2048& a) const noexcept {
  return mont_mul(a, Uint2048::from_u64(1));
}

Uint2048 MontgomeryCtx::modexp(const Uint2048& base,
                               const Uint2048& exp) const noexcept {
  const Uint2048 base_m = to_mont(base);
  Uint2048 acc = to_mont(Uint2048::from_u64(1));
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    acc = mont_mul(acc, acc);
    if (exp.get_bit(i)) acc = mont_mul(acc, base_m);
  }
  return from_mont(acc);
}

}  // namespace mic::crypto
