// MAGA: the M-Address Generation Algorithm (paper Sec IV-B3).
//
// MAGA assigns every m-flow a unique flow ID and constrains every m-address
// tuple the flow uses on a Mimic Node to hash to that ID under the MN's
// *private* hash function.  Because two different IDs can never share a
// tuple under the same function, m-addresses of different m-flows on one MN
// are collision-free by construction; disjoint per-MN MPLS label sets (the
// g() partition) extend the guarantee across MNs.
//
// Fidelity note (also in DESIGN.md): the paper's example hash (Eq. 1) mixes
// with XOR and *shifts*, but a plain shift discards bits, so the printed
// "inverse" (Eq. 2) is not actually an inverse for C1 > 0.  We keep the
// XOR/shift spirit but use *rotations*, which are bijective for every
// rotation count, making the inverse exact.  Each MN draws its own random
// parameters, exactly as the paper prescribes ("parameters, which can be
// different for different MN to build different hash functions").
#pragma once

#include <cstdint>

#include "common/bits.hpp"
#include "common/rng.hpp"

namespace mic::core {

/// One XOR-rotate mixing key: v -> rotl(v ^ x1, r1) ^ rotl(v ^ x2, r2).
template <typename T>
struct MixKey {
  T xor1 = 0;
  T xor2 = 0;
  unsigned rot1 = 0;
  unsigned rot2 = 0;

  static MixKey sample(Rng& rng) {
    constexpr unsigned bits = sizeof(T) * 8;
    MixKey k;
    k.xor1 = static_cast<T>(rng.next());
    k.xor2 = static_cast<T>(rng.next());
    k.rot1 = static_cast<unsigned>(rng.range(1, bits - 1));
    k.rot2 = static_cast<unsigned>(rng.range(1, bits - 1));
    return k;
  }

  T mix(T v) const noexcept {
    return static_cast<T>(rotl(static_cast<T>(v ^ xor1), rot1) ^
                          rotl(static_cast<T>(v ^ xor2), rot2));
  }
};

/// The four-variable F(alpha, beta, gamma, delta) used by the deployed
/// generation path (paper: "getting a satisfied three-tuple <m_src, m_dst,
/// mpls> is equivalent to getting a four-tuple <m_src, m_dst, mpls1,
/// mpls2>").  alpha/beta are the 32-bit IPs, gamma is the MN-distinguishing
/// label half (mpls1), delta the free half (mpls2).  Output is the 16-bit
/// flow ID space; F is invertible in delta.
class MagaF {
 public:
  static MagaF sample(Rng& rng) {
    MagaF f;
    f.a_ = MixKey<std::uint32_t>::sample(rng);
    f.b_ = MixKey<std::uint32_t>::sample(rng);
    f.g_ = MixKey<std::uint16_t>::sample(rng);
    f.d0_ = static_cast<std::uint16_t>(rng.next());
    f.d1_ = static_cast<unsigned>(rng.range(1, 15));
    return f;
  }

  std::uint16_t value(std::uint32_t alpha, std::uint32_t beta,
                      std::uint16_t gamma, std::uint16_t delta) const noexcept {
    return static_cast<std::uint16_t>(
        fixed_part(alpha, beta, gamma) ^
        rotl(static_cast<std::uint16_t>(delta ^ d0_), d1_));
  }

  /// The delta that makes value(alpha, beta, gamma, delta) == v.
  std::uint16_t invert_delta(std::uint16_t v, std::uint32_t alpha,
                             std::uint32_t beta,
                             std::uint16_t gamma) const noexcept {
    return static_cast<std::uint16_t>(
        rotr(static_cast<std::uint16_t>(v ^ fixed_part(alpha, beta, gamma)),
             d1_) ^
        d0_);
  }

 private:
  std::uint16_t fixed_part(std::uint32_t alpha, std::uint32_t beta,
                           std::uint16_t gamma) const noexcept {
    return static_cast<std::uint16_t>(fold16(a_.mix(alpha) ^ b_.mix(beta)) ^
                                      g_.mix(gamma));
  }

  MixKey<std::uint32_t> a_;
  MixKey<std::uint32_t> b_;
  MixKey<std::uint16_t> g_;
  std::uint16_t d0_ = 0;
  unsigned d1_ = 1;
};

/// The label partition function g(): classifies the MN-distinguishing label
/// half (mpls1, 16 bits) into an 8-bit space of switch IDs (S_IDs) plus the
/// reserved common-flow class C_ID.  Following the paper, the variable is
/// split into two byte-halves x1, x2 and h(x1, x2) is built like f;
/// generation fixes x1 randomly and inverts for x2.
///
/// g() is *network-global* (every switch's labels are classified by the
/// same function; only the MC knows it) -- this is what makes label sets of
/// different MNs disjoint.
class MplsClassifier {
 public:
  static MplsClassifier sample(Rng& rng) {
    MplsClassifier g;
    g.hi_ = MixKey<std::uint8_t>::sample(rng);
    g.p0_ = static_cast<std::uint8_t>(rng.next());
    g.p1_ = static_cast<unsigned>(rng.range(1, 7));
    return g;
  }

  /// g(mpls1): the class of a label half.
  std::uint8_t classify(std::uint16_t mpls1) const noexcept {
    const auto hi = static_cast<std::uint8_t>(mpls1 >> 8);
    const auto lo = static_cast<std::uint8_t>(mpls1);
    return static_cast<std::uint8_t>(
        hi_.mix(hi) ^ rotl(static_cast<std::uint8_t>(lo ^ p0_), p1_));
  }

  /// Sample a label half with g(mpls1) == s_id: random high byte, low byte
  /// by inversion.
  std::uint16_t sample_label_half(std::uint8_t s_id, Rng& rng) const noexcept {
    const auto hi = static_cast<std::uint8_t>(rng.next());
    const auto lo = static_cast<std::uint8_t>(
        rotr(static_cast<std::uint8_t>(s_id ^ hi_.mix(hi)), p1_) ^ p0_);
    return static_cast<std::uint16_t>((static_cast<std::uint16_t>(hi) << 8) |
                                      lo);
  }

 private:
  MixKey<std::uint8_t> hi_;
  std::uint8_t p0_ = 0;
  unsigned p1_ = 1;
};

}  // namespace mic::core
