// Known-answer and property tests for the from-scratch crypto substrate.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "crypto/aes128.hpp"
#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"

namespace mic::crypto {
namespace {

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    const auto nibble = [](char c) -> std::uint8_t {
      if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
      return static_cast<std::uint8_t>(c - 'a' + 10);
    };
    out.push_back(
        static_cast<std::uint8_t>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// --- SHA-256 (FIPS 180-4 vectors) -------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (const char c : msg) {
    const auto byte = static_cast<std::uint8_t>(c);
    ctx.update({&byte, 1});
  }
  EXPECT_EQ(to_hex(ctx.finish()), to_hex(Sha256::hash(bytes_of(msg))));
}

// --- HMAC-SHA256 (RFC 4231 vectors) ------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(bytes_of("Jefe"),
                               bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, bytes_of("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Kdf, DeterministicAndLengthExact) {
  const auto a = kdf_sha256(bytes_of("secret"), bytes_of("label"), 80);
  const auto b = kdf_sha256(bytes_of("secret"), bytes_of("label"), 80);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 80u);
  const auto c = kdf_sha256(bytes_of("secret"), bytes_of("other"), 80);
  EXPECT_NE(a, c);
}

// --- ChaCha20 (RFC 8439 vectors) ----------------------------------------------

TEST(ChaCha20, Rfc8439Section242) {
  ChaCha20::Key key{};
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  ChaCha20::Nonce nonce{0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                        0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<std::uint8_t> data(plaintext.begin(), plaintext.end());
  ChaCha20::crypt(key, nonce, data, /*initial_counter=*/1);
  EXPECT_EQ(
      to_hex(data),
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b"
      "65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf"
      "500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a3"
      "5be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  ChaCha20::Key key{};
  key[0] = 0x42;
  ChaCha20::Nonce nonce{};
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  auto original = data;
  ChaCha20::crypt(key, nonce, data);
  EXPECT_NE(data, original);
  ChaCha20::crypt(key, nonce, data);
  EXPECT_EQ(data, original);
}

TEST(ChaCha20, StreamingMatchesOneShot) {
  ChaCha20::Key key{};
  key[5] = 0x99;
  ChaCha20::Nonce nonce{};
  std::vector<std::uint8_t> one_shot(300, 0xab);
  std::vector<std::uint8_t> streamed = one_shot;
  ChaCha20::crypt(key, nonce, one_shot);
  ChaCha20 cipher(key, nonce);
  cipher.apply(std::span(streamed).subspan(0, 100));
  cipher.apply(std::span(streamed).subspan(100, 130));
  cipher.apply(std::span(streamed).subspan(230));
  EXPECT_EQ(one_shot, streamed);
}

// --- AES-128 (FIPS 197 / SP 800-38A vectors) -------------------------------------

TEST(Aes128, Fips197Block) {
  Aes128::Key key{};
  Aes128::Block plaintext{};
  for (int i = 0; i < 16; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    plaintext[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(i * 0x11);
  }
  const Aes128 cipher(key);
  EXPECT_EQ(to_hex(cipher.encrypt_block(plaintext)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, Sp80038aCtr) {
  const auto key_bytes = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Aes128::Key key{};
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  const auto iv_bytes = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Aes128::Block iv{};
  std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());

  auto data = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  aes128_ctr(key, iv, data);
  EXPECT_EQ(to_hex(data),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff");
}

TEST(Aes128, CtrRoundTrip) {
  Aes128::Key key{};
  key[3] = 7;
  Aes128::Block iv{};
  std::vector<std::uint8_t> data(123, 0x5c);
  const auto original = data;
  aes128_ctr(key, iv, data);
  aes128_ctr(key, iv, data);
  EXPECT_EQ(data, original);
}

// --- Uint2048 / Montgomery ---------------------------------------------------------

TEST(Uint2048, HexRoundTrip) {
  const auto v = Uint2048::from_hex("deadbeefcafebabe1234567890");
  EXPECT_EQ(v.bit_length(), 104u);
  const auto bytes = v.to_bytes_be();
  EXPECT_EQ(Uint2048::from_bytes_be(bytes), v);
}

TEST(Uint2048, AddSubInverse) {
  // 2^64 - 1 borrows across the limb boundary.
  Uint2048 v = Uint2048::from_hex("10000000000000000");
  EXPECT_EQ(v.sub_in_place(Uint2048::from_u64(1)), 0u);
  EXPECT_EQ(v, Uint2048::from_u64(~0ULL));

  // 0 - 1 wraps to 2^2048 - 1 and reports the borrow out.
  Uint2048 zero;
  EXPECT_EQ(zero.sub_in_place(Uint2048::from_u64(1)), 1u);
  for (std::size_t i = 0; i < Uint2048::kLimbs; ++i) {
    EXPECT_EQ(zero.limb(i), ~0ULL);
  }
}

TEST(Uint2048, CompareOrdering) {
  const auto small = Uint2048::from_u64(5);
  const auto big = Uint2048::from_hex("ffffffffffffffffff");
  EXPECT_LT(small.compare(big), 0);
  EXPECT_GT(big.compare(small), 0);
  EXPECT_EQ(small.compare(Uint2048::from_u64(5)), 0);
}

TEST(Uint2048, Shl1) {
  auto v = Uint2048::from_u64(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v.shl1_in_place(), 0u);
  EXPECT_TRUE(v.get_bit(100));
  EXPECT_EQ(v.bit_length(), 101u);
}

TEST(Montgomery, ModexpSmallCases) {
  const MontgomeryCtx ctx(dh_group_14().prime());
  EXPECT_EQ(ctx.modexp(Uint2048::from_u64(2), Uint2048::from_u64(1)),
            Uint2048::from_u64(2));
  EXPECT_EQ(ctx.modexp(Uint2048::from_u64(2), Uint2048::from_u64(10)),
            Uint2048::from_u64(1024));
  EXPECT_EQ(ctx.modexp(Uint2048::from_u64(3), Uint2048::from_u64(0)),
            Uint2048::from_u64(1));
}

TEST(Montgomery, MulMatchesExp) {
  const MontgomeryCtx ctx(dh_group_14().prime());
  // 2^a * 2^b == 2^(a+b)
  const auto x = ctx.modexp(Uint2048::from_u64(2), Uint2048::from_u64(100));
  const auto y = ctx.modexp(Uint2048::from_u64(2), Uint2048::from_u64(155));
  const auto prod = ctx.from_mont(ctx.mont_mul(ctx.to_mont(x), ctx.to_mont(y)));
  EXPECT_EQ(prod, ctx.modexp(Uint2048::from_u64(2), Uint2048::from_u64(255)));
}

TEST(Dh, SharedSecretAgrees) {
  const auto& group = dh_group_14();
  Rng rng(55);
  const auto a = group.sample_private_key(rng);
  const auto b = group.sample_private_key(rng);
  const auto pub_a = group.public_key(a);
  const auto pub_b = group.public_key(b);
  const auto shared_ab = group.shared_secret(a, pub_b);
  const auto shared_ba = group.shared_secret(b, pub_a);
  EXPECT_EQ(shared_ab, shared_ba);
  EXPECT_EQ(group.derive_key(shared_ab, "x"), group.derive_key(shared_ba, "x"));
  EXPECT_NE(group.derive_key(shared_ab, "x"), group.derive_key(shared_ab, "y"));
}

TEST(Dh, DistinctKeysDistinctSecrets) {
  const auto& group = dh_group_14();
  Rng rng(77);
  const auto a = group.sample_private_key(rng);
  const auto b = group.sample_private_key(rng);
  const auto c = group.sample_private_key(rng);
  const auto pub_c = group.public_key(c);
  EXPECT_NE(group.shared_secret(a, pub_c), group.shared_secret(b, pub_c));
}

}  // namespace
}  // namespace mic::crypto
