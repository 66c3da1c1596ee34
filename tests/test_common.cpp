// Unit tests for the common substrate: deterministic RNG and bit helpers.
#include <gtest/gtest.h>

#include <set>

#include "common/bits.hpp"
#include "common/rng.hpp"

namespace mic {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(17);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kSamples, 5.0, 0.2);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(21);
  Rng child = parent.fork();
  // The child does not replay the parent.
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += parent.next() == child.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, CappedBackoffDoublesToTheCapPlusOneJitterDraw) {
  constexpr std::uint64_t kBase = 500;
  constexpr std::uint64_t kCap = 8000;
  Rng rng(23);
  Rng twin(23);  // draws in parallel: one below(base) per backoff
  const std::uint64_t doubling[] = {500, 1000, 2000, 4000, 8000, 8000};
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const std::uint64_t want = doubling[attempt - 1] + twin.below(kBase);
    EXPECT_EQ(capped_backoff(kBase, kCap, attempt, rng), want) << attempt;
  }
  // The doubling stops after 20 steps, so a huge attempt cannot shift the
  // base out of range.
  EXPECT_EQ(capped_backoff(1, ~0ULL, 1000, rng), (1ULL << 20) + twin.below(1));
  EXPECT_EQ(rng.next(), twin.next());  // exactly one draw per call
}

TEST(Bits, RotlRotrInverse) {
  for (unsigned r = 0; r < 32; ++r) {
    const std::uint32_t v = 0xdeadbeef;
    EXPECT_EQ(rotr(rotl(v, r), r), v);
  }
  for (unsigned r = 0; r < 16; ++r) {
    const std::uint16_t v = 0xbeef;
    EXPECT_EQ(rotr(rotl(v, r), r), v);
  }
  for (unsigned r = 0; r < 8; ++r) {
    const std::uint8_t v = 0xa5;
    EXPECT_EQ(rotr(rotl(v, r), r), v);
  }
}

TEST(Bits, FoldHalves) {
  EXPECT_EQ(fold16(0x12345678u), 0x1234u ^ 0x5678u);
  EXPECT_EQ(fold8(std::uint16_t{0xabcd}), 0xabu ^ 0xcdu);
}

TEST(Bits, LoadStoreRoundTrip) {
  std::uint8_t buf[8];
  store_le32(buf, 0x01020304u);
  EXPECT_EQ(load_le32(buf), 0x01020304u);
  EXPECT_EQ(buf[0], 0x04);
  store_be32(buf, 0x01020304u);
  EXPECT_EQ(load_be32(buf), 0x01020304u);
  EXPECT_EQ(buf[0], 0x01);
  store_le64(buf, 0x0102030405060708ull);
  EXPECT_EQ(load_le64(buf), 0x0102030405060708ull);
  store_be64(buf, 0x0102030405060708ull);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0x08);
}

TEST(Bits, Splitmix64KnownSequence) {
  // Reference values from the splitmix64 reference implementation with
  // seed 0.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(state), 0x06c45d188009454fULL);
}

}  // namespace
}  // namespace mic
