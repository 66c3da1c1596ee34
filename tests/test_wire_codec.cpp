// Fuzzers for the decoders that read bytes off the wire: the decrypted
// control-channel request (deserialize_request) and the slice header
// (parse_slice_header).  Each starts from valid encodings, then truncates
// every one at every offset, flips every bit of every one, and splices a
// prefix of one onto a suffix of another at every pair of cut points.  The
// decoder must accept exactly the byte strings the format defines, read
// off the layout independently below, and give back the value that
// encodes to those bytes; it must never crash (ASan/UBSan enforce the
// "never" part).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "core/channel.hpp"
#include "core/mic_wire.hpp"

namespace mic::core {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// The first `head` bytes of `a`, then `b` from offset `tail` on.
Bytes splice(const Bytes& a, std::size_t head, const Bytes& b,
             std::size_t tail) {
  Bytes out(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(head));
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(tail),
             b.end());
  return out;
}

/// Every mutant of `seeds`, each handed to `visit(bytes, what)` until a
/// visit returns false.
template <typename Visit>
void for_each_mutant(const std::vector<Bytes>& seeds, Visit&& visit) {
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const Bytes& seed = seeds[s];
    const std::string name = "seed " + std::to_string(s);
    for (std::size_t cut = 0; cut <= seed.size(); ++cut) {
      if (!visit(splice(seed, cut, seed, seed.size()),
                 name + " truncated to " + std::to_string(cut))) {
        return;
      }
    }
    for (std::size_t bit = 0; bit < 8 * seed.size(); ++bit) {
      Bytes flipped = seed;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      if (!visit(flipped, name + " with bit " + std::to_string(bit) +
                              " flipped")) {
        return;
      }
    }
  }
  for (std::size_t a = 0; a < seeds.size(); ++a) {
    for (std::size_t b = 0; b < seeds.size(); ++b) {
      for (std::size_t head = 0; head <= seeds[a].size(); ++head) {
        for (std::size_t tail = 0; tail <= seeds[b].size(); ++tail) {
          if (!visit(splice(seeds[a], head, seeds[b], tail),
                     "seed " + std::to_string(a) + "[0," +
                         std::to_string(head) + ") + seed " +
                         std::to_string(b) + "[" + std::to_string(tail) +
                         ",)")) {
            return;
          }
        }
      }
    }
  }
}

// --- control-channel request -------------------------------------------------

/// Whether `bytes` encodes some request, read off the layout: 14 fixed
/// bytes (two IPv4s, a port, F, N, decoys, the name length), the name, a
/// u16 port count, then exactly that many u16 ports.
bool is_request_encoding(const Bytes& bytes) {
  constexpr std::size_t kFixed = 14;
  if (bytes.size() < kFixed) return false;
  const std::size_t name_end = kFixed + bytes[kFixed - 1];
  if (bytes.size() < name_end + 2) return false;
  const std::size_t ports =
      (static_cast<std::size_t>(bytes[name_end]) << 8) | bytes[name_end + 1];
  return bytes.size() == name_end + 2 + 2 * ports;
}

EstablishRequest random_request(Rng& rng, std::size_t name_length,
                                std::size_t ports) {
  EstablishRequest request;
  request.initiator_ip = net::Ipv4{static_cast<std::uint32_t>(rng.next())};
  request.responder_ip = net::Ipv4{static_cast<std::uint32_t>(rng.next())};
  request.responder_port = static_cast<net::L4Port>(rng.next());
  request.flow_count = static_cast<int>(rng.below(256));
  request.mn_count = static_cast<int>(rng.below(256));
  request.multicast_decoys = static_cast<int>(rng.below(256));
  for (std::size_t i = 0; i < name_length; ++i) {
    request.service_name.push_back(static_cast<char>(rng.next()));
  }
  for (std::size_t i = 0; i < ports; ++i) {
    request.initiator_sports.push_back(static_cast<net::L4Port>(rng.next()));
  }
  return request;
}

TEST(WireCodecFuzz, RequestsParseExactlyTheirOneEncoding) {
  Rng rng(20261017);
  std::vector<Bytes> seeds;
  for (const auto& [name_length, ports] :
       {std::pair<std::size_t, std::size_t>{0, 0}, {0, 1}, {3, 2}, {8, 3},
        {1, 0}, {255, 1}}) {
    seeds.push_back(serialize_request(random_request(rng, name_length, ports)));
  }

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for_each_mutant(seeds, [&](const Bytes& bytes, const std::string& what) {
    const std::optional<EstablishRequest> parsed = deserialize_request(bytes);
    const bool encoding = is_request_encoding(bytes);
    EXPECT_EQ(parsed.has_value(), encoding) << what;
    // One encoding per request: what comes back re-encodes to the input.
    if (parsed) {
      EXPECT_EQ(serialize_request(*parsed), bytes) << what;
    }
    ++(parsed ? accepted : rejected);
    return !::testing::Test::HasFailure();
  });
  // Both verdicts must be exercised, many times over.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// --- slice header ------------------------------------------------------------

/// Whether `bytes` is a header a MIC endpoint writes, read off the layout:
/// 16 bytes, the magic in the last two, and a length of at most
/// kMaxSliceBytes in bytes 8..11.
bool is_slice_header(const Bytes& bytes) {
  return bytes.size() == kSliceHeaderBytes &&
         bytes[14] == static_cast<std::uint8_t>(kSliceMagic >> 8) &&
         bytes[15] == static_cast<std::uint8_t>(kSliceMagic) &&
         load_be32(bytes.data() + 8) <= kMaxSliceBytes;
}

TEST(WireCodecFuzz, SliceHeadersParseExactlyWhenMagicAndLengthHold) {
  Rng rng(20261018);
  std::vector<Bytes> seeds;
  // In range, at both ends of the range, one past it, and far past it.
  for (const std::uint32_t length :
       {0u, 1u, 4096u, kMaxSliceBytes, kMaxSliceBytes + 1, 0xffff'ffffu}) {
    SliceHeader header;
    header.channel = static_cast<std::uint32_t>(rng.next());
    header.seq = static_cast<std::uint32_t>(rng.next());
    header.length = length;
    header.flow = static_cast<std::uint16_t>(rng.next());
    seeds.push_back(serialize_slice_header(header));
  }

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for_each_mutant(seeds, [&](const Bytes& bytes, const std::string& what) {
    const std::optional<SliceHeader> parsed = parse_slice_header(bytes);
    EXPECT_EQ(parsed.has_value(), is_slice_header(bytes)) << what;
    if (parsed) {
      EXPECT_EQ(serialize_slice_header(*parsed), bytes) << what;
    }
    ++(parsed ? accepted : rejected);
    return !::testing::Test::HasFailure();
  });
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace mic::core
