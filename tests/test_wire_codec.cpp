// Fuzzers for the decoders that read bytes off the wire: the decrypted
// control-channel request (deserialize_request) and the header screen of
// each protocol's transport::FrameReader: the slice header
// (parse_slice_header), the Tor cell header (tor::parse_cell_header) and
// the SSL record header (SslSession::expects).  Each starts from valid
// encodings, then truncates every one at every offset, flips every bit of
// every one, and splices a prefix of one onto a suffix of another at every
// pair of cut points.  The decoder must accept exactly the byte strings
// the format defines, read off the layout independently below; a header
// decoder gives back the value that encodes to those bytes, and the SSL
// screen the body the header announces.  It must never crash (ASan/UBSan
// enforce the "never" part).
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
#include "core/fabric.hpp"
#include "core/mic_wire.hpp"
#include "tor/cells.hpp"
#include "transport/ssl.hpp"

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

// --- Tor cell header -----------------------------------------------------------

/// Whether `bytes` is a cell header a Tor endpoint writes, read off the
/// layout: 7 bytes, a command from 1 (CREATE) to 4 (RELAY_VIRTUAL) in byte
/// 4, and for command 4 a length of at most kRelayDataBytes in bytes 5..6.
bool is_cell_header(const Bytes& bytes) {
  if (bytes.size() != tor::kCellHeaderBytes || bytes[4] < 1 || bytes[4] > 4) {
    return false;
  }
  const auto length = static_cast<std::uint32_t>((bytes[5] << 8) | bytes[6]);
  return bytes[4] != 4 || length <= tor::kRelayDataBytes;
}

TEST(WireCodecFuzz, CellHeadersParseExactlyWhenCommandAndLengthHold) {
  Rng rng(20261019);
  std::vector<Bytes> seeds;
  // Every command, and RELAY_VIRTUAL at both ends of its length range, one
  // past it and far past it.
  using tor::CellCmd;
  for (const auto& [cmd, length] :
       {std::pair<CellCmd, std::uint16_t>{CellCmd::kCreate, 0},
        {CellCmd::kCreated, 0}, {CellCmd::kRelay, 0},
        {CellCmd::kRelayVirtual, 0},
        {CellCmd::kRelayVirtual, tor::kRelayDataBytes},
        {CellCmd::kRelayVirtual, tor::kRelayDataBytes + 1},
        {CellCmd::kRelayVirtual, 0xffff}}) {
    seeds.push_back(tor::serialize_cell_header(
        {static_cast<std::uint32_t>(rng.next()), cmd, length}));
  }

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for_each_mutant(seeds, [&](const Bytes& bytes, const std::string& what) {
    const std::optional<tor::CellHeader> parsed = tor::parse_cell_header(bytes);
    EXPECT_EQ(parsed.has_value(), is_cell_header(bytes)) << what;
    if (parsed) {
      EXPECT_EQ(tor::serialize_cell_header(*parsed), bytes) << what;
    }
    ++(parsed ? accepted : rejected);
    return !::testing::Test::HasFailure();
  });
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

// --- SSL record header ---------------------------------------------------------

/// Whether `bytes` is a record header a session accepts next, read off the
/// layout: 5 bytes, the type in byte 0 and the length in bytes 1..4.  A
/// fresh server takes only a ClientHello (type 1) of 32 bytes; an
/// established session only data (types 5 and 6) of at most kMaxRecord.
bool is_record_header(const Bytes& bytes, bool established) {
  using transport::SslSession;
  if (bytes.size() != SslSession::kHeaderBytes) return false;
  const std::uint32_t length = load_be32(bytes.data() + 1);
  if (!established) return bytes[0] == 1 && length == 32;
  return (bytes[0] == 5 || bytes[0] == 6) && length <= SslSession::kMaxRecord;
}

/// A stream that carries nothing: a session on it stays fresh.
struct SilentStream : transport::ByteStream {
  void send(transport::Chunk) override {}
  void close() override {}
  bool ready() const override { return false; }
};

TEST(WireCodecFuzz, RecordHeadersPassExactlyWhatTheSessionExpects) {
  using transport::SslSession;
  Fabric fabric;
  Rng rng(20261020);
  SilentStream silent;
  SslSession fresh(silent, SslSession::Role::kServer, fabric.host(15), rng);
  std::unique_ptr<SslSession> established;
  fabric.host(15).listen(5000, [&](transport::TcpConnection& conn) {
    established = std::make_unique<SslSession>(conn, SslSession::Role::kServer,
                                               fabric.host(15), rng);
  });
  SslSession client(fabric.host(0).connect(fabric.ip(15), 5000),
                    SslSession::Role::kClient, fabric.host(0), rng);
  fabric.simulator().run_until();
  ASSERT_TRUE(established != nullptr && established->ready());

  std::vector<Bytes> seeds;
  // Every handshake message at its size, data at both ends of its length
  // range and one past it, and an unknown type.
  for (const auto& [type, length] :
       {std::pair<std::uint8_t, std::uint32_t>{1, 32}, {2, 32 + 256},
        {3, 256 + 32}, {4, 32}, {5, 0}, {5, SslSession::kMaxRecord},
        {6, SslSession::kMaxRecord + 1}, {6, 1000}, {7, 32}}) {
    Bytes bytes(SslSession::kHeaderBytes);
    bytes[0] = type;
    store_be32(bytes.data() + 1, length);
    seeds.push_back(bytes);
  }

  std::size_t fresh_accepted = 0;
  std::size_t established_accepted = 0;
  std::size_t rejected = 0;
  for_each_mutant(seeds, [&](const Bytes& bytes, const std::string& what) {
    const std::uint32_t length =
        bytes.size() == SslSession::kHeaderBytes ? load_be32(bytes.data() + 1)
                                                 : 0;
    const auto hello = fresh.expects(bytes);
    EXPECT_EQ(hello.has_value(), is_record_header(bytes, false)) << what;
    if (hello) {
      EXPECT_EQ(hello->body_bytes, length) << what;
      EXPECT_EQ(hello->kind, transport::BodyKind::kReal) << what;
    }
    const auto data = established->expects(bytes);
    EXPECT_EQ(data.has_value(), is_record_header(bytes, true)) << what;
    if (data) {
      // A data body carries its MAC; a virtual one is only counted.
      EXPECT_EQ(data->body_bytes, length + SslSession::kMacBytes) << what;
      EXPECT_EQ(data->kind, bytes[0] == 6 ? transport::BodyKind::kCounted
                                          : transport::BodyKind::kReal)
          << what;
    }
    fresh_accepted += hello.has_value();
    established_accepted += data.has_value();
    rejected += !hello && !data;
    return !::testing::Test::HasFailure();
  });
  EXPECT_GT(fresh_accepted, 0u);
  EXPECT_GT(established_accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace mic::core
