// The MIC slice wire format (the multiple-m-flows mechanism, Sec IV-C).
//
// "The initiator divides the user data into slices, and each m-flow carries
// different amount of slices."  Each slice is a 16-byte header plus payload;
// slices carry a channel-level sequence number so the receiver can restore
// order across m-flows that raced each other through different paths.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "transport/stream.hpp"

namespace mic::core {

inline constexpr std::uint16_t kSliceMagic = 0x4D43;  // "MC"
inline constexpr std::uint32_t kSliceHeaderBytes = 16;
/// MicChannel and MicServer cut application data into slices of a uniform
/// random size in [kMinCutSliceBytes, kMaxCutSliceBytes].
inline constexpr std::uint32_t kMinCutSliceBytes = 8 * 1024;
inline constexpr std::uint32_t kMaxCutSliceBytes = 32 * 1024;
/// Largest slice payload a receiver accepts: twice the largest slice an
/// endpoint cuts.
inline constexpr std::uint32_t kMaxSliceBytes = 2 * kMaxCutSliceBytes;

struct SliceHeader {
  std::uint32_t channel = 0;
  std::uint32_t seq = 0;
  std::uint32_t length = 0;
  std::uint16_t flow = 0;
  std::uint16_t magic = kSliceMagic;
};

inline void write_slice_header(std::uint8_t* out, const SliceHeader& header) {
  store_be32(out, header.channel);
  store_be32(out + 4, header.seq);
  store_be32(out + 8, header.length);
  out[12] = static_cast<std::uint8_t>(header.flow >> 8);
  out[13] = static_cast<std::uint8_t>(header.flow);
  out[14] = static_cast<std::uint8_t>(header.magic >> 8);
  out[15] = static_cast<std::uint8_t>(header.magic);
}

inline std::vector<std::uint8_t> serialize_slice_header(
    const SliceHeader& header) {
  std::vector<std::uint8_t> out(kSliceHeaderBytes);
  write_slice_header(out.data(), header);
  return out;
}

/// The header as a chunk, serialized through a stack scratch.
inline transport::Chunk slice_header_chunk(const SliceHeader& header) {
  std::array<std::uint8_t, kSliceHeaderBytes> scratch;
  write_slice_header(scratch.data(), header);
  return transport::Chunk::copy(scratch);
}

/// Cut `chunk` into slices of a uniform random size in
/// [kMinCutSliceBytes, kMaxCutSliceBytes] and stripe them over `flows`
/// m-flows, each to a uniformly drawn flow: `send(header, payload)` per
/// slice, with `next_seq` numbering them.  Each slice draws its size before
/// its flow.
template <typename Send>
void stripe_slices(const transport::Chunk& chunk, std::uint32_t channel,
                   std::size_t flows, std::uint32_t& next_seq, Rng& rng,
                   Send&& send) {
  std::uint64_t offset = 0;
  while (offset < chunk.length) {
    const std::uint64_t slice_len = std::min<std::uint64_t>(
        chunk.length - offset,
        rng.range(kMinCutSliceBytes, kMaxCutSliceBytes));
    SliceHeader header;
    header.channel = channel;
    header.seq = next_seq++;
    header.length = static_cast<std::uint32_t>(slice_len);
    header.flow = static_cast<std::uint16_t>(rng.below(flows));
    send(header, transport::sub_chunk(chunk, offset, slice_len));
    offset += slice_len;
  }
}

/// nullopt for bytes no MIC endpoint writes as a header: not exactly
/// kSliceHeaderBytes long, a wrong magic, or a length above kMaxSliceBytes.
inline std::optional<SliceHeader> parse_slice_header(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kSliceHeaderBytes) return std::nullopt;
  SliceHeader header;
  header.channel = load_be32(bytes.data());
  header.seq = load_be32(bytes.data() + 4);
  header.length = load_be32(bytes.data() + 8);
  header.flow = static_cast<std::uint16_t>((bytes[12] << 8) | bytes[13]);
  header.magic = static_cast<std::uint16_t>((bytes[14] << 8) | bytes[15]);
  if (header.magic != kSliceMagic || header.length > kMaxSliceBytes) {
    return std::nullopt;
  }
  return header;
}

/// Reads the slices of one m-flow connection.
class SliceParser {
 public:
  /// Feed stream data; `on_slice(header, payload)` fires per whole slice,
  /// the payload virtual unless some byte of it was real.  A header
  /// parse_slice_header refuses, or header bytes the stream holds as
  /// virtual, fail the parser for good (see transport::FrameReader).
  template <typename OnSlice>
  void feed(const transport::ChunkView& view, OnSlice&& on_slice) {
    reader_.feed(
        view,
        [](std::span<const std::uint8_t> bytes)
            -> std::optional<transport::FrameSpec<SliceHeader>> {
          const std::optional<SliceHeader> header = parse_slice_header(bytes);
          if (!header) return std::nullopt;
          return {{*header, header->length, transport::BodyKind::kZeroed}};
        },
        [&on_slice](const SliceHeader& header,
                    std::vector<std::uint8_t> body) {
          on_slice(header,
                   body.empty()
                       ? transport::Chunk::virtual_bytes(header.length)
                       : transport::Chunk::real(std::move(body)));
          return true;
        });
  }

  bool failed() const noexcept { return reader_.failed(); }

 private:
  transport::FrameReader<SliceHeader, kSliceHeaderBytes> reader_;
};

/// Restores channel order across m-flows: slices are delivered strictly by
/// sequence number.
class SliceReorderer {
 public:
  /// Returns slices that became deliverable, in order.
  template <typename Deliver>
  void push(std::uint32_t seq, transport::Chunk payload, Deliver&& deliver) {
    if (seq < next_seq_) return;  // duplicate (should not happen over TCP)
    pending_.emplace(seq, std::move(payload));
    while (!pending_.empty() && pending_.begin()->first == next_seq_) {
      transport::Chunk chunk = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_seq_;
      if (chunk.length > 0) deliver(std::move(chunk));
    }
  }

  std::size_t buffered() const noexcept { return pending_.size(); }

 private:
  std::uint32_t next_seq_ = 0;
  std::map<std::uint32_t, transport::Chunk> pending_;
};

}  // namespace mic::core
