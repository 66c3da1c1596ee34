// The MIC slice wire format (the multiple-m-flows mechanism, Sec IV-C).
//
// "The initiator divides the user data into slices, and each m-flow carries
// different amount of slices."  Each slice is a 16-byte header plus payload;
// slices carry a channel-level sequence number so the receiver can restore
// order across m-flows that raced each other through different paths.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>

#include "common/assert.hpp"
#include "common/bits.hpp"
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

/// nullopt for a header no MIC endpoint writes: a wrong magic, or a length
/// above kMaxSliceBytes.
inline std::optional<SliceHeader> parse_slice_header(
    const std::vector<std::uint8_t>& bytes) {
  MIC_ASSERT(bytes.size() == kSliceHeaderBytes);
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

/// Incremental slice parser for one m-flow connection.
class SliceParser {
 public:
  /// Feed stream data; `on_slice(header, payload)` fires per whole slice.
  /// A malformed header (see parse_slice_header), or header bytes the
  /// stream holds as virtual, fails the parser for good: it drops what it
  /// buffered and everything fed after.
  template <typename OnSlice>
  void feed(const transport::ChunkView& view, OnSlice&& on_slice) {
    if (failed_) return;
    reader_.append(view);
    for (;;) {
      if (!have_header_) {
        if (reader_.available() < kSliceHeaderBytes) return;
        std::optional<SliceHeader> header;
        if (reader_.real_prefix(kSliceHeaderBytes)) {
          header = parse_slice_header(*reader_.read_real(kSliceHeaderBytes));
        }
        if (!header) {
          failed_ = true;
          reader_ = {};
          return;
        }
        header_ = *header;
        have_header_ = true;
        consumed_ = 0;
        real_bytes_.clear();
        any_real_ = false;
      }
      while (consumed_ < header_.length && reader_.available() > 0) {
        transport::Chunk piece =
            reader_.take_up_to(header_.length - consumed_);
        if (piece.is_real()) {
          if (!any_real_) {
            any_real_ = true;
            real_bytes_.assign(header_.length, 0);
          }
          std::copy(piece.data->begin(), piece.data->end(),
                    real_bytes_.begin() + static_cast<long>(consumed_));
        }
        consumed_ += piece.length;
      }
      if (consumed_ < header_.length) return;

      transport::Chunk payload =
          any_real_ ? transport::Chunk::real(std::move(real_bytes_))
                    : transport::Chunk::virtual_bytes(header_.length);
      real_bytes_ = {};
      have_header_ = false;
      on_slice(header_, std::move(payload));
    }
  }

  bool failed() const noexcept { return failed_; }

 private:
  transport::ByteReader reader_;
  bool failed_ = false;
  bool have_header_ = false;
  SliceHeader header_{};
  std::uint64_t consumed_ = 0;
  std::vector<std::uint8_t> real_bytes_;
  bool any_real_ = false;
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
