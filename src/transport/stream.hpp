// Byte-stream building blocks shared by TCP, SSL, MIC slicing and the Tor
// baseline.
//
// Streams carry two kinds of bytes:
//  - *real* bytes (control messages, handshakes, slice headers) that are
//    actually materialized so cryptographic code paths run end to end, and
//  - *virtual* bytes (bulk payload) that are accounted by length and tagged
//    with a content fingerprint but never allocated, so multi-gigabyte
//    transfers stay cheap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace mic::transport {

/// A run of bytes to transmit.  `data == nullptr` means virtual bytes.
struct Chunk {
  std::shared_ptr<const std::vector<std::uint8_t>> data;
  std::uint64_t length = 0;

  static Chunk real(std::vector<std::uint8_t> bytes) {
    Chunk c;
    c.length = bytes.size();
    c.data = std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
    return c;
  }
  /// Like real() for bytes that are not already owned in a vector.
  static Chunk copy(std::span<const std::uint8_t> bytes) {
    Chunk c;
    c.length = bytes.size();
    c.data = std::make_shared<const std::vector<std::uint8_t>>(bytes.begin(),
                                                               bytes.end());
    return c;
  }
  static Chunk virtual_bytes(std::uint64_t n) {
    Chunk c;
    c.length = n;
    return c;
  }
  bool is_real() const noexcept { return data != nullptr; }
};

/// Extract [offset, offset+len) of a chunk as a new chunk.
inline Chunk sub_chunk(const Chunk& chunk, std::uint64_t offset,
                       std::uint64_t len) {
  MIC_ASSERT(offset + len <= chunk.length);
  if (!chunk.is_real()) return Chunk::virtual_bytes(len);
  return Chunk::copy(
      std::span(chunk.data->data() + offset, static_cast<std::size_t>(len)));
}

/// A view of received in-order bytes.  `bytes` is empty for virtual data.
struct ChunkView {
  std::uint64_t length = 0;
  std::span<const std::uint8_t> bytes;  // empty when virtual

  bool is_real() const noexcept { return !bytes.empty() || length == 0; }
};

/// Abstract reliable duplex in-order byte stream.  Implemented by
/// TcpConnection, layered by SslSession, consumed by the MIC slicing layer
/// and the Tor baseline.
class ByteStream {
 public:
  using ReadyHandler = std::function<void()>;
  using DataHandler = std::function<void(const ChunkView&)>;
  using ClosedHandler = std::function<void()>;

  virtual ~ByteStream() = default;

  virtual void send(Chunk chunk) = 0;
  virtual void close() = 0;
  virtual bool ready() const = 0;

  void set_on_ready(ReadyHandler h) { on_ready_ = std::move(h); }
  void set_on_data(DataHandler h) { on_data_ = std::move(h); }
  void set_on_closed(ClosedHandler h) { on_closed_ = std::move(h); }

 protected:
  void notify_ready() {
    if (on_ready_) on_ready_();
  }
  void notify_data(const ChunkView& view) {
    if (on_data_) on_data_(view);
  }
  void notify_closed() {
    if (on_closed_) on_closed_();
  }

 private:
  ReadyHandler on_ready_;
  DataHandler on_data_;
  ClosedHandler on_closed_;
};

/// Reassembly helper for protocol parsers sitting on a ByteStream: buffers
/// incoming chunks and supports "read exactly n real bytes" (for headers)
/// and "consume n bytes of any kind" (for payloads).
class ByteReader {
 public:
  void append(const ChunkView& view) {
    if (view.length == 0) return;
    if (view.is_real() && view.length > 0 && !view.bytes.empty()) {
      pending_.push_back({std::vector<std::uint8_t>(view.bytes.begin(),
                                                    view.bytes.end()),
                          view.length});
    } else {
      pending_.push_back({{}, view.length});
    }
    available_ += view.length;
  }

  std::uint64_t available() const noexcept { return available_; }

  /// Read exactly n bytes that must all be real (protocol headers).
  /// Returns nullopt if fewer than n bytes are buffered; asserts if the
  /// buffered bytes are virtual (a framing bug).
  std::optional<std::vector<std::uint8_t>> read_real(std::uint64_t n) {
    if (available_ < n) return std::nullopt;
    std::vector<std::uint8_t> out;
    out.reserve(n);
    while (out.size() < n) {
      auto& front = pending_.front();
      MIC_ASSERT_MSG(!front.bytes.empty(),
                     "parser expected real bytes but found virtual payload");
      const std::uint64_t take =
          std::min<std::uint64_t>(n - out.size(), front.length);
      out.insert(out.end(), front.bytes.begin(),
                 front.bytes.begin() + static_cast<long>(take));
      consume_front(take);
    }
    available_ -= n;
    return out;
  }

  /// Whether the first n buffered bytes are all real.  Requires
  /// available() >= n.
  bool real_prefix(std::uint64_t n) const noexcept {
    for (auto it = pending_.begin(); n > 0; ++it) {
      if (it->bytes.empty()) return false;
      n -= std::min(n, it->length);
    }
    return true;
  }

  /// Consume up to n bytes of a single kind from the front of the buffer.
  /// Returns the consumed run as a Chunk (possibly shorter than n).
  Chunk take_up_to(std::uint64_t n) {
    MIC_ASSERT(available_ > 0 && n > 0);
    auto& front = pending_.front();
    const std::uint64_t take = std::min(n, front.length);
    Chunk out;
    if (!front.bytes.empty()) {
      out = Chunk::copy(
          std::span(front.bytes.data(), static_cast<std::size_t>(take)));
    } else {
      out = Chunk::virtual_bytes(take);
    }
    consume_front(take);
    available_ -= take;
    return out;
  }

  /// Consume n bytes of any kind (payload body).  Returns how many of them
  /// were real.  Asserts if fewer than n are buffered.
  std::uint64_t skip(std::uint64_t n) {
    MIC_ASSERT(available_ >= n);
    std::uint64_t real = 0;
    std::uint64_t left = n;
    while (left > 0) {
      auto& front = pending_.front();
      const std::uint64_t take = std::min(left, front.length);
      if (!front.bytes.empty()) real += take;
      consume_front(take);
      left -= take;
    }
    available_ -= n;
    return real;
  }

 private:
  struct Buffered {
    std::vector<std::uint8_t> bytes;  // empty when virtual
    std::uint64_t length;
  };

  void consume_front(std::uint64_t n) {
    auto& front = pending_.front();
    MIC_ASSERT(front.length >= n);
    if (!front.bytes.empty()) {
      front.bytes.erase(front.bytes.begin(),
                        front.bytes.begin() + static_cast<long>(n));
    }
    front.length -= n;
    if (front.length == 0) pending_.pop_front();
  }

  std::deque<Buffered> pending_;
  std::uint64_t available_ = 0;
};

/// Outbound stream buffer with real/virtual chunks addressed by stream
/// offset; used by TCP for (re)segmentation and retransmission.
class SendBuffer {
 public:
  void append(Chunk chunk) {
    if (chunk.length == 0) return;
    chunks_.push_back({end_, std::move(chunk)});
    end_ += chunks_.back().chunk.length;
  }

  std::uint64_t end_offset() const noexcept { return end_; }
  std::uint64_t base_offset() const noexcept { return base_; }

  /// Extract [offset, offset+len) for (re)transmission; TCP never asks
  /// for an empty range.  Mixed ranges are materialized with zeros
  /// standing in for virtual bytes.
  Chunk range(std::uint64_t offset, std::uint64_t len) const {
    MIC_ASSERT(offset >= base_ && offset + len <= end_);
    // The chunks abut in offset order, so the one holding `offset` is the
    // last that starts at or before it.
    auto first = std::ranges::upper_bound(chunks_, offset, {}, &Entry::offset);
    if (first != chunks_.begin()) --first;
    // Fast path: the range falls inside that chunk.
    if (first != chunks_.end() &&
        offset + len <= first->offset + first->chunk.length) {
      if (!first->chunk.is_real()) return Chunk::virtual_bytes(len);
      const auto& bytes = *first->chunk.data;
      const std::uint64_t local = offset - first->offset;
      return Chunk::copy(
          std::span(bytes.data() + local, static_cast<std::size_t>(len)));
    }
    // Slow path: stitch across the chunks the range covers.
    std::vector<std::uint8_t> out(len, 0);
    bool any_real = false;
    for (auto it = first; it != chunks_.end() && it->offset < offset + len;
         ++it) {
      const auto& entry = *it;
      const std::uint64_t lo = std::max(offset, entry.offset);
      const std::uint64_t hi =
          std::min(offset + len, entry.offset + entry.chunk.length);
      if (entry.chunk.is_real()) {
        any_real = true;
        const auto& bytes = *entry.chunk.data;
        for (std::uint64_t i = lo; i < hi; ++i) {
          out[i - offset] = bytes[i - entry.offset];
        }
      }
    }
    return any_real ? Chunk::real(std::move(out)) : Chunk::virtual_bytes(len);
  }

  /// Drop data below `offset` (cumulatively acknowledged).
  void release_until(std::uint64_t offset) {
    while (!chunks_.empty()) {
      auto& front = chunks_.front();
      if (front.offset + front.chunk.length <= offset) {
        base_ = front.offset + front.chunk.length;
        chunks_.pop_front();
      } else {
        break;
      }
    }
  }

 private:
  struct Entry {
    std::uint64_t offset;
    Chunk chunk;
  };
  std::deque<Entry> chunks_;
  std::uint64_t base_ = 0;
  std::uint64_t end_ = 0;
};

}  // namespace mic::transport
