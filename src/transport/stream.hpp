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
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
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
    if (on_ready_ && !silenced_) on_ready_();
  }
  void notify_data(const ChunkView& view) {
    if (on_data_ && !silenced_) on_data_(view);
  }
  void notify_closed() {
    if (on_closed_ && !silenced_) on_closed_();
  }
  /// No handler fires from now on.  Safe from inside a handler: the
  /// handlers are destroyed only with the stream.
  void silence() noexcept { silenced_ = true; }
  bool silenced() const noexcept { return silenced_; }

 private:
  ReadyHandler on_ready_;
  DataHandler on_data_;
  ClosedHandler on_closed_;
  bool silenced_ = false;
};

/// How a frame's body may arrive, as its header announces it.
enum class BodyKind : std::uint8_t {
  kReal,     // every byte real: a virtual one fails the reader
  kZeroed,   // either kind, virtual bytes read as zeros; comes back empty
             // when no byte of it was real
  kCounted,  // either kind, only counted: comes back empty
};

/// What a screened header announces: the protocol's fields, then the length
/// and kind of the body that follows them.
template <typename Header>
struct FrameSpec {
  Header header;
  std::uint64_t body_bytes = 0;
  BodyKind kind = BodyKind::kReal;
};

/// Reads one protocol's frames off a ByteStream: a header of kHeaderBytes
/// real bytes, then the body that header announces.  No byte a peer sends
/// can abort it, and it holds at most one header and one body, whose length
/// the protocol's screen bounds.  It fails for good, dropping what it holds
/// and ignoring everything fed after, on header bytes that are virtual or
/// that the screen refuses, on a virtual byte in a kReal body, and on a
/// frame the protocol rejects.
template <typename Header, std::size_t kHeaderBytes>
class FrameReader {
 public:
  /// Feed stream data.  Once a header's last byte is in,
  /// `screen(std::span<const std::uint8_t>)` returns the
  /// std::optional<FrameSpec<Header>> it announces, nullopt for a header
  /// the protocol never writes.  Once the body's last byte is in,
  /// `on_frame(header, body)` gets the body's bytes (empty where BodyKind
  /// says so) and returns false to reject the frame.
  template <typename Screen, typename OnFrame>
  void feed(const ChunkView& view, Screen&& screen, OnFrame&& on_frame) {
    const bool real = view.is_real();
    std::uint64_t at = 0;
    while (!failed_ && at < view.length) {
      if (!spec_) {
        if (!real) return fail();
        const auto take = static_cast<std::size_t>(std::min<std::uint64_t>(
            kHeaderBytes - header_fill_, view.length - at));
        std::copy_n(view.bytes.begin() + static_cast<long>(at), take,
                    header_.begin() + static_cast<long>(header_fill_));
        header_fill_ += take;
        at += take;
        if (header_fill_ < kHeaderBytes) return;
        header_fill_ = 0;
        spec_ = screen(std::span<const std::uint8_t>(header_));
        if (!spec_) return fail();
      }
      const std::uint64_t take =
          std::min(spec_->body_bytes - body_fill_, view.length - at);
      if (take > 0 && !real && spec_->kind == BodyKind::kReal) return fail();
      if (take > 0 && real && spec_->kind != BodyKind::kCounted) {
        if (body_.empty()) body_.assign(spec_->body_bytes, 0);
        std::copy_n(view.bytes.begin() + static_cast<long>(at), take,
                    body_.begin() + static_cast<long>(body_fill_));
      }
      body_fill_ += take;
      at += take;
      if (body_fill_ < spec_->body_bytes) return;
      body_fill_ = 0;
      const Header header = std::exchange(spec_, std::nullopt)->header;
      if (!on_frame(header, std::exchange(body_, {}))) return fail();
    }
  }

  bool failed() const noexcept { return failed_; }

 private:
  void fail() {
    failed_ = true;
    spec_.reset();
    body_ = {};
  }

  std::array<std::uint8_t, kHeaderBytes> header_{};
  std::size_t header_fill_ = 0;
  std::optional<FrameSpec<Header>> spec_;  // screened, body incomplete
  std::vector<std::uint8_t> body_;
  std::uint64_t body_fill_ = 0;
  bool failed_ = false;
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
