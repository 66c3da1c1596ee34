// Packet trace taps: a writer that streams one TSV line per
// packet-on-a-link, and a rolling fingerprint of the same observations.
// The file format is deliberately trivial (tab-separated, one header line)
// so traces can be grepped, diffed across seeds (determinism!), or pulled
// into any tooling:
//
//   time_ns link from to src dst sport dport mpls seq ack flags bytes
//   payload tag
//
// `flags` packs the TCP flag bits as syn<<3 | ack<<2 | fin<<1 | rst -- the
// same encoding TraceHash folds, so a written trace carries every field
// the fingerprint covers.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "net/network.hpp"

namespace mic::net {

/// Streams every packet on every link to a TSV file.  RAII: the file is
/// flushed and closed on destruction.  Attach exactly once per network.
class TraceWriter {
 public:
  TraceWriter(Network& network, const std::string& path);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  std::uint64_t entries_written() const noexcept { return entries_; }

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t entries_ = 0;
};

/// Rolling FNV-1a fingerprint of every packet observed on every link, in
/// event order: header fields the MIC data plane rewrites, the transport
/// metadata, the payload tag, and the observation timestamp all fold in.
/// Two runs produce the same value iff they put byte-identical wire
/// traffic on the fabric in the identical order at the identical times --
/// the executable form of SIM-1's "identical seeds => identical event
/// traces".  Attach once per network, before any traffic of interest.
class TraceHash {
 public:
  explicit TraceHash(Network& network);

  TraceHash(const TraceHash&) = delete;
  TraceHash& operator=(const TraceHash&) = delete;

  std::uint64_t value() const noexcept { return state_->hash; }
  std::uint64_t packets() const noexcept { return state_->packets; }

 private:
  // The network outlives the tap std::function it stores; shared state
  // keeps the tap valid even if the TraceHash object itself is destroyed
  // first (taps cannot be detached).
  struct State {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::uint64_t packets = 0;
  };
  std::shared_ptr<State> state_;
};

}  // namespace mic::net
