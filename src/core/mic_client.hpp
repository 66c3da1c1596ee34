// MIC user-end library: "MIC employs typical C/S model, providing socket
// like programming APIs, and thus a programmer can use MIC for anonymous
// communication easily" (paper Sec VI).
//
// MicChannel is the initiator side: it asks the MC (over the encrypted
// control channel) to establish a mimic channel with F m-flows and N MNs,
// opens one TCP (or SSL, for MIC-SSL) connection per m-flow to the entry
// addresses it gets back, and stripes application data across the flows in
// randomly sized slices.  MicServer is the responder side: it accepts the
// m-flow connections (seeing only presented m-addresses, never the
// initiator), regroups them into channels and reassembles the byte stream.
#pragma once

#include <memory>
#include <unordered_map>

#include "core/mic_wire.hpp"
#include "core/mimic_controller.hpp"
#include "transport/ssl.hpp"
#include "transport/tcp.hpp"

namespace mic::core {

struct MicChannelOptions {
  /// Hidden-service nickname, or explicit responder address.
  std::string service_name;
  net::Ipv4 responder_ip{0};
  net::L4Port responder_port = 0;

  int flow_count = 1;       // F
  int mn_count = 3;         // N (privacy level; paper default 3)
  int multicast_decoys = 0; // partial multicast replicas at the first MN
  bool use_ssl = false;     // MIC-SSL: SSL inside each m-flow

  // --- failure handling ------------------------------------------------------
  /// When the MC reports the channel lost (unrepairable failure, idle
  /// reclamation), automatically request a fresh establishment instead of
  /// failing: new m-flow connections, new entry addresses, same responder.
  /// Buffered data survives; in-flight slices on the dead flows do not.
  /// Attempts back off exponentially and stop after a fixed limit.
  bool auto_reestablish = false;

  // --- controller-silence survival -------------------------------------------
  /// Detect a silent MC (crashed, not merely slow): if the establishment
  /// acknowledgement has not arrived within `control_timeout`, the request
  /// is retried under the same capped jittered backoff as re-establishment,
  /// up to `control_retry_limit` consecutive silences.  Sends queue while
  /// unestablished and flush once the MC answers.  0 disables detection
  /// (the default, so existing workloads stay event-for-event identical).
  sim::SimTime control_timeout = 0;
  int control_retry_limit = 8;
  /// Budget for Busy{retry_after} shed replies: each one is retried after
  /// the server-provided interval (plus jitter), up to this many times
  /// before the channel gives up.  Distinct from the silence budget above:
  /// a busy MC is alive and asking for patience, not crashed.
  int shed_retry_limit = 16;
  /// Opt-in liveness heartbeat: every `heartbeat_interval` the client
  /// probes the MC for this channel, re-registering its event listener on
  /// the way (an MC restart wipes subscriptions; kept channels would
  /// otherwise never hear kLost again).  A silent probe counts a
  /// controller silence and re-probes; a "not alive" reply follows the
  /// normal channel-lost path.  0 = off (the default -- a perpetual
  /// heartbeat keeps the simulator from ever going quiescent).
  sim::SimTime heartbeat_interval = 0;
};

class MicChannel : public transport::ByteStream {
 public:
  /// Starts establishment immediately; the stream becomes ready() once the
  /// MC acknowledged and all F m-flow connections are up.
  MicChannel(transport::Host& host, MimicController& mc,
             MicChannelOptions options, Rng& rng);
  /// Directory-resolved variant: every control interaction (establish,
  /// probe, teardown, idle marking) is addressed to the directory's
  /// *current* primary at send time, so a standby takeover transparently
  /// redirects this channel -- the watchdog/heartbeat machinery notices
  /// the old primary's silence and the retry lands at the new one.
  MicChannel(transport::Host& host, ControllerDirectory& directory,
             MicChannelOptions options, Rng& rng);
  ~MicChannel() override;

  void send(transport::Chunk chunk) override;
  void close() override;
  bool ready() const override { return ready_; }

  /// Channel-loss callback: fires when the MC declares this channel lost
  /// (after any automatic re-establishment attempts are exhausted).  The
  /// reason string is the MC's (e.g. "link failure: responder
  /// unreachable", "idle channel reclaimed").
  void set_on_lost(std::function<void(const std::string&)> handler) {
    on_lost_ = std::move(handler);
  }

  /// Mark the channel idle at the MC instead of tearing it down
  /// (Sec IV-B1 channel reuse).
  void release_for_reuse();
  /// Reactivate a released channel for another session.
  void reacquire();

  ChannelId id() const noexcept { return channel_id_; }
  bool failed() const noexcept { return failed_; }
  const std::string& error() const noexcept { return error_; }
  /// MC-side transparent repairs survived (endpoints kept, path moved).
  std::uint64_t repair_count() const noexcept { return repairs_; }
  /// Establishment requests the MC load-shed (Busy{retry_after} replies);
  /// each was retried after the server-provided backoff.
  std::uint64_t times_shed() const noexcept { return times_shed_; }
  /// Automatic re-establishments attempted so far.
  int reestablish_attempts() const noexcept { return reestablish_attempts_; }
  /// Control-channel timeouts observed (unacknowledged establishments and
  /// unanswered heartbeat probes) -- how often the MC went silent on us.
  std::uint64_t controller_silences() const noexcept { return silences_; }
  /// Time from construction to ready (the paper's "MIC connect" time).
  sim::SimTime setup_time() const noexcept { return ready_at_ - started_at_; }
  int flow_count() const noexcept { return static_cast<int>(flows_.size()); }
  std::uint64_t bytes_sent_on_flow(std::size_t i) const {
    return flows_[i].bytes_sent;
  }
  /// Introspection for tests and diagnostics.
  transport::TcpConnection* debug_tcp(std::size_t i) { return flows_[i].tcp; }

 private:
  struct Flow {
    transport::TcpConnection* tcp = nullptr;
    std::unique_ptr<transport::SslSession> ssl;
    transport::ByteStream* stream = nullptr;  // tcp or ssl
    SliceParser parser;
    std::uint64_t bytes_sent = 0;
  };

  /// Both public constructors land here; exactly one of `mc` and
  /// `directory` is set.
  MicChannel(transport::Host& host, MimicController* mc,
             ControllerDirectory* directory, MicChannelOptions options,
             Rng& rng);
  void start_establish();
  void on_established(const EstablishResult& result);
  /// Backoff before re-establishment or silence retry `attempt` (1-based).
  sim::SimTime backoff_for(int attempt) const;
  /// Watchdog armed alongside every establishment request when
  /// `control_timeout` is set; fires the silence-retry path if the ack
  /// never lands.
  void arm_establish_timeout();
  void schedule_heartbeat();
  void probe_once(std::uint64_t gen);
  void on_channel_event(MimicController::ChannelEvent event,
                        const std::string& reason);
  /// Park the current m-flows (their callbacks are de-generationed, the
  /// streams closed) and reset the wire state for a fresh establishment.
  void retire_flows();
  void fail_with(const std::string& reason);
  void send_slice(transport::Chunk payload);
  void flush_pending();

  /// The control-plane endpoint, resolved per interaction: through the
  /// directory when one was given (failover-aware), else the fixed MC.
  MimicController& mc() const noexcept {
    return directory_ != nullptr ? directory_->current() : *mc_fixed_;
  }

  transport::Host& host_;
  MimicController* mc_fixed_ = nullptr;
  ControllerDirectory* directory_ = nullptr;
  MicChannelOptions options_;
  Rng& rng_;

  ChannelId channel_id_ = 0;
  std::vector<Flow> flows_;
  /// Flows from previous establishments: kept alive (their transport
  /// callbacks still reference them) but ignored via the generation guard.
  std::vector<Flow> retired_flows_;
  std::vector<net::L4Port> sports_;
  SliceReorderer reorderer_;
  std::deque<transport::Chunk> pending_;
  std::function<void(const std::string&)> on_lost_;
  std::uint32_t send_seq_ = 0;
  /// Establishment generation: bumped each time the flows are retired, so
  /// callbacks wired to an older generation become no-ops.
  std::uint64_t generation_ = 1;
  bool ready_ = false;
  bool failed_ = false;
  bool closed_notified_ = false;
  bool user_closed_ = false;
  std::string error_;
  int flows_ready_ = 0;
  int reestablish_attempts_ = 0;
  std::uint64_t repairs_ = 0;
  std::uint64_t times_shed_ = 0;
  std::uint64_t silences_ = 0;
  /// Consecutive unanswered control requests; reset on any MC reply.
  int silence_streak_ = 0;
  sim::SimTime started_at_ = 0;
  sim::SimTime ready_at_ = 0;
  std::uint64_t control_counter_ = 0;
};

/// One accepted channel on the responder.  The responder never sees the
/// initiator's address: its peer addresses are the presented m-addresses.
class MicServerChannel : public transport::ByteStream {
 public:
  explicit MicServerChannel(std::uint32_t wire_id, Rng& rng)
      : wire_id_(wire_id), rng_(rng) {}

  void send(transport::Chunk chunk) override;
  void close() override;
  bool ready() const override { return !streams_.empty(); }

  std::uint32_t wire_id() const noexcept { return wire_id_; }
  std::size_t known_flows() const noexcept { return streams_.size(); }

 private:
  friend class MicServer;

  void add_stream(transport::ByteStream* stream);
  void deliver(std::uint32_t seq, transport::Chunk payload);

  std::uint32_t wire_id_;
  Rng& rng_;
  std::vector<transport::ByteStream*> streams_;
  SliceReorderer reorderer_;
  std::uint32_t send_seq_ = 0;
};

/// Client-side channel cache implementing the paper's channel-reuse policy
/// (Sec IV-B1): "we should reuse the mimic channel among the communications
/// between the same participants ... the sender does not send shutdown
/// request to the MC immediately when the communication is finished".
/// acquire() hands back an idle channel with matching options when one
/// exists; release() parks it (notifying the MC it is idle) instead of
/// tearing it down.
class MicChannelPool {
 public:
  MicChannelPool(transport::Host& host, MimicController& mc, Rng& rng)
      : host_(host), mc_fixed_(&mc), rng_(rng) {}
  /// Failover-aware pool: channels it creates resolve the MC through the
  /// directory (see the MicChannel directory constructor).
  MicChannelPool(transport::Host& host, ControllerDirectory& directory,
                 Rng& rng)
      : host_(host), directory_(&directory), rng_(rng) {}

  /// Non-copyable: entries hold raw pointers into the pool.
  MicChannelPool(const MicChannelPool&) = delete;
  MicChannelPool& operator=(const MicChannelPool&) = delete;

  MicChannel& acquire(const MicChannelOptions& options);
  /// Park a channel acquired from this pool.
  void release(MicChannel& channel);
  /// Tear down every pooled channel.
  void drain();

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t idle_count() const;

 private:
  struct Entry {
    MicChannelOptions options;
    std::unique_ptr<MicChannel> channel;
    bool idle = false;
  };

  static bool same_target(const MicChannelOptions& a,
                          const MicChannelOptions& b) {
    return a.service_name == b.service_name && a.responder_ip == b.responder_ip &&
           a.responder_port == b.responder_port && a.flow_count == b.flow_count &&
           a.mn_count == b.mn_count && a.use_ssl == b.use_ssl &&
           a.multicast_decoys == b.multicast_decoys;
  }

  transport::Host& host_;
  MimicController* mc_fixed_ = nullptr;
  ControllerDirectory* directory_ = nullptr;
  Rng& rng_;
  std::vector<Entry> entries_;
};

class MicServer {
 public:
  using ChannelHandler = std::function<void(MicServerChannel&)>;

  /// Listens on `port` for m-flow connections.  With use_ssl the responder
  /// runs MIC-SSL (an SSL server inside every m-flow).
  MicServer(transport::Host& host, net::L4Port port, Rng& rng,
            bool use_ssl = false);

  void set_on_channel(ChannelHandler handler) {
    on_channel_ = std::move(handler);
  }

  std::size_t channel_count() const noexcept { return channels_.size(); }
  /// Connections closed because they sent a malformed slice header.
  std::uint64_t malformed_flows() const noexcept { return malformed_flows_; }

 private:
  struct FlowCtx {
    transport::TcpConnection* tcp = nullptr;
    std::unique_ptr<transport::SslSession> ssl;
    transport::ByteStream* stream = nullptr;
    SliceParser parser;
    MicServerChannel* channel = nullptr;
  };

  void on_accept(transport::TcpConnection& conn);
  void on_flow_data(FlowCtx& flow, const transport::ChunkView& view);

  transport::Host& host_;
  Rng& rng_;
  bool use_ssl_;
  std::vector<std::unique_ptr<FlowCtx>> flows_;
  std::unordered_map<std::uint32_t, std::unique_ptr<MicServerChannel>>
      channels_;
  ChannelHandler on_channel_;
  std::uint64_t malformed_flows_ = 0;
};

}  // namespace mic::core
