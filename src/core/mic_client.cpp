#include "core/mic_client.hpp"

#include "common/log.hpp"

namespace mic::core {

namespace {

/// Capped exponential backoff (plus seeded jitter) between automatic
/// re-establishment attempts, and how many to try before giving up.
constexpr sim::SimTime kReestablishBackoffBase = sim::milliseconds(2);
constexpr sim::SimTime kReestablishBackoffCap = sim::milliseconds(50);
constexpr int kReestablishLimit = 4;

transport::ChunkView view_of(const transport::Chunk& chunk) {
  if (chunk.is_real()) return {chunk.length, *chunk.data};
  return {chunk.length, {}};
}

}  // namespace

// --- MicChannel --------------------------------------------------------------

MicChannel::MicChannel(transport::Host& host, MimicController& mc,
                       MicChannelOptions options, Rng& rng)
    : MicChannel(host, &mc, nullptr, std::move(options), rng) {}

MicChannel::MicChannel(transport::Host& host, ControllerDirectory& directory,
                       MicChannelOptions options, Rng& rng)
    : MicChannel(host, nullptr, &directory, std::move(options), rng) {}

MicChannel::MicChannel(transport::Host& host, MimicController* mc,
                       ControllerDirectory* directory,
                       MicChannelOptions options, Rng& rng)
    : host_(host),
      mc_fixed_(mc),
      directory_(directory),
      options_(std::move(options)),
      rng_(rng) {
  started_at_ = host_.simulator().now();
  start_establish();
}

MicChannel::~MicChannel() {
  if (channel_id_ != 0) mc().clear_channel_listener(channel_id_);
}

void MicChannel::start_establish() {
  // First contact: run the one-time key exchange with the MC (both sides
  // pay the asymmetric cost once per client).
  const bool known = mc().client_registered(host_.ip());
  const crypto::Aes128::Key key = mc().register_client(host_.ip());
  if (!known) {
    host_.charge(2 * host_.costs().dh_modexp_cycles);
  }

  sports_.clear();
  sports_.reserve(static_cast<std::size_t>(options_.flow_count));
  for (int i = 0; i < options_.flow_count; ++i) {
    sports_.push_back(host_.reserve_port());
  }

  EstablishRequest request;
  request.initiator_ip = host_.ip();
  request.service_name = options_.service_name;
  request.responder_ip = options_.responder_ip;
  request.responder_port = options_.responder_port;
  request.flow_count = options_.flow_count;
  request.mn_count = options_.mn_count;
  request.multicast_decoys = options_.multicast_decoys;
  request.initiator_sports = sports_;

  // The request really is serialized and AES-encrypted (paper Sec VI).
  std::vector<std::uint8_t> bytes = serialize_request(request);
  host_.charge(host_.costs().aes_crypt_cycles(bytes.size()));
  control_counter_ = host_.fresh_stream_uid();
  crypt_control_message(key, control_counter_, bytes);

  // Re-establishments of a lost channel ride the admission controller's
  // repair class, which outranks fresh establishes in its queue.
  const ctrl::AdmitPriority priority = reestablish_attempts_ > 0
                                           ? ctrl::AdmitPriority::kRepair
                                           : ctrl::AdmitPriority::kFresh;
  const std::uint64_t gen = generation_;
  mc().async_establish(host_.ip(), std::move(bytes), control_counter_,
                      [this, gen](const EstablishResult& result) {
                        if (gen != generation_ || user_closed_) {
                          // A stale ack for a generation we gave up on: the
                          // MC holds a live channel nobody owns.  Release
                          // it rather than stranding its rules.
                          if (result.ok) mc().teardown(result.channel, false);
                          return;
                        }
                        on_established(result);
                      },
                      priority);
  if (options_.control_timeout > 0) arm_establish_timeout();
}

sim::SimTime MicChannel::backoff_for(int attempt) const {
  return capped_backoff(kReestablishBackoffBase, kReestablishBackoffCap,
                        attempt, rng_);
}

void MicChannel::arm_establish_timeout() {
  const std::uint64_t gen = generation_;
  host_.simulator().schedule_in(options_.control_timeout, [this, gen] {
    if (gen != generation_ || user_closed_ || failed_) return;
    if (channel_id_ != 0) return;  // the ack landed
    // Controller silence: a live MC always answers (even a failed
    // establishment gets an error ack); only a crashed one says nothing.
    ++silences_;
    ++silence_streak_;
    log_warn("MIC channel: no establish ack after %llu us (silence %d)",
             static_cast<unsigned long long>(options_.control_timeout / 1000),
             silence_streak_);
    retire_flows();  // bumps the generation; a late ack hits the stale path
    if (silence_streak_ > options_.control_retry_limit) {
      fail_with("controller unreachable: establishment unacknowledged");
      return;
    }
    const std::uint64_t next = generation_;
    host_.simulator().schedule_in(backoff_for(silence_streak_),
                                  [this, next] {
                                    if (next != generation_ || user_closed_) {
                                      return;
                                    }
                                    start_establish();
                                  });
  });
}

void MicChannel::schedule_heartbeat() {
  const std::uint64_t gen = generation_;
  host_.simulator().schedule_in(options_.heartbeat_interval, [this, gen] {
    if (gen != generation_ || user_closed_ || failed_) return;
    probe_once(gen);
  });
}

void MicChannel::probe_once(std::uint64_t gen) {
  auto answered = std::make_shared<bool>(false);
  mc().probe_channel(
      channel_id_,
      [this, gen](MimicController::ChannelEvent event,
                  const std::string& reason) {
        if (gen != generation_) return;
        on_channel_event(event, reason);
      },
      [this, gen, answered](bool alive) {
        if (gen != generation_ || user_closed_ || failed_) return;
        *answered = true;
        silence_streak_ = 0;
        if (!alive) {
          // The channel died while the MC was away (or was reclaimed);
          // take the normal lost path -- auto_reestablish still applies.
          on_channel_event(MimicController::ChannelEvent::kLost,
                           "channel not found after MC restart");
          return;
        }
        schedule_heartbeat();
      });
  // A crashed MC drops the probe on the floor; the watchdog keeps probing
  // (data still flows -- the rules outlive the MC) until the retry budget
  // is spent.
  const sim::SimTime timeout =
      options_.control_timeout > 0
          ? options_.control_timeout
          : 4 * mc().mic_config().control_latency + sim::milliseconds(1);
  host_.simulator().schedule_in(timeout, [this, gen, answered] {
    if (gen != generation_ || user_closed_ || failed_ || *answered) return;
    ++silences_;
    ++silence_streak_;
    if (silence_streak_ > options_.control_retry_limit) {
      fail_with("controller unreachable: heartbeat unanswered");
      return;
    }
    probe_once(gen);
  });
}

void MicChannel::fail_with(const std::string& reason) {
  failed_ = true;
  error_ = reason;
  ready_ = false;
  log_warn("MIC channel failed: %s", reason.c_str());
  if (on_lost_) on_lost_(reason);
  if (!closed_notified_) {
    closed_notified_ = true;
    notify_closed();
  }
}

void MicChannel::retire_flows() {
  // De-generation first: the closes below must not be mistaken for a peer
  // shutdown, and late data/ready callbacks on the old connections are
  // stale by definition.
  ++generation_;
  ready_ = false;
  flows_ready_ = 0;
  send_seq_ = 0;
  reorderer_ = SliceReorderer{};
  channel_id_ = 0;
  for (Flow& flow : flows_) {
    if (flow.stream != nullptr) flow.stream->close();
  }
  for (Flow& flow : flows_) retired_flows_.push_back(std::move(flow));
  flows_.clear();
}

void MicChannel::on_channel_event(MimicController::ChannelEvent event,
                                  const std::string& reason) {
  if (event == MimicController::ChannelEvent::kRepaired) {
    // Transparent repair: entry addresses survived, the TCP connections
    // never noticed.  Nothing to do but count it.
    ++repairs_;
    return;
  }
  // kLost: the channel no longer exists at the MC.  Either give up or ask
  // for a fresh one (new entry addresses, new m-flow connections).
  if (user_closed_) return;
  if (options_.auto_reestablish &&
      reestablish_attempts_ < kReestablishLimit) {
    ++reestablish_attempts_;
    retire_flows();
    const std::uint64_t gen = generation_;
    host_.simulator().schedule_in(backoff_for(reestablish_attempts_),
                                  [this, gen] {
                                    if (gen != generation_ || user_closed_) {
                                      return;
                                    }
                                    start_establish();
                                  });
    return;
  }
  retire_flows();
  fail_with(reason);
}

void MicChannel::on_established(const EstablishResult& result) {
  if (result.busy) {
    // The MC is alive but shed the request under load: back off for the
    // server-provided interval (plus jitter so a shed herd does not
    // return in lockstep), not the generic silence/timeout path -- the
    // reply itself proves the controller is up.
    ++times_shed_;
    silence_streak_ = 0;
    retire_flows();  // bumps the generation; the watchdog goes stale
    if (times_shed_ > static_cast<std::uint64_t>(options_.shed_retry_limit)) {
      fail_with("controller busy: shed retry budget exhausted");
      return;
    }
    const sim::SimTime base = std::max<sim::SimTime>(result.retry_after, 1);
    const sim::SimTime wait = base + rng_.below(base / 2 + 1);
    const std::uint64_t gen = generation_;
    host_.simulator().schedule_in(wait, [this, gen] {
      if (gen != generation_ || user_closed_) return;
      start_establish();
    });
    return;
  }
  if (!result.ok) {
    if (options_.auto_reestablish &&
        reestablish_attempts_ < kReestablishLimit &&
        reestablish_attempts_ > 0) {
      // A re-establishment raced a still-unrepaired fabric; try again.
      on_channel_event(MimicController::ChannelEvent::kLost, result.error);
      return;
    }
    fail_with(result.error);
    return;
  }
  channel_id_ = result.channel;
  failed_ = false;
  error_.clear();
  silence_streak_ = 0;  // the MC answered; silences start counting afresh
  const std::uint64_t gen = generation_;
  mc().set_channel_listener(
      channel_id_, [this, gen](MimicController::ChannelEvent event,
                               const std::string& reason) {
        if (gen != generation_) return;
        on_channel_event(event, reason);
      });
  if (options_.heartbeat_interval > 0) schedule_heartbeat();
  // Decrypting the acknowledgement costs the client another AES pass.
  host_.charge(host_.costs().aes_crypt_cycles(
      8.0 * static_cast<double>(result.entries.size()) + 16.0));

  flows_.resize(result.entries.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& flow = flows_[i];
    flow.tcp = &host_.connect_from(sports_[i], result.entries[i].ip,
                                   result.entries[i].port);
    if (options_.use_ssl) {
      flow.ssl = std::make_unique<transport::SslSession>(
          *flow.tcp, transport::SslSession::Role::kClient, host_, rng_);
      flow.stream = flow.ssl.get();
    } else {
      flow.stream = flow.tcp;
    }

    flow.stream->set_on_ready([this, gen] {
      if (gen != generation_) return;
      if (++flows_ready_ == static_cast<int>(flows_.size())) {
        ready_ = true;
        ready_at_ = host_.simulator().now();
        // Hello slices teach the responder which connections form this
        // channel; they carry no payload.
        for (std::size_t f = 0; f < flows_.size(); ++f) {
          SliceHeader hello;
          hello.channel = static_cast<std::uint32_t>(channel_id_);
          hello.seq = send_seq_++;
          hello.length = 0;
          hello.flow = static_cast<std::uint16_t>(f);
          flows_[f].stream->send(
              slice_header_chunk(hello));
        }
        notify_ready();
        flush_pending();
      }
    });
    flow.stream->set_on_data([this, i, gen](const transport::ChunkView& view) {
      if (gen != generation_ || flows_[i].parser.failed()) return;
      flows_[i].parser.feed(view, [this](const SliceHeader& header,
                                         transport::Chunk payload) {
        reorderer_.push(header.seq, std::move(payload),
                        [this](transport::Chunk chunk) {
                          notify_data(view_of(chunk));
                        });
      });
      if (flows_[i].parser.failed()) {
        fail_with("malformed slice header on m-flow " + std::to_string(i));
      }
    });
    flow.stream->set_on_closed([this, gen] {
      if (gen != generation_) return;
      if (!closed_notified_) {
        closed_notified_ = true;
        notify_closed();
      }
    });
  }
}

void MicChannel::send(transport::Chunk chunk) {
  if (!ready_) {
    pending_.push_back(std::move(chunk));
    return;
  }
  std::uint64_t offset = 0;
  while (offset < chunk.length) {
    const std::uint64_t slice_len = std::min<std::uint64_t>(
        chunk.length - offset,
        rng_.range(kMinCutSliceBytes, kMaxCutSliceBytes));
    send_slice(transport::sub_chunk(chunk, offset, slice_len));
    offset += slice_len;
  }
}

void MicChannel::send_slice(transport::Chunk payload) {
  const std::size_t flow_index = rng_.below(flows_.size());
  Flow& flow = flows_[flow_index];
  SliceHeader header;
  header.channel = static_cast<std::uint32_t>(channel_id_);
  header.seq = send_seq_++;
  header.length = static_cast<std::uint32_t>(payload.length);
  header.flow = static_cast<std::uint16_t>(flow_index);
  flow.bytes_sent += kSliceHeaderBytes + payload.length;
  flow.stream->send(slice_header_chunk(header));
  if (payload.length > 0) flow.stream->send(std::move(payload));
}

void MicChannel::flush_pending() {
  while (!pending_.empty()) {
    transport::Chunk chunk = std::move(pending_.front());
    pending_.pop_front();
    send(std::move(chunk));
  }
}

void MicChannel::close() {
  user_closed_ = true;
  for (Flow& flow : flows_) {
    if (flow.stream != nullptr) flow.stream->close();
  }
  if (channel_id_ != 0) mc().clear_channel_listener(channel_id_);
  // The shutdown notification travels the control channel, addressed to
  // whoever is primary right now.
  const ChannelId id = channel_id_;
  auto& target = mc();
  host_.simulator().schedule_in(target.mic_config().control_latency,
                                [&target, id] { target.teardown(id, false); });
}

void MicChannel::release_for_reuse() {
  const ChannelId id = channel_id_;
  auto& target = mc();
  host_.simulator().schedule_in(target.mic_config().control_latency,
                                [&target, id] { target.mark_idle(id, true); });
}

void MicChannel::reacquire() {
  const ChannelId id = channel_id_;
  auto& target = mc();
  host_.simulator().schedule_in(
      target.mic_config().control_latency,
      [&target, id] { target.mark_idle(id, false); });
}

// --- MicChannelPool --------------------------------------------------------------

MicChannel& MicChannelPool::acquire(const MicChannelOptions& options) {
  for (Entry& entry : entries_) {
    if (entry.idle && same_target(entry.options, options) &&
        !entry.channel->failed()) {
      entry.idle = false;
      entry.channel->reacquire();
      return *entry.channel;
    }
  }
  Entry entry;
  entry.options = options;
  entry.channel =
      directory_ != nullptr
          ? std::make_unique<MicChannel>(host_, *directory_, options, rng_)
          : std::make_unique<MicChannel>(host_, *mc_fixed_, options, rng_);
  entries_.push_back(std::move(entry));
  return *entries_.back().channel;
}

void MicChannelPool::release(MicChannel& channel) {
  for (Entry& entry : entries_) {
    if (entry.channel.get() == &channel) {
      entry.idle = true;
      channel.release_for_reuse();
      return;
    }
  }
  MIC_ASSERT_MSG(false, "releasing a channel this pool does not own");
}

void MicChannelPool::drain() {
  for (Entry& entry : entries_) entry.channel->close();
  entries_.clear();
}

std::size_t MicChannelPool::idle_count() const {
  std::size_t idle = 0;
  for (const Entry& entry : entries_) idle += entry.idle;
  return idle;
}

// --- MicServerChannel ----------------------------------------------------------

void MicServerChannel::add_stream(transport::ByteStream* stream) {
  streams_.push_back(stream);
}

void MicServerChannel::deliver(std::uint32_t seq, transport::Chunk payload) {
  reorderer_.push(seq, std::move(payload), [this](transport::Chunk chunk) {
    notify_data(view_of(chunk));
  });
}

void MicServerChannel::send(transport::Chunk chunk) {
  MIC_ASSERT_MSG(!streams_.empty(), "no m-flow connections known yet");
  std::uint64_t offset = 0;
  while (offset < chunk.length) {
    const std::uint64_t slice_len = std::min<std::uint64_t>(
        chunk.length - offset,
        rng_.range(kMinCutSliceBytes, kMaxCutSliceBytes));
    const std::size_t flow_index = rng_.below(streams_.size());
    SliceHeader header;
    header.channel = wire_id_;
    header.seq = send_seq_++;
    header.length = static_cast<std::uint32_t>(slice_len);
    header.flow = static_cast<std::uint16_t>(flow_index);
    streams_[flow_index]->send(
        slice_header_chunk(header));
    streams_[flow_index]->send(transport::sub_chunk(chunk, offset, slice_len));
    offset += slice_len;
  }
}

void MicServerChannel::close() {
  for (transport::ByteStream* stream : streams_) stream->close();
}

// --- MicServer ------------------------------------------------------------------

MicServer::MicServer(transport::Host& host, net::L4Port port, Rng& rng,
                     bool use_ssl)
    : host_(host), rng_(rng), use_ssl_(use_ssl) {
  host_.listen(port, [this](transport::TcpConnection& conn) {
    on_accept(conn);
  });
}

void MicServer::on_accept(transport::TcpConnection& conn) {
  auto flow = std::make_unique<FlowCtx>();
  flow->tcp = &conn;
  if (use_ssl_) {
    flow->ssl = std::make_unique<transport::SslSession>(
        conn, transport::SslSession::Role::kServer, host_, rng_);
    flow->stream = flow->ssl.get();
  } else {
    flow->stream = &conn;
  }
  FlowCtx* raw = flow.get();
  raw->stream->set_on_data([this, raw](const transport::ChunkView& view) {
    on_flow_data(*raw, view);
  });
  flows_.push_back(std::move(flow));
}

void MicServer::on_flow_data(FlowCtx& flow, const transport::ChunkView& view) {
  if (flow.parser.failed()) return;  // dropped already
  flow.parser.feed(view, [this, &flow](const SliceHeader& header,
                                       transport::Chunk payload) {
    if (flow.channel == nullptr) {
      auto it = channels_.find(header.channel);
      if (it == channels_.end()) {
        auto channel =
            std::make_unique<MicServerChannel>(header.channel, rng_);
        it = channels_.emplace(header.channel, std::move(channel)).first;
        if (on_channel_) on_channel_(*it->second);
      }
      flow.channel = it->second.get();
      flow.channel->add_stream(flow.stream);
    }
    flow.channel->deliver(header.seq, std::move(payload));
  });
  if (flow.parser.failed()) {
    // No MIC client wrote that header: drop this connection and keep
    // serving the others.
    ++malformed_flows_;
    flow.stream->close();
  }
}

}  // namespace mic::core
