// bulk: per-packet work dominates -- the scheduler, link delivery, both
// flow-table lookup tiers, apply_actions rewrites and the TCP segment path;
// the MC and rule installs sit idle, so a control-plane gain must leave it
// unchanged.
//
// 16 MIC channels (F=2, N=3) beside 16 plain-TCP common flows.  Senders are
// distinct hosts in pods 0-3 and receivers distinct hosts in pods 4-7, in a
// fixed placement (see build()); the seed drives MIC paths, MN positions,
// m-addresses and slice sizes.  M-flow rules hit the exact-match index;
// common flows scan the L3 wildcard rules.  After a warm-up transfer every
// flow sends a fixed byte budget; an op is one packet-hop delivered on a
// link.
#include "common.hpp"

namespace perfbench {
namespace {

using mic::core::MicChannel;
using mic::core::MicChannelOptions;
using mic::core::MicServer;
using mic::core::MicServerChannel;
using mic::transport::ByteStream;
using mic::transport::Chunk;
using mic::transport::ChunkView;
using mic::transport::TcpConnection;

constexpr std::size_t kFlows = 32;  // half MIC channels, half TCP flows
constexpr std::size_t kMicFlows = kFlows / 2;
constexpr std::uint64_t kWarmBytes = 2ull << 20;
/// Set-ups per run; one takes ~0.45 s.
constexpr int kSetupRepeats = 7;
/// Measured bytes per flow per requested second of run time.
constexpr std::uint64_t kBytesPerSecond = 4ull << 20;
constexpr mic::net::L4Port kMicPort = 7000;
constexpr mic::net::L4Port kTcpPort = 8000;
constexpr mic::net::L4Port kProbePort = 9000;

/// Counts what one flow's receiver got and when the measured budget's
/// first and last bytes arrived.
class Sink {
 public:
  Sink(ByteStream& stream, mic::sim::Simulator& simulator, std::uint64_t total)
      : total_(total) {
    stream.set_on_data([this, &simulator](const ChunkView& view) {
      if (received_ <= kWarmBytes && received_ + view.length > kWarmBytes) {
        first_at_ = simulator.now();
      }
      received_ += view.length;
      if (received_ >= total_ && done_at_ == 0) done_at_ = simulator.now();
    });
  }
  std::uint64_t received() const noexcept { return received_; }
  /// Simulated goodput of the measured budget, first byte to last, Mb/s.
  double goodput_mbps() const {
    return static_cast<double>(total_ - kWarmBytes) * 8.0 * 1e3 /
           static_cast<double>(done_at_ - first_at_);
  }

 private:
  std::uint64_t total_;
  std::uint64_t received_ = 0;
  SimTime first_at_ = 0;
  SimTime done_at_ = 0;
};

struct Bed {
  std::unique_ptr<Fabric> fabric;
  std::vector<std::size_t> senders;    // by flow
  std::vector<std::size_t> receivers;  // by flow
  std::vector<std::unique_ptr<MicServer>> servers;
  std::vector<std::unique_ptr<MicChannel>> channels;
  std::vector<TcpConnection*> connections;  // owned by their hosts
  std::vector<ByteStream*> streams;          // by flow
  std::vector<std::unique_ptr<Sink>> sinks;  // by flow

  bool sinks_reached(std::uint64_t bytes) const {
    for (const auto& sink : sinks) {
      if (sink == nullptr || sink->received() < bytes) return false;
    }
    return true;
  }
};

/// Even flows are MIC channels, odd flows common TCP flows, so both kinds
/// spread over every pod.
bool is_mic(std::size_t flow) { return flow % 2 == 0; }

std::unique_ptr<Bed> build(const RunContext& ctx, std::uint64_t budget) {
  auto bed = std::make_unique<Bed>();
  bed->fabric = build_fabric(ctx.seed, ctx.tracer);
  Fabric& fabric = *bed->fabric;
  auto& simulator = fabric.simulator();
  // Placement is fixed: which hosts talk decides how deep the common
  // flows' lookups scan the wildcard tier, and a seeded placement moved
  // the per-hop cost by a third between seeds.  The seed drives the
  // fabric's randomness instead: MIC paths, MN positions, m-addresses and
  // slice sizes.
  const auto lower = hosts_in_pods(fabric, 0, 3);
  const auto upper = hosts_in_pods(fabric, 4, 7);
  std::vector<std::size_t> mic_senders;
  for (std::size_t f = 0; f < kFlows; ++f) {
    bed->senders.push_back(lower[2 * f]);
    bed->receivers.push_back(upper[2 * f + 1]);
    if (is_mic(f)) mic_senders.push_back(lower[2 * f]);
  }
  register_clients(fabric, ctx.tracer, mic_senders);

  const std::uint64_t total = kWarmBytes + budget;
  bed->sinks.resize(kFlows);
  for (std::size_t f = 0; f < kFlows; ++f) {
    auto& receiver = fabric.host(bed->receivers[f]);
    auto& sender = fabric.host(bed->senders[f]);
    auto& sink = bed->sinks[f];
    if (is_mic(f)) {
      auto server =
          std::make_unique<MicServer>(receiver, kMicPort, fabric.rng());
      server->set_on_channel([&sink, &simulator, total](MicServerChannel& ch) {
        sink = std::make_unique<Sink>(ch, simulator, total);
      });
      bed->servers.push_back(std::move(server));
      MicChannelOptions options;
      options.responder_ip = fabric.ip(bed->receivers[f]);
      options.responder_port = kMicPort;
      options.flow_count = 2;
      options.mn_count = 3;
      const auto span = ctx.tracer.span("core.open_channel", f);
      bed->channels.push_back(std::make_unique<MicChannel>(
          sender, fabric.mc(), options, fabric.rng()));
      bed->streams.push_back(bed->channels.back().get());
    } else {
      receiver.listen(kTcpPort, [&sink, &simulator, total](TcpConnection& c) {
        sink = std::make_unique<Sink>(c, simulator, total);
      });
      bed->connections.push_back(
          &sender.connect(fabric.ip(bed->receivers[f]), kTcpPort));
      bed->streams.push_back(bed->connections.back());
    }
  }
  Bed& b = *bed;
  drive(fabric, ctx.tracer, [&b] {
    for (const auto* stream : b.streams) {
      if (!stream->ready()) return false;
    }
    return true;
  });
  for (auto* stream : b.streams) stream->send(Chunk::virtual_bytes(kWarmBytes));
  drive(fabric, ctx.tracer, [&b] { return b.sinks_reached(kWarmBytes); });
  return bed;
}

std::uint64_t retransmits(Bed& bed) {
  std::uint64_t sum = 0;
  for (const auto& ch : bed.channels) {
    for (int f = 0; f < ch->flow_count(); ++f) {
      sum += ch->debug_tcp(static_cast<std::size_t>(f))->retransmissions();
    }
  }
  for (const auto* c : bed.connections) sum += c->retransmissions();
  return sum;
}

}  // namespace

Result run_bulk(const RunContext& ctx) {
  Result result;
  const std::uint64_t budget =
      kBytesPerSecond * static_cast<std::uint64_t>(ctx.seconds);
  auto& m = result.metrics;
  const auto bed = timed_setup(
      kSetupRepeats, [&] { return build(ctx, budget); }, m["setup_s"]);
  Fabric& fabric = *bed->fabric;
  Tracer& tracer = ctx.tracer;
  const RuleCounts rules = rule_counts(fabric);

  // Measured phase: every flow sends its budget; the simulator advances in
  // fixed slices until every sink has it.
  const std::uint64_t retransmits_before = retransmits(*bed);
  const Counters before = snapshot(fabric, tracer);
  RateMeter meter;
  std::uint64_t hops = before.packet_hops;
  std::int64_t cpu = cpu_ns();
  for (auto* stream : bed->streams) stream->send(Chunk::virtual_bytes(budget));
  const std::uint64_t total = kWarmBytes + budget;
  Bed& b = *bed;
  const bool finished = drive(
      fabric, tracer, [&b, total] { return b.sinks_reached(total); },
      [&] {
        const std::uint64_t now_hops = packet_hops(fabric);
        const std::int64_t now_cpu = cpu_ns();
        meter.add(now_hops - hops, now_cpu - cpu);
        hops = now_hops;
        cpu = now_cpu;
      });
  const Counters after = snapshot(fabric, tracer);

  result.attempted += kFlows;
  if (!finished) result.fail("bulk transfer did not finish");
  std::vector<double> goodput;
  for (std::size_t f = 0; f < kFlows; ++f) {
    if (b.sinks[f] == nullptr) {
      result.fail("flow " + std::to_string(f) + " never connected");
      continue;
    }
    const Sink& sink = *b.sinks[f];
    if (sink.received() != total) {
      result.fail("sink " + std::to_string(f) + " received " +
                  std::to_string(sink.received()) + " of " +
                  std::to_string(total) + " bytes");
    }
    if (is_mic(f)) goodput.push_back(sink.goodput_mbps());
  }
  for (const auto& ch : bed->channels) {
    if (ch->failed()) result.fail("MIC channel failed: " + ch->error());
  }

  m["ops_per_s"] = meter.median_rate();
  // Mean over the 16 MIC channels (Fig. 9b).  A seed decides which flows
  // share a core link, and when two collide both lose, so the figure moves
  // between seeds; for one seed it repeats exactly.
  m["sim_goodput_mbps"] = mean(goodput);
  result.fingerprint["sim_goodput_mbps"] = m["sim_goodput_mbps"];
  layer_metrics(before, after, meter.total_ops(), tracer, result);
  m["switchd.rules_mean"] = rules.mean;
  m["switchd.rules_max"] = rules.max;
  m["transport.retransmits"] =
      static_cast<double>(retransmits(*bed) - retransmits_before);

  // Latency probe, outside every timed phase: request/response sessions
  // across the same fabric give the simulated setup and session latency.
  std::vector<std::size_t> tcp_senders;
  for (std::size_t f = 0; f < kFlows; ++f) {
    if (!is_mic(f)) tcp_senders.push_back(bed->senders[f]);
  }
  register_clients(fabric, tracer, tcp_senders);
  const std::uint64_t probes = probe_latency(
      fabric, tracer, bed->senders, bed->receivers, ctx.seed, kProbePort,
      result);
  // MAGA draws 2 (N-1) tuples per m-flow: N-1 MNs rewrite each direction.
  const double tuples =
      static_cast<double>(kMicFlows * 2 + probes) * 2.0 * (3 - 1);
  m["core.maga_retry_ratio"] =
      static_cast<double>(fabric.mc().registry().generation_retries()) /
      tuples;
  finish_run(fabric, result);
  return result;
}

}  // namespace perfbench
