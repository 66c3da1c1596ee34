// churn: all control-plane work at scale -- plan_channel, PathEngine rows
// and MAGA tuple generation, FlowTable::add_rule/remove_by_cookie over
// tables of hundreds of rules, and the channel journal, which above 1,024
// live channels rewrites the whole live set on every append.  No packet
// moves, so a data-plane gain must leave it unchanged.
//
// Set-up populates 2,048 live channels (F=1, N=3, seeded random host pairs
// over all 128 hosts) through the synchronous MimicController::establish;
// 2,048 is twice the journal's compaction threshold.  Each measured op
// tears down the oldest channel and establishes a fresh one, so the
// population stays at 2,048.
#include <deque>

#include "common.hpp"

namespace perfbench {
namespace {

using mic::core::ChannelId;
using mic::core::EstablishRequest;

constexpr std::size_t kLive = 2048;
/// Set-ups per run; one takes ~1.6 s.
constexpr int kSetupRepeats = 3;
/// Measured teardown+establish cycles per requested second of run time.
constexpr std::uint64_t kCyclesPerSecond = 210;
constexpr mic::net::L4Port kServicePort = 9000;
constexpr mic::net::L4Port kProbePort = 9100;

struct Bed {
  std::unique_ptr<Fabric> fabric;
  mic::Rng pairs{0};
  std::deque<ChannelId> live;  // oldest first
};

EstablishRequest next_request(Fabric& fabric, mic::Rng& pairs) {
  const std::size_t hosts = fabric.host_count();
  const std::size_t a = pairs.below(hosts);
  std::size_t b = pairs.below(hosts - 1);
  if (b >= a) ++b;
  EstablishRequest request;
  request.initiator_ip = fabric.ip(a);
  request.responder_ip = fabric.ip(b);
  request.responder_port = kServicePort;
  request.flow_count = 1;
  request.mn_count = 3;
  request.initiator_sports = {fabric.host(a).reserve_port()};
  return request;
}

std::unique_ptr<Bed> build(const RunContext& ctx, Result& result) {
  auto bed = std::make_unique<Bed>();
  bed->fabric = build_fabric(ctx.seed, ctx.tracer);
  bed->pairs = mic::Rng(ctx.seed ^ 0xC4A2ULL);
  Fabric& fabric = *bed->fabric;
  const auto span = ctx.tracer.span("core.populate");
  while (bed->live.size() < kLive) {
    const auto established =
        fabric.mc().establish(next_request(fabric, bed->pairs));
    if (!established.ok) {
      result.fail("populate: establish failed: " + established.error);
      break;
    }
    bed->live.push_back(established.channel);
    rotate_cpu_if_due();
  }
  return bed;
}

}  // namespace

Result run_churn(const RunContext& ctx) {
  Result result;
  auto& m = result.metrics;
  const auto bed = timed_setup(
      kSetupRepeats, [&] { return build(ctx, result); }, m["setup_s"]);
  Fabric& fabric = *bed->fabric;
  auto& mc = fabric.mc();
  Tracer& tracer = ctx.tracer;
  const RuleCounts rules = rule_counts(fabric);

  const std::uint64_t cycles =
      kCyclesPerSecond * static_cast<std::uint64_t>(ctx.seconds);
  const Counters before = snapshot(fabric, tracer);
  RateMeter meter;
  std::vector<std::int64_t> cycle_ns;
  cycle_ns.reserve(cycles);
  for (std::uint64_t op = 0; op < cycles; ++op) {
    const std::int64_t start = cpu_ns();
    {
      const auto cycle = tracer.span("core.cycle", op);
      const ChannelId oldest = bed->live.front();
      bed->live.pop_front();
      {
        const auto span = tracer.span("core.teardown", op);
        mc.teardown(oldest);
      }
      if (mc.channel(oldest) != nullptr) result.fail("teardown left channel");
      const EstablishRequest request = next_request(fabric, bed->pairs);
      mic::core::EstablishResult established;
      {
        const auto span = tracer.span("core.establish", op);
        established = mc.establish(request);
      }
      // A busy shed is a failed op like any other error.
      if (established.ok) {
        bed->live.push_back(established.channel);
      } else {
        result.fail("establish failed: " + established.error);
      }
    }
    const std::int64_t spent = cpu_ns() - start;
    cycle_ns.push_back(spent);
    meter.add(1, spent);
    rotate_cpu_if_due();
  }
  const Counters after = snapshot(fabric, tracer);
  result.attempted += cycles;
  if (mc.active_channel_count() != kLive) {
    result.fail("live population drifted to " +
                std::to_string(mc.active_channel_count()));
  }

  m["ops_per_s"] = meter.median_rate();
  layer_metrics(before, after, cycles, tracer, result);
  m["switchd.rules_mean"] = rules.mean;
  m["switchd.rules_max"] = rules.max;
  m["core.cycle_p50_us"] = percentile(cycle_ns, 0.50) / 1e3;
  m["core.cycle_p99_us"] = percentile(cycle_ns, 0.99) / 1e3;
  const auto establish = tracer.durations("core.establish");
  const auto teardown = tracer.durations("core.teardown");
  m["core.establish_p50_us"] = percentile(establish, 0.50) / 1e3;
  m["core.establish_p99_us"] = percentile(establish, 0.99) / 1e3;
  m["core.teardown_p50_us"] = percentile(teardown, 0.50) / 1e3;
  m["core.teardown_p99_us"] = percentile(teardown, 0.99) / 1e3;
  m["core.populate_s"] = median(tracer.durations("core.populate")) / 1e9;
  // MAGA draws 2 (N-1) tuples per m-flow: N-1 MNs rewrite each direction.
  m["core.maga_retry_ratio"] =
      static_cast<double>(after.maga_retries - before.maga_retries) /
      (static_cast<double>(cycles) * 2.0 * (3 - 1));

  // Latency probe, outside every timed phase, against the populated fabric.
  auto clients = hosts_in_pods(fabric, 0, 3);
  auto servers = hosts_in_pods(fabric, 4, 7);
  mic::Rng rng(ctx.seed ^ 0x9B0BEULL);
  rng.shuffle(clients);
  rng.shuffle(servers);
  clients.resize(32);
  servers.resize(32);
  register_clients(fabric, tracer, clients);
  probe_latency(fabric, tracer, clients, servers, ctx.seed, kProbePort,
                result);
  m["sim_goodput_mbps"] = m["session.goodput_mbps"];
  result.fingerprint["sim_goodput_mbps"] = m["sim_goodput_mbps"];
  finish_run(fabric, result);
  return result;
}

}  // namespace perfbench
