// rpc: the same layers used differently -- rule installs and removals
// interleave with lookups on small tables, TCP carries handshakes, small
// segments and FINs rather than full windows, the async control path (AES
// control message, admission, southbound round trips) is on every
// session's critical path, and it is the only workload that creates and
// destroys per-session state.
//
// 32 clients in pods 0-3 each run back-to-back sessions against their own
// server host in pods 4-7 (seeded placement and start offsets).  A session
// opens a fresh MicChannel (F=1, N=3) over the encrypted async establish,
// sends a 1 KiB request, receives a 4 KiB response and closes.  Each
// session meets a fresh MicServer on a fresh port (see Sessions::open): with
// one port per server host, a SYN whose presented address an earlier
// session of the pair used lands on that closed connection and the session
// hangs.  Clients register during set-up and the MC's key-exchange backlog
// drains before measuring starts.
#include "common.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kClients = 32;
/// Set-ups per run; one takes 35-60 ms, bimodally, as the host's speed
/// shifts, so the median needs many.
constexpr int kSetupRepeats = 41;
/// Measured sessions per client per requested second of run time.
constexpr int kSessionsPerClientPerSecond = 165;
constexpr mic::net::L4Port kBasePort = 10000;

struct Bed {
  std::unique_ptr<Fabric> fabric;
  std::vector<std::size_t> clients;
  std::vector<std::size_t> servers;
};

std::unique_ptr<Bed> build(const RunContext& ctx) {
  auto bed = std::make_unique<Bed>();
  bed->fabric = build_fabric(ctx.seed, ctx.tracer);
  Fabric& fabric = *bed->fabric;
  mic::Rng rng(ctx.seed ^ 0x59C5ULL);
  bed->clients = hosts_in_pods(fabric, 0, 3);
  bed->servers = hosts_in_pods(fabric, 4, 7);
  rng.shuffle(bed->clients);
  rng.shuffle(bed->servers);
  bed->clients.resize(kClients);
  bed->servers.resize(kClients);
  register_clients(fabric, ctx.tracer, bed->clients);
  return bed;
}

}  // namespace

Result run_rpc(const RunContext& ctx) {
  Result result;
  auto& m = result.metrics;
  const auto bed =
      timed_setup(kSetupRepeats, [&] { return build(ctx); }, m["setup_s"]);
  Fabric& fabric = *bed->fabric;
  Tracer& tracer = ctx.tracer;
  const RuleCounts rules = rule_counts(fabric);

  const int per_client = kSessionsPerClientPerSecond * ctx.seconds;
  const Counters before = snapshot(fabric, tracer);
  Sessions sessions(fabric, tracer, bed->clients, bed->servers,
                    start_offsets(ctx.seed, kClients), per_client, kBasePort);
  RateMeter meter;
  std::uint64_t completed = 0;
  std::int64_t cpu = cpu_ns();
  drive(fabric, tracer, [&sessions] { return sessions.done(); },
        [&] {
          const std::int64_t now_cpu = cpu_ns();
          meter.add(sessions.completed() - completed, now_cpu - cpu);
          completed = sessions.completed();
          cpu = now_cpu;
        });
  const Counters after = snapshot(fabric, tracer);
  fabric.simulator().run_until();  // let the last closes finish
  sessions.report(result);

  m["ops_per_s"] = meter.median_rate();
  m["sim_goodput_mbps"] = m["session.goodput_mbps"];
  result.fingerprint["sim_goodput_mbps"] = m["sim_goodput_mbps"];
  layer_metrics(before, after, sessions.completed(), tracer, result);
  m["switchd.rules_mean"] = rules.mean;
  m["switchd.rules_max"] = rules.max;
  m["transport.retransmits"] = static_cast<double>(sessions.retransmits());
  // MAGA draws 2 (N-1) tuples per m-flow: N-1 MNs rewrite each direction.
  m["core.maga_retry_ratio"] =
      static_cast<double>(after.maga_retries - before.maga_retries) /
      (static_cast<double>(sessions.completed()) * 2.0 * (3 - 1));
  finish_run(fabric, result);
  return result;
}

}  // namespace perfbench
