#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include "core/audit_registry.hpp"

namespace perfbench {

using mic::core::MicChannel;
using mic::core::MicChannelOptions;
using mic::core::MicServer;
using mic::core::MicServerChannel;
using mic::transport::Chunk;
using mic::transport::ChunkView;

std::unique_ptr<Fabric> build_fabric(std::uint64_t seed, Tracer& tracer) {
  mic::core::FabricOptions options;
  options.k = 8;
  options.seed = seed;
  options.install_default_routing = false;
  auto fabric = std::make_unique<Fabric>(options);
  const auto span = tracer.span("ctrl.install_default_routing");
  fabric->mc().install_default_routing();
  return fabric;
}

std::vector<std::size_t> hosts_in_pods(Fabric& fabric, int first_pod,
                                       int last_pod) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < fabric.host_count(); ++i) {
    const int pod = fabric.fattree().pod_of(fabric.host_node(i));
    if (pod >= first_pod && pod <= last_pod) out.push_back(i);
  }
  return out;
}

bool drive(Fabric& fabric, Tracer& tracer, const std::function<bool()>& done,
           const std::function<void()>& on_slice) {
  auto& simulator = fabric.simulator();
  while (!done()) {
    if (simulator.now() >= kSimCap) return false;
    {
      const auto span = tracer.span("sim.run_until");
      simulator.run_until(simulator.now() + kSlice);
    }
    if (on_slice) on_slice();
    rotate_cpu_if_due();
  }
  return true;
}

std::uint64_t packet_hops(Fabric& fabric) {
  auto& network = fabric.network();
  std::uint64_t hops = 0;
  for (std::size_t l = 0; l < network.graph().link_count(); ++l) {
    hops += network.stats(static_cast<mic::topo::LinkId>(l), 0).packets;
    hops += network.stats(static_cast<mic::topo::LinkId>(l), 1).packets;
  }
  return hops;
}

Counters snapshot(Fabric& fabric, const Tracer& tracer) {
  Counters c;
  c.run_until_ns = static_cast<std::uint64_t>(tracer.total("sim.run_until"));
  auto& mc = fabric.mc();
  const auto& sched = fabric.simulator().stats();
  c.events = sched.fired;
  c.heap_callbacks = sched.heap_callbacks;
  c.pool_nodes = sched.nodes_allocated;
  auto& network = fabric.network();
  for (std::size_t l = 0; l < network.graph().link_count(); ++l) {
    for (int dir = 0; dir < 2; ++dir) {
      const auto& stats =
          network.stats(static_cast<mic::topo::LinkId>(l), dir);
      c.packet_hops += stats.packets;
      c.drops += stats.drops;
    }
  }
  const auto table = mc.aggregate_table_stats();
  c.lookups = table.lookups;
  c.index_hits = table.index_hits;
  c.scan_fallbacks = table.scan_fallbacks;
  c.rules_installed = mc.rules_installed();
  for (std::size_t i = 0; i < fabric.host_count(); ++i) {
    c.host_busy_ns += fabric.host(i).cpu().busy_time();
  }
  c.mc_busy_ns = mc.mc_cpu().busy_time();
  const auto paths = mc.paths().stats();
  c.rows_computed = paths.rows_computed;
  c.row_hits = paths.row_hits;
  c.admission_shed = mc.admission().stats().shed;
  c.journal_compactions = mc.journal().compactions();
  c.maga_retries = mc.registry().generation_retries();
  c.allocations = allocations();
  c.cpu = cpu_ns();
  c.wall = wall_ns();
  return c;
}

RuleCounts rule_counts(Fabric& fabric) {
  RuleCounts out;
  std::size_t switches = 0;
  double sum = 0;
  for (const auto sw : fabric.network().graph().switches()) {
    const auto rules =
        static_cast<double>(fabric.mc().switch_at(sw)->table().rule_count());
    sum += rules;
    out.max = std::max(out.max, rules);
    ++switches;
  }
  out.mean = switches == 0 ? 0 : sum / static_cast<double>(switches);
  return out;
}

namespace {
double ratio(double num, double den) { return den == 0 ? 0 : num / den; }
}  // namespace

void layer_metrics(const Counters& before, const Counters& after,
                   std::uint64_t ops, const Tracer& tracer, Result& result) {
  auto& m = result.metrics;
  const auto d = [&](std::uint64_t Counters::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  const double events = d(&Counters::events);
  const double hops = d(&Counters::packet_hops);
  const double ops_d = static_cast<double>(ops);
  const double run_until_ns = d(&Counters::run_until_ns);
  m["sim.run_until_s"] = run_until_ns / 1e9;
  m["sim.ns_per_event"] = ratio(run_until_ns, events);
  m["sim.events_per_op"] = ratio(events, ops_d);
  m["sim.heap_callbacks"] = d(&Counters::heap_callbacks);
  m["sim.pool_nodes"] = static_cast<double>(after.pool_nodes);
  m["net.packet_hops"] = hops;
  m["net.drop_ratio"] = ratio(d(&Counters::drops), hops + d(&Counters::drops));
  m["switchd.index_hit_ratio"] =
      ratio(d(&Counters::index_hits), d(&Counters::lookups));
  m["switchd.scan_fallbacks"] = d(&Counters::scan_fallbacks);
  m["switchd.rules_installed"] = d(&Counters::rules_installed);
  m["transport.host_busy_ms"] = d(&Counters::host_busy_ns) / 1e6;
  m["topology.rows_computed"] = d(&Counters::rows_computed);
  m["topology.row_hit_ratio"] =
      ratio(d(&Counters::row_hits),
            d(&Counters::row_hits) + d(&Counters::rows_computed));
  m["ctrl.default_routing_s"] =
      median(tracer.durations("ctrl.install_default_routing")) / 1e9;
  m["ctrl.admission_shed"] = static_cast<double>(after.admission_shed);
  m["core.journal_compactions_per_op"] =
      ratio(d(&Counters::journal_compactions), ops_d);
  m["core.mc_busy_ms"] = d(&Counters::mc_busy_ns) / 1e6;
  m["process.allocs_per_op"] = ratio(d(&Counters::allocations), ops_d);
  m["harness.cpu_per_wall"] =
      ratio(static_cast<double>(after.cpu - before.cpu),
            static_cast<double>(after.wall - before.wall));

  auto& f = result.fingerprint;
  f["sim.events"] = events;
  f["net.packet_hops"] = hops;
  f["switchd.rules_installed"] = m["switchd.rules_installed"];
  f["core.journal_compactions_per_op"] = m["core.journal_compactions_per_op"];
  f["ops"] = ops_d;
}

void finish_run(Fabric& fabric, Result& result) {
  const auto report = mic::audit::run_all(fabric);
  if (!report.ok) result.fail("audit: " + report.first_violation());

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.metrics["process.peak_rss_mb"] =
      static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  // The peak follows transient buffering, which in bulk moved between 127
  // and 197 MiB across seeds; the heap the end state holds does not, and
  // still shows per-session state that is never freed.
  const struct mallinfo2 heap = mallinfo2();
  result.metrics["heap_mb"] =
      static_cast<double>(heap.uordblks + heap.hblkhd) / (1024.0 * 1024.0);
}

void register_clients(Fabric& fabric, Tracer& tracer,
                      const std::vector<std::size_t>& clients) {
  auto& mc = fabric.mc();
  for (const std::size_t c : clients) {
    const auto span = tracer.span("core.register_client");
    mc.register_client(fabric.ip(c));
  }
  const SimTime drained = mc.mc_cpu().free_at();
  drive(fabric, tracer,
        [&] { return fabric.simulator().now() >= drained; });
}

// --- Sessions ----------------------------------------------------------------

struct Sessions::Client {
  std::size_t host = 0;
  std::size_t server_host = 0;
  int done = 0;
  bool broken = false;
  std::uint64_t session = 0;
  std::uint64_t received = 0;
  SimTime opened_at = 0;
  SimTime ready_at = 0;
  std::unique_ptr<MicServer> server;
  std::unique_ptr<MicChannel> channel;
  // A closed session's transport may still call into its channel and server
  // while the FIN exchange finishes, so they are freed when the client's
  // next session finishes, long after that exchange is over.
  std::unique_ptr<MicServer> closed_server;
  std::unique_ptr<MicChannel> closed_channel;
};

Sessions::Sessions(Fabric& fabric, Tracer& tracer,
                   std::vector<std::size_t> clients,
                   std::vector<std::size_t> servers,
                   std::vector<SimTime> offsets, int per_client,
                   mic::net::L4Port base_port)
    : fabric_(fabric), tracer_(tracer), per_client_(per_client),
      base_port_(base_port) {
  auto& simulator = fabric.simulator();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    auto client = std::make_unique<Client>();
    client->host = clients[i];
    client->server_host = servers[i];
    Client* raw = client.get();
    clients_.push_back(std::move(client));
    simulator.schedule_in(offsets[i], [this, raw] { open(*raw); });
  }
}

Sessions::~Sessions() = default;

bool Sessions::done() const {
  for (const auto& c : clients_) {
    if (c->done < per_client_ && !c->broken) return false;
  }
  return true;
}

std::uint64_t Sessions::attempted() const {
  return static_cast<std::uint64_t>(clients_.size()) *
         static_cast<std::uint64_t>(per_client_);
}

void Sessions::open(Client& c) {
  auto& simulator = fabric_.simulator();
  // Every session meets a fresh MicServer on a fresh listener port.  The
  // responder keeps closed connections, and the MC may present an address
  // an earlier, closed session of the same pair used; on a reused port the
  // new SYN would land on that dead connection and the session would hang.
  const auto port = static_cast<mic::net::L4Port>(base_port_ + c.done);
  c.server = std::make_unique<MicServer>(fabric_.host(c.server_host), port,
                                         fabric_.rng());
  c.server->set_on_channel([this](MicServerChannel& ch) {
    ch.set_on_data([this, &ch, got = std::uint64_t{0}](
                       const ChunkView& view) mutable {
      got += view.length;
      if (got == kRequest) {
        ch.send(Chunk::virtual_bytes(kResponse));
      } else if (got > kRequest) {
        ++server_errors_;
      }
    });
  });
  MicChannelOptions options;
  options.responder_ip = fabric_.ip(c.server_host);
  options.responder_port = port;
  options.flow_count = 1;
  options.mn_count = 3;
  c.session = next_session_++;
  c.received = 0;
  c.opened_at = simulator.now();
  {
    const auto span = tracer_.span("core.open_channel", c.session);
    c.channel = std::make_unique<MicChannel>(fabric_.host(c.host),
                                             fabric_.mc(), options,
                                             fabric_.rng());
  }
  MicChannel* ch = c.channel.get();
  ch->set_on_ready([&simulator, &c, ch] {
    c.ready_at = simulator.now();
    ch->send(Chunk::virtual_bytes(kRequest));
  });
  ch->set_on_data([this, &simulator, &c](const ChunkView& view) {
    c.received += view.length;
    if (c.received == kResponse) {
      // Close outside the transport callback that delivered the bytes.
      simulator.schedule_in(0, [this, &c] { finish(c); });
    } else if (c.received > kResponse) {
      c.broken = true;
    }
  });
  ch->set_on_lost([&c](const std::string&) { c.broken = true; });
}

void Sessions::finish(Client& c) {
  const SimTime now = fabric_.simulator().now();
  setup_ms_.push_back(static_cast<double>(c.channel->setup_time()) / 1e6);
  session_ms_.push_back(static_cast<double>(now - c.opened_at) / 1e6);
  goodput_mbps_.push_back(static_cast<double>(kRequest + kResponse) * 8.0 *
                          1e3 / static_cast<double>(now - c.ready_at));
  const std::int32_t root = tracer_.sim_span(
      "session", c.session, -1, static_cast<std::int64_t>(c.opened_at),
      static_cast<std::int64_t>(now));
  tracer_.sim_span("channel_setup", c.session, root,
                   static_cast<std::int64_t>(c.opened_at),
                   static_cast<std::int64_t>(c.ready_at));
  tracer_.sim_span("exchange", c.session, root,
                   static_cast<std::int64_t>(c.ready_at),
                   static_cast<std::int64_t>(now));
  // Read before closing: the program may free a connection once it closes.
  if (c.channel->flow_count() > 0) {
    retransmits_ += c.channel->debug_tcp(0)->retransmissions();
  }
  {
    const auto span = tracer_.span("core.close_channel", c.session);
    c.channel->close();
  }
  c.closed_channel = std::move(c.channel);  // frees the previous session's
  c.closed_server = std::move(c.server);
  ++completed_;
  if (++c.done < per_client_) open(c);
}

void Sessions::report(Result& result) const {
  result.attempted += attempted();
  for (const auto& c : clients_) {
    if (c->broken) result.fail("session broken (lost channel or extra bytes)");
    for (int i = c->done; i < per_client_; ++i) {
      result.fail("session not completed");
    }
  }
  for (std::uint64_t i = 0; i < server_errors_; ++i) {
    result.fail("server received more request bytes than sent");
  }
  auto& m = result.metrics;
  // The uncontended setup is the same 0.80 ms for every seed (Fig. 7 is
  // flat), so its median cannot tell runs apart; the mean carries the MC
  // queueing that concurrent sessions meet.
  m["sim_setup_mean_ms"] = mean(setup_ms_);
  m["sim_setup_p99_ms"] = percentile(setup_ms_, 0.99);
  m["sim_session_p50_ms"] = percentile(session_ms_, 0.50);
  m["sim_session_p99_ms"] = percentile(session_ms_, 0.99);
  m["session.goodput_mbps"] = mean(goodput_mbps_);
  for (const char* key : {"sim_setup_mean_ms", "sim_setup_p99_ms",
                          "sim_session_p50_ms", "sim_session_p99_ms"}) {
    result.fingerprint[key] = m[key];
  }
}

std::vector<SimTime> start_offsets(std::uint64_t seed, std::size_t count) {
  mic::Rng rng(seed ^ 0x0FF5E7ULL);
  std::vector<SimTime> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(rng.below(mic::sim::milliseconds(1)));
  }
  return out;
}

std::uint64_t probe_latency(Fabric& fabric, Tracer& tracer,
                            const std::vector<std::size_t>& clients,
                            const std::vector<std::size_t>& servers,
                            std::uint64_t seed, mic::net::L4Port port,
                            Result& result) {
  Sessions probe(fabric, tracer, clients, servers,
                 start_offsets(seed, clients.size()), kProbeSessions, port);
  drive(fabric, tracer, [&probe] { return probe.done(); });
  fabric.simulator().run_until();  // let the last closes finish
  probe.report(result);
  return probe.attempted();
}

}  // namespace perfbench
