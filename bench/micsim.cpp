// micsim: command-line scenario driver for the MIC simulator.
//
//   micsim [--system tcp|ssl|mic|mic-ssl|tor] [--flows N] [--bytes N[kmg]]
//          [--mns N] [--stripe F] [--decoys K] [--k K] [--seed S]
//          [--fail-link] [--loss P] [--ping N] [--verbose]
//
// Runs one measurement scenario on a k-ary fat-tree and prints setup time,
// goodput, latency and CPU cost -- the same metrics as the paper's
// evaluation, but for any parameter combination.  `--fail-link` cuts a
// link on the (first) channel's path mid-transfer and lets the MC repair
// it; `--loss` injects random loss on every link.  Exits non-zero unless
// every session runs to completion and, for MIC, the invariant audit is
// clean.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common.hpp"
#include "common/log.hpp"
#include "core/audit_registry.hpp"
#include "net/trace.hpp"

using namespace mic;
using bench::System;

namespace {

struct Args {
  std::string system = "mic";
  int flows = 1;           // concurrent sessions
  std::uint64_t bytes = 8ull << 20;
  int mns = 3;             // MIC route length / Tor relays
  int stripe = 1;          // MIC m-flows per channel
  int decoys = 0;
  int k = 4;
  std::uint64_t seed = 42;
  bool fail_link = false;
  double loss = 0.0;
  int ping = 0;
  bool verbose = false;
  std::string trace_path;
};

std::uint64_t parse_bytes(const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  switch (*end) {
    case 'k': case 'K': return static_cast<std::uint64_t>(v * 1024);
    case 'm': case 'M': return static_cast<std::uint64_t>(v * 1024 * 1024);
    case 'g': case 'G': return static_cast<std::uint64_t>(v * 1024 * 1024 * 1024);
    default: return static_cast<std::uint64_t>(v);
  }
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--system") {
      const char* v = next();
      if (!v) return false;
      args.system = v;
    } else if (flag == "--flows") {
      const char* v = next();
      if (!v) return false;
      args.flows = std::atoi(v);
    } else if (flag == "--bytes") {
      const char* v = next();
      if (!v) return false;
      args.bytes = parse_bytes(v);
    } else if (flag == "--mns") {
      const char* v = next();
      if (!v) return false;
      args.mns = std::atoi(v);
    } else if (flag == "--stripe") {
      const char* v = next();
      if (!v) return false;
      args.stripe = std::atoi(v);
    } else if (flag == "--decoys") {
      const char* v = next();
      if (!v) return false;
      args.decoys = std::atoi(v);
    } else if (flag == "--k") {
      const char* v = next();
      if (!v) return false;
      args.k = std::atoi(v);
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v) return false;
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--loss") {
      const char* v = next();
      if (!v) return false;
      args.loss = std::atof(v);
    } else if (flag == "--ping") {
      const char* v = next();
      if (!v) return false;
      args.ping = std::atoi(v);
    } else if (flag == "--trace") {
      const char* v = next();
      if (!v) return false;
      args.trace_path = v;
    } else if (flag == "--fail-link") {
      args.fail_link = true;
    } else if (flag == "--verbose") {
      args.verbose = true;
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

bool parse_system(const std::string& name, System& system) {
  static constexpr std::pair<const char*, System> kSystems[] = {
      {"tcp", System::kTcp},
      {"ssl", System::kSsl},
      {"mic", System::kMicTcp},
      {"mic-ssl", System::kMicSsl},
      {"tor", System::kTor}};
  for (const auto& [flag, value] : kSystems) {
    if (name == flag) {
      system = value;
      return true;
    }
  }
  return false;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: micsim [--system tcp|ssl|mic|mic-ssl|tor] [--flows N]\n"
      "              [--bytes N[kmg]] [--mns N] [--stripe F] [--decoys K]\n"
      "              [--k K] [--seed S] [--fail-link] [--loss P] [--ping N]\n"
      "              [--trace FILE] [--verbose]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  System system = System::kMicTcp;
  if (!parse_args(argc, argv, args) || !parse_system(args.system, system)) {
    usage();
    return 2;
  }
  const bool is_mic = bench::is_mic(system);
  const bool is_tor = system == System::kTor;
  if (args.fail_link && !is_mic) {
    std::fprintf(stderr, "--fail-link requires --system mic|mic-ssl\n");
    return 2;
  }

  core::FabricOptions options;
  options.k = args.k;
  options.seed = args.seed;
  options.link.random_drop_probability = args.loss;
  core::Fabric fabric(options);
  auto& simulator = fabric.simulator();
  if (args.verbose) mic::set_log_level(mic::LogLevel::kInfo);

  std::unique_ptr<net::TraceWriter> trace;
  if (!args.trace_path.empty()) {
    trace = std::make_unique<net::TraceWriter>(fabric.network(),
                                               args.trace_path);
  }

  const std::size_t n_hosts = fabric.host_count();
  std::vector<std::unique_ptr<tor::TorRelay>> relays;
  std::vector<tor::RelayAddr> relay_path;
  if (is_tor) {
    // Relays live on the upper first-half hosts, clients on the lower ones
    // and servers in the second half, so roles never share a machine.
    relay_path = bench::make_relays(fabric, relays, args.mns, n_hosts / 4);
  }

  bench::Sessions sessions;
  std::vector<transport::ByteStream*> clients;
  std::vector<std::unique_ptr<transport::BulkSink>> sinks;
  std::vector<std::unique_ptr<transport::BulkSender>> senders;
  std::vector<std::unique_ptr<transport::PingPongServer>> echo_servers;
  std::vector<std::unique_ptr<transport::PingPongClient>> pingers;
  auto attach_server = [&](transport::ByteStream& stream) {
    if (args.ping > 0) {
      echo_servers.push_back(
          std::make_unique<transport::PingPongServer>(stream));
    } else {
      sinks.push_back(
          std::make_unique<transport::BulkSink>(stream, simulator, args.bytes));
    }
  };
  auto attach_client = [&](transport::ByteStream& stream) {
    if (args.ping > 0) {
      pingers.push_back(std::make_unique<transport::PingPongClient>(
          stream, simulator, args.ping));
    } else {
      senders.push_back(
          std::make_unique<transport::BulkSender>(stream, args.bytes));
    }
  };

  core::MicChannelOptions mic;
  mic.mn_count = args.mns;
  mic.flow_count = args.stripe;
  mic.multicast_decoys = args.decoys;
  const std::size_t half = n_hosts / 2;
  // With Tor, relays occupy the upper quarter of the first half; keep
  // clients below them.
  const std::size_t client_pool = is_tor ? n_hosts / 4 : half;
  // A MIC or Tor client starts its app once the server sees the session; a
  // TCP or SSL client starts it at once.
  const bool client_waits = is_mic || is_tor;
  for (int i = 0; i < args.flows; ++i) {
    const std::size_t flow = static_cast<std::size_t>(i);
    clients.push_back(&bench::open_session(
        fabric, sessions, system, flow % client_pool, half + flow % half,
        static_cast<net::L4Port>(5000 + i), mic, relay_path,
        [&, flow](transport::ByteStream& server_stream) {
          attach_server(server_stream);
          if (client_waits) attach_client(*clients[flow]);
        }));
    if (!client_waits) attach_client(*clients.back());
  }

  // Optional mid-transfer failure on the first MIC channel's path.
  if (args.fail_link) {
    simulator.run_until(simulator.now() + sim::milliseconds(10));
    const auto* state =
        fabric.mc().channel(sessions.mic_channels.front()->id());
    if (state != nullptr) {
      const auto& path = state->flows[0].path;
      const topo::LinkId victim = fabric.network().graph().link_between(
          path[path.size() / 2], path[path.size() / 2 + 1]);
      fabric.network().set_link_up(victim, false);
      const auto outcome = fabric.mc().fail_link(victim);
      std::printf("injected failure on link %u: repaired=%zu lost=%zu\n",
                  victim, outcome.repaired, outcome.lost);
    }
  }

  simulator.run_until();

  // --- report -------------------------------------------------------------------
  std::printf("system=%s k=%d flows=%d seed=%llu", args.system.c_str(),
              args.k, args.flows,
              static_cast<unsigned long long>(args.seed));
  if (is_mic) {
    std::printf(" mns=%d stripe=%d decoys=%d", args.mns, args.stripe,
                args.decoys);
  }
  if (is_tor) std::printf(" relays=%d", args.mns);
  if (args.loss > 0) std::printf(" loss=%.3f", args.loss);
  std::printf("\n");

  int done = 0;  // sessions that ran to completion
  if (args.ping > 0) {
    double sum = 0;
    for (const auto& ping : pingers) {
      sum += ping->mean_rtt_us();
      if (ping->rtts().size() == static_cast<std::size_t>(args.ping)) ++done;
    }
    std::printf("mean RTT: %.1f us over %d rounds x %d flows\n",
                sum / static_cast<double>(pingers.size()), args.ping,
                args.flows);
  } else {
    double mbps = 0;
    for (const auto& sink : sinks) {
      if (sink->finished()) {
        ++done;
        mbps += sink->goodput_bps() / 1e6;
      }
    }
    std::printf("%d/%d transfers finished; mean goodput %.1f Mb/s\n", done,
                args.flows, done > 0 ? mbps / done : 0.0);
  }
  for (const auto& channel : sessions.mic_channels) {
    if (channel->failed()) {
      std::printf("channel error: %s\n", channel->error().c_str());
    }
  }
  if (trace != nullptr) {
    std::printf("trace: %llu packets -> %s\n",
                static_cast<unsigned long long>(trace->entries_written()),
                args.trace_path.c_str());
  }
  std::printf("simulated time: %.1f ms, drops: %llu\n",
              sim::to_millis(simulator.now()),
              static_cast<unsigned long long>(
                  fabric.network().total_drops()));
  if (is_mic) {
    const auto report = mic::audit::run_all(fabric);
    std::printf("invariant audit: %s (%s)\n",
                report.ok ? "CLEAN" : "VIOLATIONS",
                report.summary().c_str());
    if (!report.ok) return 1;
  }
  return done == args.flows ? 0 : 1;
}
