// Macro dataplane benchmark: end-to-end packet-hops per second of
// wall-clock time on a fat-tree carrying MIC channels.
//
// Channels are established, warm-up transfers fill TCP windows and the
// payload arena, then the measured bulk phase runs.  Warm-up repeats until
// a whole round allocates no arena buffer (at most kMaxWarmupRounds), so
// the measured phase starts in steady state.  The bench reports the arena
// counters across the measured phase; `--smoke` requires them to show no
// allocation and some reuse.
//
//   --smoke               tiny k=4 run + steady-state check (CI)
//   --k N                 fat-tree arity (default 8)
//   --flows N             concurrent MIC channels (default 8)
//   --mb N                MiB per flow in the measured phase (default 4)
//   --reps N              best-of-N (noise control)
//   --sweep_json PATH     write every rep as JSON
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fabric.hpp"
#include "core/mic_client.hpp"
#include "transport/arena.hpp"

namespace {

using mic::core::Fabric;
using mic::core::FabricOptions;
using mic::core::MicChannel;
using mic::core::MicChannelOptions;
using mic::core::MicServer;
using mic::transport::Chunk;
using mic::transport::PayloadArena;

constexpr int kMaxWarmupRounds = 8;

struct RunConfig {
  int k = 8;
  int flows = 8;
  std::uint64_t bytes_per_flow = 4ull << 20;
  std::uint64_t seed = 42;
};

struct RunResult {
  bool ok = false;
  double wall_s = 0.0;
  double pps = 0.0;            // packet-hops per wall-clock second
  std::uint64_t packets = 0;   // packet-hops in the measured phase
  std::uint64_t sim_ns = 0;    // simulated time the phase covered
  int warmup_rounds = 0;
  std::uint64_t arena_allocs = 0;  // heap allocations in the measured phase
  std::uint64_t arena_reuses = 0;  // arena refills in the measured phase
};

std::uint64_t total_link_packets(mic::net::Network& network) {
  std::uint64_t packets = 0;
  const std::size_t links = network.graph().link_count();
  for (std::size_t l = 0; l < links; ++l) {
    packets += network.stats(static_cast<mic::topo::LinkId>(l), 0).packets;
    packets += network.stats(static_cast<mic::topo::LinkId>(l), 1).packets;
  }
  return packets;
}

RunResult run_one(const RunConfig& config) {
  RunResult result;
  FabricOptions options;
  options.k = config.k;
  options.seed = config.seed;
  Fabric fabric(options);
  auto& simulator = fabric.simulator();

  // Clients in the lower half of the pods, servers in the upper half:
  // every channel crosses pods, so the bulk phase exercises edge,
  // aggregation AND core links.
  const std::size_t hosts = fabric.host_count();
  std::vector<std::unique_ptr<MicServer>> servers;
  std::vector<std::unique_ptr<MicChannel>> channels;
  std::size_t accepted = 0;
  std::uint64_t delivered = 0;  // payload bytes the servers received
  for (int i = 0; i < config.flows; ++i) {
    const std::size_t client = static_cast<std::size_t>(i) % (hosts / 2);
    const std::size_t server =
        hosts / 2 + static_cast<std::size_t>(i) % (hosts / 2);
    const mic::net::L4Port port = static_cast<mic::net::L4Port>(7000 + i);
    servers.push_back(std::make_unique<MicServer>(fabric.host(server), port,
                                                  fabric.rng()));
    servers.back()->set_on_channel(
        [&accepted, &delivered](mic::core::MicServerChannel& ch) {
          ++accepted;
          ch.set_on_data([&delivered](const mic::transport::ChunkView& view) {
            delivered += view.length;
          });
        });
    MicChannelOptions mic_options;
    mic_options.responder_ip = fabric.ip(server);
    mic_options.responder_port = port;
    mic_options.mn_count = 3;
    mic_options.flow_count = 2;
    channels.push_back(std::make_unique<MicChannel>(
        fabric.host(client), fabric.mc(), mic_options, fabric.rng()));
  }
  simulator.run_until();
  for (const auto& channel : channels) {
    if (!channel->ready()) {
      std::fprintf(stderr, "macro_dataplane: channel setup failed\n");
      return result;
    }
  }

  // Warm-up: rounds the size of the measured phase fill TCP windows, fault
  // in server channels and grow the payload arena, until a round reaches
  // the in-flight high-water mark without allocating.
  PayloadArena& arena = PayloadArena::local();
  std::uint64_t sent_per_flow = 0;
  while (result.warmup_rounds < kMaxWarmupRounds) {
    const std::uint64_t allocs_before = arena.stats().allocations;
    for (const auto& channel : channels) {
      channel->send(Chunk::virtual_bytes(config.bytes_per_flow));
    }
    sent_per_flow += config.bytes_per_flow;
    simulator.run_until();
    ++result.warmup_rounds;
    if (arena.stats().allocations == allocs_before) break;
  }

  const PayloadArena::Stats arena_before = arena.stats();
  const std::uint64_t packets_before = total_link_packets(fabric.network());
  const std::uint64_t sim_before = simulator.now();

  const auto wall_start = std::chrono::steady_clock::now();
  for (const auto& channel : channels) {
    channel->send(Chunk::virtual_bytes(config.bytes_per_flow));
  }
  simulator.run_until();
  const auto wall_end = std::chrono::steady_clock::now();
  sent_per_flow += config.bytes_per_flow;

  const std::uint64_t expected =
      sent_per_flow * static_cast<std::uint64_t>(config.flows);
  if (accepted != static_cast<std::size_t>(config.flows) ||
      delivered != expected) {
    std::fprintf(stderr,
                 "macro_dataplane: %zu/%d channels delivered %llu of %llu "
                 "bytes\n",
                 accepted, config.flows,
                 static_cast<unsigned long long>(delivered),
                 static_cast<unsigned long long>(expected));
    return result;
  }

  result.packets = total_link_packets(fabric.network()) - packets_before;
  result.sim_ns = simulator.now() - sim_before;
  result.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.pps = result.wall_s > 0
                   ? static_cast<double>(result.packets) / result.wall_s
                   : 0.0;
  result.arena_allocs = arena.stats().allocations - arena_before.allocations;
  result.arena_reuses = arena.stats().reuses - arena_before.reuses;
  result.ok = true;
  return result;
}

void print_result(const RunConfig& config, const RunResult& result) {
  std::printf(
      "k=%d flows=%d  pps=%.0f  packets=%llu  wall=%.3fs  warmup_rounds=%d  "
      "arena_allocs=%llu  arena_reuses=%llu\n",
      config.k, config.flows, result.pps,
      static_cast<unsigned long long>(result.packets), result.wall_s,
      result.warmup_rounds,
      static_cast<unsigned long long>(result.arena_allocs),
      static_cast<unsigned long long>(result.arena_reuses));
}

int run_smoke() {
  // Tiny but complete: a k=4 fabric whose measured phase must run entirely
  // on recycled arena buffers.
  RunConfig config;
  config.k = 4;
  config.flows = 4;
  config.bytes_per_flow = 1 << 20;
  const RunResult result = run_one(config);
  print_result(config, result);
  if (!result.ok) return 1;
  if (result.arena_allocs != 0 || result.arena_reuses == 0) {
    std::fprintf(stderr,
                 "smoke: steady state allocated (%llu allocs, %llu reuses)\n",
                 static_cast<unsigned long long>(result.arena_allocs),
                 static_cast<unsigned long long>(result.arena_reuses));
    return 1;
  }
  std::printf("smoke OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 1;
  std::string sweep_json;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--k") == 0) {
      config.k = std::atoi(next("--k"));
    } else if (std::strcmp(argv[i], "--flows") == 0) {
      config.flows = std::atoi(next("--flows"));
    } else if (std::strcmp(argv[i], "--mb") == 0) {
      config.bytes_per_flow =
          static_cast<std::uint64_t>(std::atoi(next("--mb"))) << 20;
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps = std::max(1, std::atoi(next("--reps")));
    } else if (std::strcmp(argv[i], "--sweep_json") == 0) {
      sweep_json = next("--sweep_json");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (smoke) return run_smoke();

  std::printf("# macro_dataplane: k=%d, %d MIC channels, %llu MiB each\n",
              config.k, config.flows,
              static_cast<unsigned long long>(config.bytes_per_flow >> 20));
  std::vector<RunResult> runs;
  for (int rep = 0; rep < reps; ++rep) {
    runs.push_back(run_one(config));
    if (!runs.back().ok) return 1;
    print_result(config, runs.back());
  }
  const RunResult& best = *std::max_element(
      runs.begin(), runs.end(),
      [](const RunResult& a, const RunResult& b) { return a.pps < b.pps; });
  std::printf("# best of %d: %.0f packet-hops/s\n", reps, best.pps);

  if (!sweep_json.empty()) {
    std::FILE* f = std::fopen(sweep_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", sweep_json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"macro_dataplane\",\n");
    std::fprintf(f, "  \"k\": %d,\n  \"flows\": %d,\n", config.k,
                 config.flows);
    std::fprintf(f, "  \"bytes_per_flow\": %llu,\n",
                 static_cast<unsigned long long>(config.bytes_per_flow));
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunResult& run = runs[i];
      std::fprintf(
          f,
          "    {\"pps\": %.0f, \"packets\": %llu, \"wall_s\": %.6f, "
          "\"sim_ns\": %llu, \"warmup_rounds\": %d, \"arena_allocs\": %llu, "
          "\"arena_reuses\": %llu}%s\n",
          run.pps, static_cast<unsigned long long>(run.packets), run.wall_s,
          static_cast<unsigned long long>(run.sim_ns), run.warmup_rounds,
          static_cast<unsigned long long>(run.arena_allocs),
          static_cast<unsigned long long>(run.arena_reuses),
          i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"best_pps\": %.0f\n}\n", best.pps);
    std::fclose(f);
    std::printf("# wrote %s\n", sweep_json.c_str());
  }
  return 0;
}
