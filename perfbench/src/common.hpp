// What the three workloads share: the k=8 test bed, the simulated-time
// slice loop, counter snapshots taken at the same boundaries as the
// spans, and the request/response session client that `rpc` runs and the
// latency probe reuses.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "core/mic_client.hpp"
#include "harness.hpp"

namespace perfbench {

using mic::core::Fabric;
using mic::sim::SimTime;

struct RunContext {
  std::uint64_t seed = 1;
  int seconds = 10;
  Tracer& tracer;
};

/// One workload's outcome.  `metrics` holds every figure the workload
/// measured (end-to-end and per-layer); `fingerprint` holds the counts that
/// must repeat exactly per seed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  std::map<std::string, double> fingerprint;

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

/// Simulated time one run_until call advances, in both modes.
inline constexpr SimTime kSlice = mic::sim::milliseconds(1);
/// A workload whose fixed work has not finished by then has failed.
inline constexpr SimTime kSimCap = mic::sim::seconds(120);

/// Build the start state `repeats` times, each starting on the next CPU, and
/// keep the last build.  `setup_s` receives the median CPU seconds of one.
/// The host's speed shifts for spells of a few seconds, so each workload
/// repeats its set-up for a few seconds of CPU in all.
template <typename Build>
auto timed_setup(int repeats, const Build& build, double& setup_s) {
  decltype(build()) bed;
  std::vector<std::int64_t> ns;
  for (int i = 0; i < repeats; ++i) {
    bed.reset();
    move_to_next_cpu();
    const std::int64_t start = cpu_ns();
    bed = build();
    ns.push_back(cpu_ns() - start);
  }
  setup_s = median(ns) / 1e9;
  return bed;
}

/// k=8 fat-tree with default MicConfig/ControllerConfig.  Default routing
/// is installed here rather than inside Fabric's constructor so the traced
/// run can time it.
std::unique_ptr<Fabric> build_fabric(std::uint64_t seed, Tracer& tracer);

/// Hosts (fabric indices) whose pod lies in [first_pod, last_pod].
std::vector<std::size_t> hosts_in_pods(Fabric& fabric, int first_pod,
                                       int last_pod);

/// Advance the simulator one kSlice at a time until `done()` holds, calling
/// `on_slice()` after each slice.  False if kSimCap passes first.
bool drive(Fabric& fabric, Tracer& tracer, const std::function<bool()>& done,
           const std::function<void()>& on_slice = {});

/// Σ packets delivered over every link direction.
std::uint64_t packet_hops(Fabric& fabric);

/// Public counters read at phase boundaries.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t heap_callbacks = 0;
  std::uint64_t pool_nodes = 0;
  std::uint64_t packet_hops = 0;
  std::uint64_t drops = 0;
  std::uint64_t lookups = 0;
  std::uint64_t index_hits = 0;
  std::uint64_t scan_fallbacks = 0;
  std::uint64_t rules_installed = 0;
  std::uint64_t host_busy_ns = 0;
  std::uint64_t mc_busy_ns = 0;
  std::uint64_t rows_computed = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t admission_shed = 0;
  std::uint64_t journal_compactions = 0;
  std::uint64_t maga_retries = 0;
  std::uint64_t allocations = 0;
  std::uint64_t run_until_ns = 0;  // CPU inside traced run_until slices
  std::int64_t cpu = 0;
  std::int64_t wall = 0;
};
Counters snapshot(Fabric& fabric, const Tracer& tracer);

/// Rule counts over every switch's flow table.
struct RuleCounts {
  double mean = 0;
  double max = 0;
};
RuleCounts rule_counts(Fabric& fabric);

/// Fill the per-layer metrics every workload reports from two snapshots
/// around the measured phase.
void layer_metrics(const Counters& before, const Counters& after,
                   std::uint64_t ops, const Tracer& tracer, Result& result);

/// Run the invariant audit (a dirty audit fails the run), then record the
/// heap the end state holds and the process's peak resident set.
void finish_run(Fabric& fabric, Result& result);

/// Register clients with the MC and let its key-exchange backlog drain.
void register_clients(Fabric& fabric, Tracer& tracer,
                      const std::vector<std::size_t>& clients);

/// Closed-loop request/response sessions: each client opens a fresh
/// MicChannel (F=1, N=3), sends `request` bytes, waits for `response`
/// bytes, closes, and starts the next session, `per_client` times.
class Sessions {
 public:
  static constexpr std::uint64_t kRequest = 1024;
  static constexpr std::uint64_t kResponse = 4096;

  /// Clients and servers are paired by index; session k of a pair talks
  /// to a MicServer on port base_port + k.  Client i starts at now +
  /// offsets[i].
  Sessions(Fabric& fabric, Tracer& tracer, std::vector<std::size_t> clients,
           std::vector<std::size_t> servers, std::vector<SimTime> offsets,
           int per_client, mic::net::L4Port base_port);
  ~Sessions();
  Sessions(const Sessions&) = delete;
  Sessions& operator=(const Sessions&) = delete;

  bool done() const;
  /// Sessions completed since construction.
  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t attempted() const;

  /// Record failures (incomplete or broken sessions) into `result` and
  /// fill the simulated-time metrics from every completed session.
  void report(Result& result) const;
  /// Σ retransmissions over the client-side m-flow connections, read as
  /// each session completes.
  std::uint64_t retransmits() const noexcept { return retransmits_; }

 private:
  struct Client;

  void open(Client& client);
  void finish(Client& client);

  Fabric& fabric_;
  Tracer& tracer_;
  int per_client_;
  mic::net::L4Port base_port_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::uint64_t completed_ = 0;
  std::uint64_t next_session_ = 1;
  std::uint64_t server_errors_ = 0;
  std::uint64_t retransmits_ = 0;
  std::vector<double> setup_ms_;
  std::vector<double> session_ms_;
  std::vector<double> goodput_mbps_;
};

/// Latency probe for workloads whose own ops carry no simulated latency:
/// clients[i] runs kProbeSessions request/response sessions against
/// servers[i], starting at a seeded offset (1,024 sessions for 32 clients,
/// so p99 has ten samples beyond it).  Runs outside every timed phase
/// and fills the sim_setup_* / sim_session_* metrics.  Returns the number of
/// sessions run.
inline constexpr int kProbeSessions = 32;
std::uint64_t probe_latency(Fabric& fabric, Tracer& tracer,
                            const std::vector<std::size_t>& clients,
                            const std::vector<std::size_t>& servers,
                            std::uint64_t seed, mic::net::L4Port port,
                            Result& result);

/// Start offsets for `count` session clients, uniform in [0, 1 ms).
std::vector<SimTime> start_offsets(std::uint64_t seed, std::size_t count);

Result run_bulk(const RunContext& ctx);
Result run_churn(const RunContext& ctx);
Result run_rpc(const RunContext& ctx);

}  // namespace perfbench
