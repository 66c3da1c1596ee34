// Bench: controller crash-recovery (journal replay + switch resync).
//
// Establishes N mimic channels, lets the fabric reach quiescence, then
// crashes the MC and measures the wall time of recover(): journal replay,
// per-switch flow-table dump, three-way diff and reconciliation.  Two
// modes per channel count -- "clean" recovers from the intact journal
// (every channel should be kept in place), "truncated" recovers from a
// tail-truncated copy (a crash that lost the last commits; the resync
// sweep must remove the now-unexplained rules as orphans).  Each point is
// re-checked with audit::run_all (FT-1/CA-1/PE-1/FD-1/RC-1) so the
// latency numbers only count if the recovery was actually correct.
//
// A second sweep measures warm-standby failover end to end: primary +
// standby, kill the primary, and record the *simulated* takeover latency
// (kill -> standby active; dominated by the missed-heartbeat budget) plus
// how much of the channel population the replica still knew, across
// channel count x replication lag.
//
//   controller_recovery           # full sweep: N in {1, 4, 16, 64, 2048}
//   controller_recovery --smoke   # CI-sized: N in {1, 4}, single rep
//
// 2,048 channels is twice the default journal compaction floor (1,024
// records), so the full sweep also times recover()'s journal rebuild
// above the floor.  Prints the simulated outcomes on stdout (the --smoke
// output is gated byte for byte in bench/golden/) and writes
// BENCH_recovery.json, with the wall times and the provenance of the build
// it ran on (bench/provenance.hpp), in the CWD.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/audit_registry.hpp"
#include "core/channel_journal.hpp"
#include "core/fabric.hpp"
#include "ctrl/standby.hpp"
#include "provenance.hpp"

namespace {

using namespace mic;
using core::EstablishRequest;
using core::Fabric;
using core::FabricOptions;

/// How many tail records the truncated mode drops: enough to lose the
/// last channel's establish record, so recovery must sweep its rules.
constexpr std::size_t kTruncateRecords = 2;

/// Channel i: initiator host i%8 (pods 0/1), responder 8 + i%8 (pods 2/3),
/// a unique port per channel.  Raw listeners are enough -- this bench
/// exercises the control plane, not payload delivery.  The caller decides
/// how to settle: an unbounded run only quiesces when no standby probe
/// loop is ticking.
void establish_channels(Fabric& fabric, int channels) {
  for (int i = 0; i < channels; ++i) {
    const std::size_t responder = 8 + static_cast<std::size_t>(i % 8);
    const net::L4Port port = static_cast<net::L4Port>(7000 + i);
    fabric.host(responder).listen(port, [](transport::TcpConnection&) {});
    EstablishRequest r;
    r.initiator_ip = fabric.ip(static_cast<std::size_t>(i % 8));
    r.responder_ip = fabric.ip(responder);
    r.responder_port = port;
    r.flow_count = 1 + i % 2;
    for (int f = 0; f < r.flow_count; ++f) {
      r.initiator_sports.push_back(
          static_cast<net::L4Port>(30000 + 10 * i + f));
    }
    const core::EstablishResult result = fabric.mc().establish(r);
    if (!result.ok) {
      std::fprintf(stderr, "establish failed: %s\n", result.error.c_str());
      std::exit(1);
    }
  }
}

struct Rig {
  explicit Rig(int channels) {
    FabricOptions options;
    options.seed = 11;
    fabric = std::make_unique<Fabric>(options);
    establish_channels(*fabric, channels);
    fabric->simulator().run_until();
  }

  std::unique_ptr<Fabric> fabric;
};

struct Point {
  int channels = 0;
  bool truncated = false;
  double recover_wall_ms = 0.0;
  std::size_t journal_records = 0;
  core::MimicController::RecoveryReport report;
  bool audit_ok = false;
};

Point measure(int channels, bool truncated, int reps) {
  Point point;
  point.channels = channels;
  point.truncated = truncated;
  point.recover_wall_ms = 1e9;
  for (int rep = 0; rep < reps; ++rep) {
    Rig rig(channels);
    auto& mc = rig.fabric->mc();
    core::ChannelJournal journal = mc.journal();
    if (truncated) {
      journal.truncate_tail(kTruncateRecords);
    }
    point.journal_records = journal.size();

    mc.crash();
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = mc.recover(journal);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    // Best-of-reps: recovery is deterministic, the variance is host noise.
    if (wall_ms < point.recover_wall_ms) point.recover_wall_ms = wall_ms;
    if (rep == 0) {
      point.report = report;
      rig.fabric->simulator().run_until();
      point.audit_ok = audit::run_all(*rig.fabric).ok;
    }
  }
  return point;
}

// --- warm-standby failover sweep ---------------------------------------------

struct FailoverPoint {
  int channels = 0;
  sim::SimTime replication_lag = 0;
  double takeover_sim_ms = 0.0;   // kill -> standby active, simulated
  double takeover_wall_ms = 0.0;  // wall time of driving that interval
  std::uint64_t records_replicated = 0;
  core::MimicController::RecoveryReport report;
  bool audit_ok = false;
};

FailoverPoint measure_failover(int channels, sim::SimTime replication_lag) {
  FailoverPoint point;
  point.channels = channels;
  point.replication_lag = replication_lag;

  FabricOptions fabric_options;
  fabric_options.seed = 11;
  Fabric fabric(fabric_options);
  ctrl::StandbyOptions standby_options;
  standby_options.replication_lag = replication_lag;
  ctrl::StandbyController standby(fabric.mc(), standby_options);
  standby.start();
  establish_channels(fabric, channels);
  // Bounded settle: the probe loop ticks forever, so an unbounded run
  // would never quiesce.  50ms covers the install + commit round trips of
  // the largest batch with a wide margin.
  fabric.simulator().run_until(fabric.simulator().now() +
                               sim::milliseconds(50));

  fabric.mc().crash();
  const sim::SimTime t_kill = fabric.simulator().now();
  const auto t0 = std::chrono::steady_clock::now();
  // Drive in 10us steps until the missed-heartbeat budget promotes the
  // standby; the step size bounds the latency measurement error.
  const sim::SimTime step = sim::microseconds(10);
  const sim::SimTime deadline = t_kill + sim::milliseconds(100);
  while (!standby.active() && fabric.simulator().now() < deadline) {
    fabric.simulator().run_until(fabric.simulator().now() + step);
  }
  point.takeover_wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  if (!standby.active()) {
    std::fprintf(stderr, "standby never took over (n=%d lag=%lldus)\n",
                 channels, static_cast<long long>(replication_lag / 1000));
    std::exit(1);
  }
  point.takeover_sim_ms =
      static_cast<double>(fabric.simulator().now() - t_kill) / 1e6;
  point.records_replicated = standby.records_replicated();
  point.report = standby.takeover_report();
  fabric.simulator().run_until();
  point.audit_ok = audit::run_all(standby.mc()).ok;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::vector<int> channel_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16, 64, 2048};
  const int reps = smoke ? 1 : 3;

  // stdout carries simulated outcomes only, so it replays byte for byte;
  // the wall time of recover() goes to the ledger alone.
  std::printf("# Controller recovery vs channel count (k=4 fat-tree): what\n"
              "# recover() kept, reinstalled, replanned, lost and swept\n"
              "# (its wall time, best of %d reps, is recover_wall_ms in\n"
              "# BENCH_recovery.json)\n", reps);
  std::printf("%-9s %-10s %8s %5s %10s %9s %5s %8s %9s %6s\n", "channels",
              "mode", "records", "kept", "reinstall", "replanned", "lost",
              "orphans", "switches", "audit");

  std::vector<Point> points;
  for (const int n : channel_counts) {
    for (const bool truncated : {false, true}) {
      const Point p = measure(n, truncated, reps);
      points.push_back(p);
      std::printf("%-9d %-10s %8zu %5zu %10zu %9zu %5zu %8zu %9zu %6s\n",
                  p.channels, truncated ? "truncated" : "clean",
                  p.journal_records, p.report.channels_kept,
                  p.report.channels_reinstalled, p.report.channels_replanned,
                  p.report.channels_lost, p.report.orphan_rules_removed,
                  p.report.switches_resynced, p.audit_ok ? "ok" : "FAIL");
      if (!p.audit_ok) {
        std::fprintf(stderr, "audit failed after recovery (n=%d %s)\n",
                     p.channels, truncated ? "truncated" : "clean");
        return 1;
      }
    }
  }

  // --- failover sweep: takeover latency + replica completeness ---------------
  const std::vector<sim::SimTime> lags =
      smoke ? std::vector<sim::SimTime>{sim::microseconds(300)}
            : std::vector<sim::SimTime>{sim::microseconds(100),
                                        sim::microseconds(300),
                                        sim::milliseconds(1)};

  std::printf("\n# Warm-standby failover: simulated takeover latency (primary\n"
              "# kill -> standby active; missed-heartbeat budget dominates)\n"
              "# and replica completeness vs replication lag\n");
  std::printf("%-9s %7s %12s %9s %9s %5s %5s %8s %6s\n", "channels",
              "lag_us", "takeover_ms", "replicated", "recovered", "kept",
              "lost", "orphans", "audit");

  std::vector<FailoverPoint> failover_points;
  for (const int n : channel_counts) {
    for (const sim::SimTime lag : lags) {
      const FailoverPoint p = measure_failover(n, lag);
      failover_points.push_back(p);
      std::printf("%-9d %7lld %12.3f %9llu %9zu %5zu %5zu %8zu %6s\n",
                  p.channels,
                  static_cast<long long>(p.replication_lag / 1000),
                  p.takeover_sim_ms,
                  static_cast<unsigned long long>(p.records_replicated),
                  p.report.channels_recovered, p.report.channels_kept,
                  p.report.channels_lost, p.report.orphan_rules_removed,
                  p.audit_ok ? "ok" : "FAIL");
      if (!p.audit_ok) {
        std::fprintf(stderr, "audit failed after failover (n=%d lag=%lldus)\n",
                     p.channels,
                     static_cast<long long>(p.replication_lag / 1000));
        return 1;
      }
    }
  }

  std::FILE* out = std::fopen("BENCH_recovery.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_recovery.json\n");
    return 1;
  }
  std::fprintf(out, "{\"bench\":\"controller_recovery\",\"smoke\":%s,"
                    "\"truncate_records\":%zu,\"series\":[",
               smoke ? "true" : "false", kTruncateRecords);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(
        out,
        "%s{\"channels\":%d,\"mode\":\"%s\",\"recover_wall_ms\":%.3f,"
        "\"journal_records\":%zu,\"channels_recovered\":%zu,"
        "\"channels_kept\":%zu,\"channels_reinstalled\":%zu,"
        "\"channels_replanned\":%zu,\"channels_lost\":%zu,"
        "\"orphan_rules_removed\":%zu,\"switches_resynced\":%zu,"
        "\"audit_ok\":%s}",
        i == 0 ? "" : ",", p.channels, p.truncated ? "truncated" : "clean",
        p.recover_wall_ms, p.journal_records, p.report.channels_recovered,
        p.report.channels_kept, p.report.channels_reinstalled,
        p.report.channels_replanned, p.report.channels_lost,
        p.report.orphan_rules_removed, p.report.switches_resynced,
        p.audit_ok ? "true" : "false");
  }
  std::fprintf(out, "],\"failover_series\":[");
  for (std::size_t i = 0; i < failover_points.size(); ++i) {
    const FailoverPoint& p = failover_points[i];
    std::fprintf(
        out,
        "%s{\"channels\":%d,"
        "\"replication_lag_us\":%lld,\"takeover_sim_ms\":%.3f,"
        "\"takeover_wall_ms\":%.3f,\"records_replicated\":%llu,"
        "\"channels_recovered\":%zu,\"channels_kept\":%zu,"
        "\"channels_replanned\":%zu,\"channels_lost\":%zu,"
        "\"orphan_rules_removed\":%zu,\"audit_ok\":%s}",
        i == 0 ? "" : ",", p.channels,
        static_cast<long long>(p.replication_lag / 1000), p.takeover_sim_ms,
        p.takeover_wall_ms,
        static_cast<unsigned long long>(p.records_replicated),
        p.report.channels_recovered, p.report.channels_kept,
        p.report.channels_replanned, p.report.channels_lost,
        p.report.orphan_rules_removed, p.audit_ok ? "true" : "false");
  }
  std::fprintf(out, "],");
  mic::bench::write_provenance(out);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("# wrote BENCH_recovery.json\n");
  return 0;
}
