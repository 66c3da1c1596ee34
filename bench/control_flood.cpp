// Bench: control-plane admission under an establishment flood.
//
// Honest clients establish mimic channels at staggered offsets while the
// seeded FaultInjector fires a 10x establishment flood at the MC.
// Measured quantity:
// honest establishment latency (MicChannel::setup_time, simulated time --
// deterministic, so one rep is exact), unloaded vs under attack, with the
// attacker/honest breakdown the admission stats expose.  The run fails if
//
//   * any honest channel starves (never establishes), or
//   * honest p99 under attack exceeds kP99Multiple x the unloaded p99, or
//   * the final audit::run_all sweep (incl. AC-1 conservation) is dirty.
//
//   control_flood           # full run: 4 honest clients x 6 channels
//   control_flood --smoke   # CI-sized: 3 x 2
//
// Prints a table on stdout and writes BENCH_flood.json in the CWD.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/audit_registry.hpp"
#include "core/fabric.hpp"
#include "core/fault_injector.hpp"
#include "core/mic_client.hpp"

namespace {

using namespace mic;
using core::Fabric;
using core::FabricOptions;
using core::FaultInjector;
using core::FaultInjectorOptions;
using core::MicChannel;
using core::MicChannelOptions;
using core::MicServer;

/// The guard: honest p99 under the flood must stay within this multiple
/// of the unloaded p99.
constexpr double kP99Multiple = 3.0;
constexpr std::size_t kServerIdx = 12;
/// Every host runs its one-time DH key exchange with the MC at t=0 (the
/// paper does this "in advance"); each modexp serializes ~4ms of MC CPU,
/// so the measured window starts after that backlog has drained.  Both
/// runs pre-register identically -- the comparison stays apples-to-apples.
constexpr sim::SimTime kStart = sim::milliseconds(70);

FabricOptions fabric_options() {
  FabricOptions fo;
  fo.seed = 77;
  // Tight enough that the flood saturates and is visibly shed; generous
  // enough that an honest tenant's own budget never empties (honest load
  // is ~1 establish/ms/tenant, matched by the refill).  The point of the
  // measurement is per-tenant isolation: the pending quota caps how much
  // of the shared queue one attacker can hold (8 attackers x 3 < 32), so
  // a flooded queue never sheds an honest arrival outright.
  fo.mic.admission.tenant_rate = 1000.0;
  fo.mic.admission.tenant_burst = 4.0;
  fo.mic.admission.tenant_pending_quota = 3;
  fo.mic.admission.queue_capacity = 32;
  fo.mic.admission.max_in_service = 16;
  return fo;
}

FaultInjectorOptions attack_options(int honest_establishes) {
  FaultInjectorOptions fo;
  fo.seed = 9;
  fo.link_flaps = 0;  // control-plane attack only
  fo.switch_crashes = 0;
  fo.install_fault_bursts = 0;
  fo.control_drop_bursts = 0;
  fo.start = kStart;
  fo.window = sim::milliseconds(1);  // bursts land on top of the clients
  fo.establish_floods = 2;
  fo.flood_attackers = 4;
  // 10x the honest offered load, split across bursts and attackers, with
  // a floor so the smoke-sized run still saturates each attacker's budget
  // (burst 4 + ~4ms of refill + pending quota 3) and sheds visibly.
  fo.flood_requests = std::max(
      12,
      (10 * honest_establishes) / (fo.establish_floods * fo.flood_attackers));
  fo.flood_duration = sim::milliseconds(4);
  return fo;
}

struct Series {
  std::vector<double> latencies_us;  // one per established channel
  std::size_t offered = 0;
  std::size_t established = 0;
  std::uint64_t times_shed = 0;
  // Attack-side view (flooded run only).
  std::uint64_t flood_sent = 0;
  std::uint64_t flood_answered = 0;
  std::uint64_t flood_shed = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  bool audit_ok = false;
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// One deterministic run: `clients` honest hosts x `channels_each`
/// establishments, staggered across the attack window.  With `flooded`
/// the injector's 10x flood runs on top.
Series run(int clients, int channels_each, bool flooded) {
  Fabric fabric(fabric_options());
  MicServer server(fabric.host(kServerIdx), 7000, fabric.rng());
  // Key exchanges in advance for everyone (see kStart); the injector's own
  // register_client calls then become idempotent lookups.
  for (std::size_t i = 0; i < fabric.host_count(); ++i) {
    fabric.mc().register_client(fabric.ip(i));
  }

  const int honest_establishes = clients * channels_each;
  FaultInjector injector(fabric.network(), fabric.mc(),
                         attack_options(honest_establishes));
  if (flooded) injector.arm();

  // Honest tenants stay disjoint from the flood's: the bench measures
  // what per-tenant isolation buys a client that is NOT the attacker.
  // (The unloaded baseline arms nothing, so attacker_ips() is empty and
  // host selection reduces to "everyone but the server" -- the injector's
  // flood draw never picks the first hosts it shuffles away anyway; the
  // selection below is applied to both runs for symmetry.)
  Fabric probe(fabric_options());
  FaultInjector shadow(probe.network(), probe.mc(),
                       attack_options(honest_establishes));
  shadow.arm();  // same seed => same attacker set, without touching `fabric`
  std::vector<std::size_t> honest;
  for (std::size_t i = 0; i < fabric.host_count(); ++i) {
    if (i == kServerIdx) continue;
    bool is_attacker = false;
    for (const net::Ipv4 ip : shadow.attacker_ips()) {
      if (ip.value == fabric.ip(i).value) is_attacker = true;
    }
    if (!is_attacker) honest.push_back(i);
    if (honest.size() == static_cast<std::size_t>(clients)) break;
  }

  // Stagger the honest establishments across the attack window so they
  // land before, inside and after the flood bursts; interleave the clients
  // so no tenant piles its own establishments onto its pending quota.
  const sim::SimTime spread = sim::milliseconds(6);
  std::vector<std::unique_ptr<MicChannel>> chans(
      static_cast<std::size_t>(honest_establishes));
  std::size_t slot = 0;
  for (int c = 0; c < channels_each; ++c) {
    for (const std::size_t host : honest) {
      const sim::SimTime at =
          kStart + spread * static_cast<sim::SimTime>(slot) /
                       static_cast<sim::SimTime>(honest_establishes);
      fabric.simulator().schedule_at(at, [&fabric, &chans, host, slot] {
        MicChannelOptions o;
        o.responder_ip = fabric.ip(kServerIdx);
        o.responder_port = 7000;
        chans[slot] = std::make_unique<MicChannel>(
            fabric.host(host), fabric.mc(), o, fabric.rng());
      });
      ++slot;
    }
  }
  fabric.simulator().run_until();

  Series series;
  series.offered = chans.size();
  for (const auto& chan : chans) {
    if (chan == nullptr || chan->failed() || !chan->ready()) continue;
    ++series.established;
    series.times_shed += chan->times_shed();
    series.latencies_us.push_back(static_cast<double>(chan->setup_time()) /
                                  1000.0);
  }
  series.flood_sent = injector.flood_sent();
  series.flood_answered = injector.flood_answered();
  series.flood_shed = injector.flood_shed();
  const auto& stats = fabric.mc().admission().stats();
  series.admitted = stats.admitted;
  series.shed = stats.shed;
  const audit::RunReport report = audit::run_all(fabric.mc());
  series.audit_ok = report.ok;
  if (!report.ok) {
    std::fprintf(stderr, "audit failed: %s\n",
                 report.first_violation().c_str());
  }
  return series;
}

void print_row(const char* mode, const Series& s, double p50, double p99) {
  std::printf("%-9s %8zu %12zu %9llu %10.1f %10.1f %11llu %10llu %6s\n",
              mode, s.offered, s.established,
              static_cast<unsigned long long>(s.times_shed), p50, p99,
              static_cast<unsigned long long>(s.flood_sent),
              static_cast<unsigned long long>(s.flood_shed),
              s.audit_ok ? "ok" : "FAIL");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int clients = smoke ? 3 : 4;
  const int channels_each = smoke ? 2 : 6;

  std::printf("# Honest establishment latency, unloaded vs 10x establish\n"
              "# flood (k=4 fat-tree, tight admission;\n"
              "# latencies are simulated time in us, exact by SIM-1)\n");
  std::printf("%-9s %8s %12s %9s %10s %10s %11s %10s %6s\n", "mode",
              "offered", "established", "shed_hits", "p50_us", "p99_us",
              "attack_sent", "attack_shed", "audit");

  const Series unloaded = run(clients, channels_each, /*flooded=*/false);
  const double base_p50 = percentile(unloaded.latencies_us, 0.50);
  const double base_p99 = percentile(unloaded.latencies_us, 0.99);
  print_row("unloaded", unloaded, base_p50, base_p99);

  const Series flooded = run(clients, channels_each, /*flooded=*/true);
  const double flood_p50 = percentile(flooded.latencies_us, 0.50);
  const double flood_p99 = percentile(flooded.latencies_us, 0.99);
  print_row("flooded", flooded, flood_p50, flood_p99);

  const double multiple = base_p99 > 0.0 ? flood_p99 / base_p99 : 0.0;
  std::printf("# honest p99 multiple under attack: %.2fx (guard <= %.1fx)\n",
              multiple, kP99Multiple);

  bool ok = unloaded.audit_ok && flooded.audit_ok;
  if (unloaded.established != unloaded.offered ||
      flooded.established != flooded.offered) {
    std::fprintf(stderr, "starvation: %zu/%zu unloaded, %zu/%zu flooded "
                         "channels established\n",
                 unloaded.established, unloaded.offered, flooded.established,
                 flooded.offered);
    ok = false;
  }
  if (multiple > kP99Multiple) {
    std::fprintf(stderr, "guard violated: honest p99 %.1fus is %.2fx the "
                         "unloaded %.1fus (limit %.1fx)\n",
                 flood_p99, multiple, base_p99, kP99Multiple);
    ok = false;
  }
  if (flooded.flood_shed == 0) {
    std::fprintf(stderr, "flood was never shed: admission inert?\n");
    ok = false;
  }

  std::FILE* out = std::fopen("BENCH_flood.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_flood.json\n");
    return 1;
  }
  auto write_series = [out](const char* name, const Series& s, double p50,
                            double p99) {
    std::fprintf(
        out,
        "\"%s\":{\"honest\":{\"offered\":%zu,\"established\":%zu,"
        "\"shed_hits\":%llu,\"p50_us\":%.1f,\"p99_us\":%.1f},"
        "\"attacker\":{\"sent\":%llu,\"answered\":%llu,\"shed\":%llu},"
        "\"admitted\":%llu,\"shed\":%llu,\"audit_ok\":%s}",
        name, s.offered, s.established,
        static_cast<unsigned long long>(s.times_shed), p50, p99,
        static_cast<unsigned long long>(s.flood_sent),
        static_cast<unsigned long long>(s.flood_answered),
        static_cast<unsigned long long>(s.flood_shed),
        static_cast<unsigned long long>(s.admitted),
        static_cast<unsigned long long>(s.shed),
        s.audit_ok ? "true" : "false");
  };
  std::fprintf(out, "{\"bench\":\"control_flood\",\"smoke\":%s,",
               smoke ? "true" : "false");
  write_series("unloaded", unloaded, base_p50, base_p99);
  std::fprintf(out, ",");
  write_series("flooded", flooded, flood_p50, flood_p99);
  std::fprintf(out,
               ",\"guard\":{\"p99_multiple\":%.3f,\"limit\":%.1f,"
               "\"ok\":%s}}\n",
               multiple, kP99Multiple, ok ? "true" : "false");
  std::fclose(out);
  std::printf("# wrote BENCH_flood.json\n");
  return ok ? 0 : 1;
}
