// Control-plane admission control (src/ctrl/admission.hpp): per-tenant
// token buckets, the bounded two-class establish queue with explicit
// Busy{retry_after} shedding, the client-side shed backoff, and the AC-1
// conservation audit -- positive and negative.  The flood soak at the
// bottom drives the whole pipeline with the FaultInjector's
// establishment-flood schedule and pins determinism: same seed, same
// decisions, same trace hash.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/audit_registry.hpp"
#include "core/fabric.hpp"
#include "core/fault_injector.hpp"
#include "core/mic_client.hpp"
#include "ctrl/admission.hpp"
#include "net/trace.hpp"
#include "sim/simulator.hpp"

namespace mic {
namespace {

using core::Fabric;
using core::FabricOptions;
using core::FaultInjector;
using core::FaultInjectorOptions;
using core::MicChannel;
using core::MicChannelOptions;
using core::MicServer;
using ctrl::AdmissionConfig;
using ctrl::AdmissionController;
using ctrl::AdmitPriority;
using ctrl::kRetryAfterFloor;

net::Ipv4 tenant_a() { return net::Ipv4(10, 0, 0, 2); }
net::Ipv4 tenant_b() { return net::Ipv4(10, 0, 0, 3); }

// --- token buckets -------------------------------------------------------------

TEST(Admission, TokenBucketShedsWhenDrainedAndRefillsWithTime) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.tenant_rate = 1000.0;  // 1 token per millisecond
  config.tenant_burst = 3.0;
  config.queue_capacity = 0;  // admit-or-shed
  AdmissionController ac(sim, config);

  // The bucket is primed full on first sighting: exactly burst admissions.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(ac.offer_sync(tenant_a()).admitted) << i;
  }
  const AdmissionController::Ticket shed = ac.offer_sync(tenant_a());
  EXPECT_FALSE(shed.admitted);
  EXPECT_GE(shed.retry_after, kRetryAfterFloor);

  // Tenants are isolated: B's budget is untouched by A's drain.
  EXPECT_TRUE(ac.offer_sync(tenant_b()).admitted);

  // Advance the clock one token's worth: A earns exactly one more.
  sim.run_until(sim.now() + sim::milliseconds(1));
  EXPECT_TRUE(ac.offer_sync(tenant_a()).admitted);
  EXPECT_FALSE(ac.offer_sync(tenant_a()).admitted);

  EXPECT_EQ(ac.stats().offered, 7u);
  EXPECT_EQ(ac.stats().admitted, 5u);
  EXPECT_EQ(ac.stats().shed, 2u);
}

TEST(Admission, DisabledPassesEverythingButStillAccounts) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.enabled = false;
  config.tenant_burst = 1.0;
  config.tenant_rate = 1.0;
  AdmissionController ac(sim, config);

  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(ac.offer_sync(tenant_a()).admitted);
  }
  EXPECT_EQ(ac.stats().offered, 50u);
  EXPECT_EQ(ac.stats().admitted, 50u);
  EXPECT_EQ(ac.stats().shed, 0u);
}

// --- bounded queue, priority classes --------------------------------------------

TEST(Admission, RepairsOutrankQueuedFreshRequests) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.max_in_service = 1;
  AdmissionController ac(sim, config);

  std::vector<std::string> order;
  auto run = [&order](const char* name) {
    return [&order, name] { order.emplace_back(name); };
  };
  auto no_shed = [](sim::SimTime) { FAIL() << "unexpected shed"; };

  const std::uint64_t epoch = ac.epoch();
  ac.offer(tenant_a(), AdmitPriority::kFresh, run("first"), no_shed);
  ASSERT_EQ(order, std::vector<std::string>({"first"}));  // fast path

  // The service slot is held: these queue in arrival order...
  ac.offer(tenant_a(), AdmitPriority::kFresh, run("fresh-1"), no_shed);
  ac.offer(tenant_b(), AdmitPriority::kFresh, run("fresh-2"), no_shed);
  // ...and the late repair still drains before both of them.
  ac.offer(tenant_b(), AdmitPriority::kRepair, run("repair"), no_shed);
  EXPECT_EQ(ac.queued_count(), 3u);

  ac.finish(tenant_a(), epoch);  // slot frees: repair first
  ac.finish(tenant_b(), epoch);
  ac.finish(tenant_a(), epoch);
  ac.finish(tenant_b(), epoch);
  EXPECT_EQ(order, std::vector<std::string>(
                       {"first", "repair", "fresh-1", "fresh-2"}));
  EXPECT_EQ(ac.queued_count(), 0u);
  EXPECT_EQ(ac.stats().admitted, 4u);
}

TEST(Admission, FullQueueShedsAndRepairEvictsYoungestFresh) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.max_in_service = 1;
  config.queue_capacity = 2;
  AdmissionController ac(sim, config);

  auto nop = [] {};
  auto no_shed = [](sim::SimTime) { FAIL() << "unexpected shed"; };
  ac.offer(tenant_a(), AdmitPriority::kFresh, nop, no_shed);  // in service
  ac.offer(tenant_a(), AdmitPriority::kFresh, nop, no_shed);  // queued
  // Queued youngest -- the eviction victim below; its own shed callback
  // carries the Busy reply.
  sim::SimTime evicted_hint = 0;
  ac.offer(tenant_b(), AdmitPriority::kFresh, [] { FAIL() << "admitted"; },
           [&evicted_hint](sim::SimTime t) { evicted_hint = t; });

  // Queue full: a fresh arrival is shed outright, with a backoff hint.
  sim::SimTime fresh_hint = 0;
  ac.offer(tenant_b(), AdmitPriority::kFresh, [] { FAIL() << "admitted"; },
           [&fresh_hint](sim::SimTime t) { fresh_hint = t; });
  EXPECT_GE(fresh_hint, kRetryAfterFloor);
  EXPECT_EQ(evicted_hint, 0);  // still queued

  // A repair arrival instead evicts the youngest queued fresh request and
  // takes its place; the victim gets the Busy reply.
  ac.offer(tenant_b(), AdmitPriority::kRepair, nop, no_shed);
  EXPECT_GE(evicted_hint, kRetryAfterFloor);
  EXPECT_EQ(ac.queued_count(), 2u);
  EXPECT_EQ(ac.stats().shed, 2u);
  EXPECT_EQ(ac.stats().offered,
            ac.stats().admitted + ac.stats().shed + ac.queued_count());
}

TEST(Admission, QueuedRequestDrainsWhenTokensRefill) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.tenant_rate = 1000.0;
  config.tenant_burst = 1.0;
  AdmissionController ac(sim, config);

  bool first = false;
  bool second = false;
  auto no_shed = [](sim::SimTime) { FAIL() << "unexpected shed"; };
  ac.offer(tenant_a(), AdmitPriority::kFresh, [&first] { first = true; },
           no_shed);
  EXPECT_TRUE(first);  // burst token, fast path
  // No tokens left: queued, waiting on the drain timer.
  ac.offer(tenant_a(), AdmitPriority::kFresh, [&second] { second = true; },
           no_shed);
  EXPECT_FALSE(second);
  EXPECT_EQ(ac.queued_count(), 1u);

  sim.run_until(sim.now() + sim::milliseconds(2));
  EXPECT_TRUE(second);
  EXPECT_EQ(ac.queued_count(), 0u);
}

// --- through the MimicController ------------------------------------------------

TEST(Admission, ClientHonorsBusyBackoffAndStillEstablishes) {
  FabricOptions fo;
  fo.mic.admission.tenant_rate = 2000.0;  // refills within the retry backoff
  fo.mic.admission.tenant_burst = 1.0;
  fo.mic.admission.queue_capacity = 0;  // every overload is an explicit shed
  Fabric fabric(fo);
  MicServer server(fabric.host(12), 7000, fabric.rng());

  // Burn the client's one burst token so its establish gets shed.
  ASSERT_TRUE(fabric.mc().admission().offer_sync(fabric.ip(0)).admitted);

  MicChannelOptions o;
  o.responder_ip = fabric.ip(12);
  o.responder_port = 7000;
  MicChannel channel(fabric.host(0), fabric.mc(), o, fabric.rng());
  fabric.simulator().run_until();

  EXPECT_TRUE(channel.ready());
  EXPECT_FALSE(channel.failed());
  EXPECT_GE(channel.times_shed(), 1u);
  EXPECT_GE(fabric.mc().admission().stats().shed, 1u);
  EXPECT_TRUE(audit::run_all(fabric.mc()).ok);
}

TEST(Admission, ShedRetryBudgetExhaustionFailsTheChannel) {
  FabricOptions fo;
  // A zero pending quota sheds every asynchronous establish outright, no
  // matter how long the client waits -- the retry budget must be finite.
  fo.mic.admission.tenant_pending_quota = 0;
  Fabric fabric(fo);
  MicServer server(fabric.host(12), 7000, fabric.rng());

  MicChannelOptions o;
  o.responder_ip = fabric.ip(12);
  o.responder_port = 7000;
  o.shed_retry_limit = 3;
  MicChannel channel(fabric.host(0), fabric.mc(), o, fabric.rng());
  fabric.simulator().run_until();

  EXPECT_TRUE(channel.failed());
  EXPECT_EQ(channel.times_shed(), 4u);  // initial + 3 retries, all shed
  EXPECT_NE(channel.error().find("shed retry budget"), std::string::npos);
  EXPECT_TRUE(audit::run_all(fabric.mc()).ok);
}

TEST(Admission, BatchCannotBypassPerTenantQuota) {
  FabricOptions fo;
  fo.mic.admission.tenant_rate = 1e-9;
  fo.mic.admission.tenant_burst = 2.0;
  Fabric fabric(fo);

  // Back-to-back synchronous establishes in zero simulated time: the
  // bucket never refills, so the sync path must shed past the burst.
  int ok = 0;
  int busy = 0;
  for (int i = 0; i < 5; ++i) {
    core::EstablishRequest request;
    request.initiator_ip = fabric.ip(0);
    request.responder_ip = fabric.ip(12 + (i % 2));
    request.responder_port = 7000;
    request.initiator_sports = {static_cast<net::L4Port>(40001 + i)};
    const core::EstablishResult r = fabric.mc().establish(request);
    if (r.ok) ++ok;
    if (r.busy) {
      ++busy;
      EXPECT_GE(r.retry_after, kRetryAfterFloor);
      EXPECT_FALSE(r.ok);
    }
  }
  EXPECT_EQ(ok, 2);  // exactly the burst budget
  EXPECT_EQ(busy, 3);
  EXPECT_TRUE(audit::run_all(fabric.mc()).ok);
}

TEST(Admission, ProbesStayExemptWhileTenantIsDrained) {
  FabricOptions fo;
  fo.mic.admission.tenant_rate = 1e-9;
  fo.mic.admission.tenant_burst = 1.0;  // one establish, then drained
  Fabric fabric(fo);
  MicServer server(fabric.host(12), 7000, fabric.rng());

  MicChannelOptions o;
  o.responder_ip = fabric.ip(12);
  o.responder_port = 7000;
  MicChannel channel(fabric.host(0), fabric.mc(), o, fabric.rng());
  fabric.simulator().run_until();
  ASSERT_TRUE(channel.ready());

  // The tenant's bucket is now empty -- establishment would be shed...
  EXPECT_FALSE(fabric.mc().admission().offer_sync(fabric.ip(0)).admitted);

  // ...but the flooded tenant's live channel keeps its liveness checks:
  // probes bypass the token buckets entirely.
  bool answered = false;
  bool alive = false;
  fabric.mc().probe_channel(
      channel.id(), [](core::MimicController::ChannelEvent, const std::string&) {},
      [&](bool a) {
        answered = true;
        alive = a;
      });
  fabric.simulator().run_until();
  EXPECT_TRUE(answered);
  EXPECT_TRUE(alive);
  EXPECT_GE(fabric.mc().admission().stats().exempt, 1u);
  EXPECT_TRUE(audit::run_all(fabric.mc()).ok);
}

TEST(Admission, MalformedAndUnregisteredRequestsGetErrorReplies) {
  // A request that decrypts to a truncated body, one that names another
  // host as its initiator, or one from an address that never registered a
  // key, is answered with an error through the normal reply path: the MC
  // must not abort, leak its admission slot or install anything.
  // Admission is off so every request reaches the decoder instead of some
  // being shed as Busy.
  FabricOptions fo;
  fo.mic.admission.enabled = false;
  Fabric fabric(fo);
  const net::Ipv4 client = fabric.ip(0);
  const auto& key = fabric.mc().register_client(client);

  core::EstablishRequest request;
  request.initiator_ip = client;
  request.responder_ip = fabric.ip(12);
  request.responder_port = 7000;
  request.initiator_sports = {40001};
  const std::vector<std::uint8_t> plain = core::serialize_request(request);

  std::vector<core::EstablishResult> replies;
  std::uint64_t counter = 100;
  const auto send = [&](net::Ipv4 from, std::size_t length) {
    std::vector<std::uint8_t> bytes = plain;
    core::crypt_control_message(key, counter, bytes);
    bytes.resize(length);
    fabric.mc().async_establish(
        from, std::move(bytes), counter++,
        [&](const core::EstablishResult& r) { replies.push_back(r); });
  };
  const auto count_rules = [&fabric] {
    std::size_t rules = 0;
    for (const topo::NodeId sw : fabric.network().graph().switches()) {
      rules += fabric.mc().switch_at(sw)->table().rule_count();
    }
    return rules;
  };
  const std::size_t rules_before = count_rules();
  for (std::size_t length = 0; length < plain.size(); ++length) {
    send(client, length);
  }
  // Correctly encrypted by `client`, but naming another registered host
  // as the initiator: the channel would be built in that host's name.
  const net::Ipv4 victim = fabric.ip(3);
  fabric.mc().register_client(victim);
  core::EstablishRequest spoofed = request;
  spoofed.initiator_ip = victim;
  std::vector<std::uint8_t> spoofed_bytes = core::serialize_request(spoofed);
  core::crypt_control_message(key, counter, spoofed_bytes);
  fabric.mc().async_establish(
      client, std::move(spoofed_bytes), counter++,
      [&](const core::EstablishResult& r) { replies.push_back(r); });
  const net::Ipv4 stranger = fabric.ip(5);
  ASSERT_FALSE(fabric.mc().client_registered(stranger));
  send(stranger, plain.size());
  fabric.simulator().run_until();

  ASSERT_EQ(replies.size(), plain.size() + 2);
  for (const auto& reply : replies) {
    EXPECT_FALSE(reply.ok);
    EXPECT_FALSE(reply.busy);
  }
  EXPECT_NE(replies.front().error.find("malformed"), std::string::npos);
  EXPECT_NE(replies[plain.size()].error.find("initiator"), std::string::npos);
  EXPECT_NE(replies.back().error.find("unknown client"), std::string::npos);
  EXPECT_EQ(fabric.mc().active_channel_count(), 0u);
  EXPECT_EQ(count_rules(), rules_before);
  EXPECT_TRUE(audit::run_all(fabric.mc()).ok);

  // The MC is alive and still serves: the whole request establishes.
  EXPECT_FALSE(fabric.mc().crashed());
  send(client, plain.size());
  fabric.simulator().run_until();
  ASSERT_EQ(replies.size(), plain.size() + 3);
  EXPECT_TRUE(replies.back().ok) << replies.back().error;
  EXPECT_TRUE(audit::run_all(fabric.mc()).ok);
}

// --- AC-1 negatives ---------------------------------------------------------------

TEST(Admission, AuditCatchesOverQuotaAdmission) {
  Fabric fabric;
  fabric.mc().admission().debug_force_admit(fabric.ip(3));

  const audit::RunReport report = audit::run_all(fabric.mc());
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.check("AC-1").ok);
  ASSERT_FALSE(report.check("AC-1").violations.empty());
  EXPECT_NE(report.check("AC-1").violations.front().find("quota"),
            std::string::npos);
  // The corruption is AC-1's alone; the fabric invariants stay green.
  EXPECT_TRUE(report.check("FT-1").ok);
  EXPECT_TRUE(report.check("FD-1").ok);
  EXPECT_TRUE(report.check("RC-1").ok);
}

// --- flood soak: the whole pipeline under attack, deterministically ---------------

struct FloodOutcome {
  std::uint64_t received = 0;
  std::size_t survivors = 0;
  std::uint64_t honest_shed = 0;
  std::uint64_t flood_sent = 0;
  std::uint64_t flood_answered = 0;
  std::uint64_t flood_shed = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t trace_hash = 0;  // see ChaosOutcome::trace_hash
  std::uint64_t trace_packets = 0;

  bool operator==(const FloodOutcome&) const = default;
};

/// One seeded establishment-flood schedule against a fabric with a
/// deliberately tight admission config: honest clients (with shed backoff)
/// must all come up and deliver, every attack request must be answered or
/// provably dropped, and the books must balance (AC-1) at quiescence.
FloodOutcome run_flood(Fabric& fabric, std::uint64_t seed) {
  net::TraceHash trace(fabric.network());
  MicServer server(fabric.host(12), 7000, fabric.rng());
  std::uint64_t received = 0;
  server.set_on_channel([&](core::MicServerChannel& channel) {
    channel.set_on_data(
        [&](const transport::ChunkView& view) { received += view.length; });
  });

  // Honest clients come up BEFORE the attack so the flood hits a working
  // control plane (and some establish DURING it, via auto_reestablish off
  // -- their shed retries are the interesting path).
  std::vector<std::unique_ptr<MicChannel>> clients;
  for (const std::size_t idx : {std::size_t{0}, std::size_t{3}, std::size_t{5}}) {
    MicChannelOptions o;
    o.responder_ip = fabric.ip(12);
    o.responder_port = 7000;
    o.flow_count = 1 + static_cast<int>(idx % 2);
    clients.push_back(std::make_unique<MicChannel>(
        fabric.host(idx), fabric.mc(), o, fabric.rng()));
  }

  FaultInjectorOptions fo;
  fo.seed = seed;
  fo.link_flaps = 0;  // isolate the control-plane attack
  fo.switch_crashes = 0;
  fo.install_fault_bursts = 0;
  fo.control_drop_bursts = 0;
  fo.establish_floods = 2;
  fo.flood_attackers = 3;
  fo.flood_requests = 60;
  fo.flood_duration = sim::milliseconds(4);
  FaultInjector injector(fabric.network(), fabric.mc(), fo);
  injector.arm();
  fabric.simulator().run_until();

  FloodOutcome out;
  out.flood_sent = injector.flood_sent();
  out.flood_answered = injector.flood_answered();
  out.flood_shed = injector.flood_shed();
  EXPECT_EQ(out.flood_sent,
            static_cast<std::uint64_t>(fo.establish_floods) *
                fo.flood_attackers * fo.flood_requests);
  EXPECT_EQ(out.flood_answered, out.flood_sent);  // no silent drops: no crash
  EXPECT_GT(out.flood_shed, 0u);  // the tight config actually shed attackers

  // Quiescence: the books balance -- AC-1 runs as part of the audit sweep.
  EXPECT_TRUE(fabric.simulator().idle());
  const audit::RunReport report = audit::run_all(fabric.mc());
  EXPECT_TRUE(report.ok) << report.first_violation();
  const auto& stats = fabric.mc().admission().stats();

  // No starvation: every honest client established despite the flood and
  // still delivers, byte for byte.
  constexpr std::uint64_t kProbe = 16 * 1024;
  std::uint64_t expected = 0;
  for (const auto& client : clients) {
    EXPECT_TRUE(client->ready());
    EXPECT_FALSE(client->failed()) << client->error();
    if (client->failed() || !client->ready()) continue;
    client->send(transport::Chunk::virtual_bytes(kProbe));
    expected += kProbe;
    ++out.survivors;
    out.honest_shed += client->times_shed();
  }
  fabric.simulator().run_until();
  EXPECT_EQ(received, expected);

  out.received = received;
  out.admitted = stats.admitted;
  out.shed = stats.shed;
  out.trace_hash = trace.value();
  out.trace_packets = trace.packets();
  return out;
}

FabricOptions flood_fabric_options() {
  FabricOptions fo;
  fo.seed = 4242;
  // Tight enough that a 60-request burst per attacker saturates, generous
  // enough that honest retries land within their backoff budget.
  fo.mic.admission.tenant_rate = 2000.0;
  fo.mic.admission.tenant_burst = 8.0;
  fo.mic.admission.queue_capacity = 16;
  fo.mic.admission.max_in_service = 8;
  return fo;
}

TEST(FloodSoak, AttackIsShedHonestClientsSurvive) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Fabric fabric(flood_fabric_options());
    run_flood(fabric, seed);
  }
}

TEST(FloodSoak, SameSeedSameDecisionsSameTrace) {
  // SIM-1 under attack: shed/admit decisions and the packet trace
  // fingerprint replay bit-identically for an identical seed.
  auto once = [] {
    Fabric fabric(flood_fabric_options());
    return run_flood(fabric, 3);
  };
  const FloodOutcome a = once();
  const FloodOutcome b = once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.trace_packets, 0u);
}

}  // namespace
}  // namespace mic
