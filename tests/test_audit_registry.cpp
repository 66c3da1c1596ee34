// The unified invariant-audit registry (src/core/audit_registry.hpp): one
// run_all(fabric) checkpoint covering FT-1, CA-1, PE-1, FD-1 and RC-1.  The
// negative tests deliberately violate each invariant and assert the
// registry attributes the failure to the *right* identifier -- an audit
// that fires on the wrong check (or on none) is worse than no audit.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/audit_registry.hpp"
#include "core/collision_audit.hpp"
#include "core/fabric.hpp"
#include "ctrl/l3_routing.hpp"
#include "topology/fattree.hpp"
#include "topology/path_engine.hpp"

namespace mic::core {
namespace {

struct AuditBed {
  AuditBed() {
    // One live channel so FD-1's coverage half and CA-1's active-flow half
    // have real state to audit.
    EstablishRequest request;
    request.initiator_ip = fabric.ip(0);
    request.responder_ip = fabric.ip(12);
    request.responder_port = 7000;
    request.initiator_sports = {40001};
    const EstablishResult result = fabric.mc().establish(request);
    EXPECT_TRUE(result.ok) << result.error;
    channel = result.channel;
  }

  Fabric fabric;
  ChannelId channel = 0;
};

TEST(AuditRegistry, RunsAllChecksCleanOnHealthyFabric) {
  AuditBed bed;
  const audit::RunReport report = audit::run_all(bed.fabric);
  EXPECT_TRUE(report.ok) << report.first_violation();
  EXPECT_EQ(report.first_violation(), "");

  const auto ids = audit::Registry::instance().ids();
  ASSERT_EQ(ids.size(), 7u);
  EXPECT_EQ(ids[0], "FT-1");
  EXPECT_EQ(ids[1], "CA-1");
  EXPECT_EQ(ids[2], "PE-1");
  EXPECT_EQ(ids[3], "FD-1");
  EXPECT_EQ(ids[4], "RC-1");
  EXPECT_EQ(ids[5], "RC-2");
  EXPECT_EQ(ids[6], "AC-1");

  // Every check walked real state.
  EXPECT_GT(report.check("FT-1").items_checked, 0u);
  EXPECT_GT(report.check("CA-1").items_checked, 0u);
  EXPECT_GT(report.check("FD-1").items_checked, 0u);
  // RC-1 re-verified the live channel's rules against the journal.
  EXPECT_GT(report.check("RC-1").items_checked, 0u);
  EXPECT_EQ(report.check("RC-1").metric("journaled_channels"), 1u);
  // The live channel's m-flow rules surface through the FD-1 metric the
  // chaos tests assert on.
  EXPECT_GT(report.check("FD-1").metric("mflow_rules"), 0u);
  // AC-1 balanced the admission books; the establish above went through
  // offer_sync and must be accounted as offered + admitted.
  EXPECT_GT(report.check("AC-1").items_checked, 0u);
  EXPECT_GE(report.check("AC-1").metric("offered"), 1u);
  EXPECT_GE(report.check("AC-1").metric("admitted"), 1u);
}

TEST(AuditRegistry, MatchesStandaloneAudits) {
  // The registry wraps the same audits the tests used to call directly;
  // the two views must agree.
  AuditBed bed;
  const audit::RunReport report = audit::run_all(bed.fabric.mc());
  const AuditReport collisions = audit_collisions(bed.fabric.mc());
  const AuditReport orphans = audit_orphan_rules(bed.fabric.mc());
  EXPECT_EQ(report.check("CA-1").ok, collisions.ok);
  EXPECT_EQ(report.check("CA-1").items_checked, collisions.rules_checked);
  EXPECT_EQ(report.check("FD-1").ok, orphans.ok);
  EXPECT_EQ(report.check("FD-1").metric("mflow_rules"), orphans.mflow_rules);
}

TEST(AuditRegistry, CatchesOrphanRuleByCookie) {
  // FD-1 negative: a rule tagged with a cookie no live channel owns.
  AuditBed bed;
  switchd::FlowRule orphan;
  orphan.priority = 5;
  orphan.match.dst = net::Ipv4(10, 3, 3, 3);
  orphan.actions = {switchd::DropAction{}};
  orphan.cookie = 0xDEADDEAD;  // neither kL3Cookie nor a live channel ID
  const topo::NodeId sw = bed.fabric.fattree().core_switches()[0];
  bed.fabric.mc().install_rule(sw, orphan, /*immediate=*/true);

  const audit::RunReport report = audit::run_all(bed.fabric);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.check("FD-1").ok);
  ASSERT_FALSE(report.check("FD-1").violations.empty());
  EXPECT_NE(report.check("FD-1").violations.front().find("orphan"),
            std::string::npos);
  // The violation is FD-1's alone: the rule collides with nothing, carries
  // no label, and never touches the path cache.
  EXPECT_TRUE(report.check("FT-1").ok);
  EXPECT_TRUE(report.check("CA-1").ok);
  EXPECT_TRUE(report.check("PE-1").ok);
  EXPECT_EQ(report.first_violation().rfind("FD-1:", 0), 0u);
}

TEST(AuditRegistry, CatchesMagaPartitionViolation) {
  // CA-1 negative: an MN rewrite whose new label lives in the *common*
  // (CF) class -- breaking the MF/CF label-partition disjointness MAGA
  // guarantees.  Tagged with the live channel's cookie so FD-1 stays
  // clean and the failure is attributable to CA-1 alone.
  AuditBed bed;
  switchd::FlowRule rogue;
  rogue.priority = ctrl::kPriorityMFlow;
  rogue.match.src = net::Ipv4(10, 0, 0, 2);
  rogue.match.dst = net::Ipv4(10, 1, 0, 2);
  rogue.match.sport = 1111;
  rogue.match.dport = 2222;
  rogue.match.mpls = 0x1234;
  rogue.actions = {switchd::SetSrc{net::Ipv4(10, 2, 0, 2)},
                   switchd::SetDst{net::Ipv4(10, 3, 0, 2)},
                   switchd::SetSport{3333}, switchd::SetDport{4444},
                   switchd::SetMpls{bed.fabric.mc().registry().sample_cf_label()},
                   switchd::Output{0}};
  rogue.cookie = bed.channel;
  const topo::NodeId sw = bed.fabric.fattree().core_switches()[0];
  bed.fabric.mc().install_rule(sw, rogue, /*immediate=*/true);

  const audit::RunReport report = audit::run_all(bed.fabric);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.check("CA-1").ok);
  ASSERT_FALSE(report.check("CA-1").violations.empty());
  EXPECT_NE(report.check("CA-1").violations.front().find("class"),
            std::string::npos);
  EXPECT_TRUE(report.check("FD-1").ok);
  EXPECT_TRUE(report.check("FT-1").ok);
}

TEST(AuditRegistry, CatchesPoisonedPathRow) {
  // PE-1 negative: corrupt one cached BFS row in place; the recompute-and-
  // compare audit must flag exactly that destination.
  AuditBed bed;
  const topo::NodeId dst = bed.fabric.host_node(12);
  // Make sure the row is cached (queries during establish likely did, but
  // don't depend on it).
  bed.fabric.mc().path_engine().warm_up({dst}, 1);
  ASSERT_TRUE(bed.fabric.mc().path_engine().debug_corrupt_cached_row(dst));

  const audit::RunReport report = audit::run_all(bed.fabric);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.check("PE-1").ok);
  ASSERT_FALSE(report.check("PE-1").violations.empty());
  EXPECT_NE(report.check("PE-1").violations.front().find(std::to_string(dst)),
            std::string::npos);
  EXPECT_TRUE(report.check("FT-1").ok);
  EXPECT_TRUE(report.check("CA-1").ok);
  EXPECT_TRUE(report.check("FD-1").ok);

  // The single-check entry point agrees.
  const audit::CheckResult pe =
      audit::Registry::instance().run("PE-1", bed.fabric.mc());
  EXPECT_FALSE(pe.ok);
  EXPECT_EQ(pe.id, "PE-1");
}

TEST(PathEngineConcurrency, QueriesRaceWarmUpSafely) {
  // The thread model the annotations encode: concurrent read queries and
  // warm_up are safe together (rows_mu_ guards the row cache).  Under the
  // TSan tier this test puts that claim in front of the race detector;
  // plain builds still check PE-1 cleanliness afterwards.
  topo::FatTree ft(4);
  topo::PathEngine engine(ft.graph());
  const auto hosts = ft.graph().hosts();

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&engine, &hosts, &go, &sink, t] {
      while (!go.load()) {
      }
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      std::uint64_t local = 0;
      for (int i = 0; i < 200; ++i) {
        const topo::NodeId src = hosts[rng.below(hosts.size())];
        const topo::NodeId dst = hosts[rng.below(hosts.size())];
        local += engine.distance(src, dst);
        if (src != dst) {
          local += engine.sample_shortest_path(src, dst, rng).size();
        }
      }
      sink.fetch_add(local);
    });
  }
  workers.emplace_back([&engine, &hosts, &go] {
    while (!go.load()) {
    }
    engine.warm_up(hosts, 4);
  });
  go.store(true);
  for (auto& w : workers) w.join();

  EXPECT_EQ(engine.cached_rows(), hosts.size());
  std::vector<std::string> violations;
  EXPECT_EQ(engine.self_check(violations), hosts.size());
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_GT(sink.load(), 0u);
}

}  // namespace
}  // namespace mic::core
