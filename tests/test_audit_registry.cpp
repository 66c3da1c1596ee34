// The invariant-audit checkpoint (src/core/audit_registry.hpp): one
// run_all(fabric) covering FT-1, CA-1, PE-1, FD-1, RC-1, RC-2 and AC-1.
// The negative tests deliberately violate each invariant and assert the
// report attributes the failure to the *right* identifier -- an audit that
// fires on the wrong check (or on none) is worse than no audit.
#include <gtest/gtest.h>

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

  const auto& checks = report.checks;
  ASSERT_EQ(checks.size(), 7u);
  EXPECT_EQ(checks[0].id, "FT-1");
  EXPECT_EQ(checks[1].id, "CA-1");
  EXPECT_EQ(checks[2].id, "PE-1");
  EXPECT_EQ(checks[3].id, "FD-1");
  EXPECT_EQ(checks[4].id, "RC-1");
  EXPECT_EQ(checks[5].id, "RC-2");
  EXPECT_EQ(checks[6].id, "AC-1");

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
  // run_all runs the same audits the tests call directly; the two views
  // must agree.
  AuditBed bed;
  const audit::RunReport report = audit::run_all(bed.fabric.mc());
  const audit::CheckResult collisions = audit_collisions(bed.fabric.mc());
  const audit::CheckResult orphans = audit_orphan_rules(bed.fabric.mc());
  EXPECT_EQ(report.check("CA-1").ok, collisions.ok);
  EXPECT_EQ(report.check("CA-1").items_checked, collisions.items_checked);
  EXPECT_EQ(report.check("FD-1").ok, orphans.ok);
  EXPECT_EQ(report.check("FD-1").metric("mflow_rules"),
            orphans.metric("mflow_rules"));
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
  bed.fabric.mc().install_rule(sw, orphan);

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
  bed.fabric.mc().install_rule(sw, rogue);

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
  bed.fabric.mc().paths().distance(dst, dst);
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
}

}  // namespace
}  // namespace mic::core
