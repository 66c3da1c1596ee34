// Property tests for MAGA: exact invertibility, flow-ID separation,
// label-class partitioning (DESIGN.md invariants MAGA-1..3).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/maga.hpp"
#include "core/maga_registry.hpp"
#include "topology/fattree.hpp"

namespace mic::core {
namespace {

// Parameterized across seeds: every sampled parameter set must satisfy the
// algebraic properties.
class MagaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MagaProperty, MagaFBijectiveInDelta) {
  // With alpha, beta and gamma fixed, every flow ID is reached by exactly
  // one delta: generation can always invert, and never for two IDs at once.
  Rng rng(GetParam());
  const MagaF f = MagaF::sample(rng);
  const auto alpha = static_cast<std::uint32_t>(rng.next());
  const auto beta = static_cast<std::uint32_t>(rng.next());
  const auto gamma = static_cast<std::uint16_t>(rng.next());
  std::vector<bool> seen(1u << 16, false);
  for (std::uint32_t delta = 0; delta < (1u << 16); ++delta) {
    const std::uint16_t v =
        f.value(alpha, beta, gamma, static_cast<std::uint16_t>(delta));
    EXPECT_FALSE(seen[v]) << "two deltas give " << v;
    seen[v] = true;
  }
}

TEST_P(MagaProperty, MagaFInverseExact) {
  Rng rng(GetParam());
  const MagaF f = MagaF::sample(rng);
  for (int trial = 0; trial < 200; ++trial) {
    const auto alpha = static_cast<std::uint32_t>(rng.next());
    const auto beta = static_cast<std::uint32_t>(rng.next());
    const auto gamma = static_cast<std::uint16_t>(rng.next());
    const auto v = static_cast<std::uint16_t>(rng.next());
    const std::uint16_t delta = f.invert_delta(v, alpha, beta, gamma);
    EXPECT_EQ(f.value(alpha, beta, gamma, delta), v);
  }
}

TEST_P(MagaProperty, MagaFDifferentIdsNeverCollide) {
  // Tuples generated for different flow IDs can never be equal: equal
  // tuples would have equal hash values.
  Rng rng(GetParam());
  const MagaF f = MagaF::sample(rng);
  for (int trial = 0; trial < 100; ++trial) {
    const auto alpha = static_cast<std::uint32_t>(rng.next());
    const auto beta = static_cast<std::uint32_t>(rng.next());
    const auto gamma = static_cast<std::uint16_t>(rng.next());
    const auto id1 = static_cast<std::uint16_t>(rng.next());
    auto id2 = static_cast<std::uint16_t>(rng.next());
    if (id2 == id1) ++id2;
    EXPECT_NE(f.invert_delta(id1, alpha, beta, gamma),
              f.invert_delta(id2, alpha, beta, gamma));
  }
}

TEST_P(MagaProperty, ClassifierSampleHitsClass) {
  Rng rng(GetParam());
  const MplsClassifier g = MplsClassifier::sample(rng);
  for (int cls = 0; cls < 256; ++cls) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::uint16_t label =
          g.sample_label_half(static_cast<std::uint8_t>(cls), rng);
      EXPECT_EQ(g.classify(label), cls);
    }
  }
}

TEST_P(MagaProperty, ClassifierPartitionsLabelSpace) {
  // Every one of the 65536 label halves belongs to exactly one class, and
  // the classes are balanced (256 labels each) because h is bijective.
  Rng rng(GetParam());
  const MplsClassifier g = MplsClassifier::sample(rng);
  std::array<int, 256> counts{};
  for (std::uint32_t label = 0; label <= 0xFFFF; ++label) {
    ++counts[g.classify(static_cast<std::uint16_t>(label))];
  }
  for (const int count : counts) EXPECT_EQ(count, 256);
}

TEST_P(MagaProperty, CrossMnTuplesDisjointUnderRandomParameters) {
  // Randomized MixKey parameters end to end: the registry's seed drives
  // every sampled hash (per-MN F, the global classifier g), so each seed
  // exercises a fresh parameter set.  Two guarantees of Sec IV-B3 must hold
  // for all of them: (a) on one MN, tuples of distinct flow IDs never
  // collide (they hash to different IDs under that MN's F), and (b) the
  // g() label partition keeps tuples disjoint across MNs -- every label an
  // MN uses classifies to its own S_ID, so no two MNs can ever emit an
  // equal tuple.
  Rng seeder(GetParam() * 0x9e3779b97f4a7c15ULL + 1);
  MagaRegistry registry{Rng(seeder.next())};
  constexpr topo::NodeId kMns[] = {11, 22, 33, 44};
  for (const topo::NodeId mn : kMns) registry.register_switch(mn);

  const std::vector<net::Ipv4> candidates{
      net::Ipv4(10, 0, 0, 2), net::Ipv4(10, 0, 0, 3), net::Ipv4(10, 1, 0, 2)};
  const FlowId flows[] = {registry.allocate_flow_id(),
                          registry.allocate_flow_id(),
                          registry.allocate_flow_id()};

  struct Generated {
    topo::NodeId mn;
    FlowId flow;
    MTuple tuple;
  };
  std::vector<Generated> all;
  for (const topo::NodeId mn : kMns) {
    for (const FlowId flow : flows) {
      for (int i = 0; i < 20; ++i) {
        const MTuple t = registry.generate(mn, flow, candidates, candidates);
        EXPECT_EQ(registry.flow_id_of(mn, t), flow);
        EXPECT_EQ(registry.class_of_label(t.mpls), registry.s_id(mn));
        all.push_back({mn, flow, t});
      }
    }
  }

  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      const Generated& a = all[i];
      const Generated& b = all[j];
      if (a.mn == b.mn && a.flow != b.flow) {
        EXPECT_FALSE(a.tuple == b.tuple)
            << "same-MN collision between flows " << a.flow << " and "
            << b.flow;
      }
      if (a.mn != b.mn) {
        // Disjoint label classes: not just unequal tuples, unequal labels.
        EXPECT_NE(a.tuple.mpls, b.tuple.mpls)
            << "MNs " << a.mn << " and " << b.mn << " shared a label";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagaProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- the registry ---------------------------------------------------------------

TEST(MagaRegistry, FlowIdAllocationRecycles) {
  MagaRegistry registry{Rng(7)};
  const FlowId a = registry.allocate_flow_id();
  const FlowId b = registry.allocate_flow_id();
  EXPECT_NE(a, b);
  EXPECT_NE(a, kInvalidFlowId);
  registry.release_flow_id(a);
  const FlowId c = registry.allocate_flow_id();
  EXPECT_EQ(c, a);  // recovered, as the paper prescribes
  EXPECT_EQ(registry.active_flow_count(), 2u);
}

TEST(MagaRegistry, SIdsUniqueAcrossSwitchesAndDistinctFromCId) {
  MagaRegistry registry{Rng(11)};
  std::set<std::uint8_t> ids{registry.c_id()};
  for (topo::NodeId sw = 100; sw < 150; ++sw) {
    registry.register_switch(sw);
    EXPECT_TRUE(ids.insert(registry.s_id(sw)).second)
        << "duplicate S_ID for switch " << sw;
  }
}

TEST(MagaRegistry, GeneratedTuplesSatisfyAllConstraints) {
  MagaRegistry registry{Rng(13)};
  registry.register_switch(1);
  const std::vector<net::Ipv4> srcs{net::Ipv4(10, 0, 0, 2),
                                    net::Ipv4(10, 0, 0, 3)};
  const std::vector<net::Ipv4> dsts{net::Ipv4(10, 1, 0, 2),
                                    net::Ipv4(10, 1, 0, 3)};
  const FlowId flow = registry.allocate_flow_id();
  for (int trial = 0; trial < 100; ++trial) {
    const MTuple t = registry.generate(1, flow, srcs, dsts);
    // MAGA-1: hashes to the owning flow id under the MN's function.
    EXPECT_EQ(registry.flow_id_of(1, t), flow);
    // Label class is the MN's S_ID.
    EXPECT_EQ(registry.class_of_label(t.mpls), registry.s_id(1));
    // Addresses drawn from the restriction sets.
    EXPECT_TRUE(t.src == srcs[0] || t.src == srcs[1]);
    EXPECT_TRUE(t.dst == dsts[0] || t.dst == dsts[1]);
    EXPECT_NE(t.mpls, net::kNoMpls);
  }
}

TEST(MagaRegistry, TuplesOfDistinctFlowsDifferOnOneMn) {
  // MAGA-2.
  MagaRegistry registry{Rng(17)};
  registry.register_switch(1);
  const std::vector<net::Ipv4> candidates{net::Ipv4(10, 0, 0, 2)};
  const FlowId f1 = registry.allocate_flow_id();
  const FlowId f2 = registry.allocate_flow_id();
  std::vector<MTuple> tuples1, tuples2;
  for (int i = 0; i < 50; ++i) {
    tuples1.push_back(registry.generate(1, f1, candidates, candidates));
    tuples2.push_back(registry.generate(1, f2, candidates, candidates));
  }
  for (const auto& a : tuples1) {
    for (const auto& b : tuples2) {
      EXPECT_FALSE(a == b);
    }
  }
}

TEST(MagaRegistry, TuplesAcrossMnsNeverShareLabels) {
  // MAGA-3: disjoint label classes per MN imply disjoint tuples.
  MagaRegistry registry{Rng(19)};
  registry.register_switch(1);
  registry.register_switch(2);
  const std::vector<net::Ipv4> candidates{net::Ipv4(10, 0, 0, 2)};
  const FlowId flow = registry.allocate_flow_id();
  std::set<net::MplsLabel> labels1, labels2;
  for (int i = 0; i < 100; ++i) {
    labels1.insert(registry.generate(1, flow, candidates, candidates).mpls);
    labels2.insert(registry.generate(2, flow, candidates, candidates).mpls);
  }
  for (const auto label : labels1) EXPECT_FALSE(labels2.contains(label));
}

TEST(MagaRegistry, CfLabelsClassifyAsCommon) {
  MagaRegistry registry{Rng(23)};
  registry.register_switch(1);
  for (int i = 0; i < 50; ++i) {
    const net::MplsLabel label = registry.sample_cf_label();
    EXPECT_EQ(registry.class_of_label(label), registry.c_id());
    EXPECT_NE(registry.class_of_label(label), registry.s_id(1));
    EXPECT_NE(label, net::kNoMpls);
  }
}

TEST(MagaRegistry, ReleaseTuplesAllowsReuse) {
  MagaRegistry registry{Rng(29)};
  registry.register_switch(1);
  const std::vector<net::Ipv4> candidates{net::Ipv4(10, 0, 0, 2)};
  const FlowId flow = registry.allocate_flow_id();
  std::vector<MTuple> tuples;
  for (int i = 0; i < 10; ++i) {
    tuples.push_back(registry.generate(1, flow, candidates, candidates));
  }
  registry.release_tuples(1, tuples);  // no assertion; bookkeeping shrinks
  SUCCEED();
}

}  // namespace
}  // namespace mic::core
