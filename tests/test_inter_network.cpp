// Integration tests for interdomain ROFL (sections 2.3, 4): Canon-style
// per-level ring merging, join strategies, policy routing, isolation,
// fingers, bloom peering, and failure recovery.
#include "interdomain/inter_network.hpp"

#include <gtest/gtest.h>

#include <set>

#include "golden_digest.hpp"
#include "util/stats.hpp"

namespace rofl::inter {
namespace {

using graph::AsRel;
using graph::AsTopology;

// Small hand-built hierarchy (same shape as the policy tests, with host
// weight on the leaves):
//        0 ~~~~ 1        (tier-1 peering)
//       / \      \ .
//      2   3      4
//     /|   |
//    5 6   7
AsTopology diamond() {
  AsTopology t = AsTopology::from_links(
      8, {{2, 0, AsRel::kProvider},
          {3, 0, AsRel::kProvider},
          {4, 1, AsRel::kProvider},
          {5, 2, AsRel::kProvider},
          {6, 2, AsRel::kProvider},
          {7, 3, AsRel::kProvider},
          {0, 1, AsRel::kPeer}});
  for (graph::AsIndex a : {5, 6, 7, 4}) t.set_host_count(a, 100);
  return t;
}

struct Fixture {
  AsTopology topo;
  std::unique_ptr<InterNetwork> net;

  explicit Fixture(InterConfig cfg = {}, std::uint64_t seed = 99)
      : topo(diamond()) {
    net = std::make_unique<InterNetwork>(&topo, cfg, seed);
  }

  NodeId join(graph::AsIndex home,
              JoinStrategy s = JoinStrategy::kRecursiveMultihomed) {
    Identity ident = Identity::generate(net->rng());
    const InterJoinStats js = net->join_host(ident, home, s);
    EXPECT_TRUE(js.ok) << "join at AS " << home;
    return ident.id();
  }

  std::vector<NodeId> populate(std::size_t per_leaf,
                               JoinStrategy s = JoinStrategy::kRecursiveMultihomed) {
    std::vector<NodeId> ids;
    for (graph::AsIndex leaf : {5u, 6u, 7u, 4u}) {
      for (std::size_t i = 0; i < per_leaf; ++i) ids.push_back(join(leaf, s));
    }
    return ids;
  }
};

TEST(InterJoin, SingleHostOk) {
  Fixture f;
  const NodeId id = f.join(5);
  EXPECT_EQ(f.net->home_of(id), 5u);
  const InterVNode* vn = f.net->find_vnode(id);
  ASSERT_NE(vn, nullptr);
  // Multihomed join at AS 5: anchors = {5, 2, 0, T1-virtual}.
  EXPECT_GE(vn->anchors.size(), 3u);
}

TEST(InterJoin, RingsVerifyAfterManyJoins) {
  Fixture f;
  f.populate(6);
  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err)) << err;
}

TEST(InterJoin, DuplicateRejected) {
  Fixture f;
  Identity ident = Identity::generate(f.net->rng());
  EXPECT_TRUE(f.net->join_host(ident, 5, JoinStrategy::kRecursiveMultihomed).ok);
  EXPECT_FALSE(f.net->join_host(ident, 6, JoinStrategy::kRecursiveMultihomed).ok);
}

TEST(InterJoin, PointersArePrunedPerAlgorithm3) {
  // With few hosts, higher levels usually repeat the lower-level successor;
  // pruned pointer lists must never exceed the anchor count and gaps must
  // not break verification.
  Fixture f;
  f.populate(3);
  for (const auto& [id, home] : f.net->directory()) {
    const InterVNode* vn = f.net->find_vnode(id);
    ASSERT_NE(vn, nullptr);
    EXPECT_LE(vn->successors.size(), vn->anchors.size());
    // Pruning: no two consecutive pointers share a target.
    for (std::size_t i = 1; i < vn->successors.size(); ++i) {
      EXPECT_NE(vn->successors[i].target, vn->successors[i - 1].target);
    }
  }
}

TEST(InterJoin, EphemeralJoinsOnlyTopRing) {
  Fixture f;
  f.populate(2);
  const NodeId id = f.join(5, JoinStrategy::kEphemeral);
  const InterVNode* vn = f.net->find_vnode(id);
  ASSERT_NE(vn, nullptr);
  EXPECT_EQ(vn->anchors.size(), 1u);
  // Its single anchor roots the global ring (a virtual AS here).
  EXPECT_TRUE(f.net->work_topology().is_virtual(vn->anchors[0].first));
}

TEST(InterJoin, StrategyOverheadOrdering) {
  // Figure 8a: ephemeral < single-homed < multihomed <= peering.
  auto mean_overhead = [&](JoinStrategy s) {
    Fixture f({}, 7);
    f.populate(30);  // dense rings so per-level successors differ
    SampleSet msgs;
    for (int i = 0; i < 20; ++i) {
      Identity ident = Identity::generate(f.net->rng());
      const auto js = f.net->join_host(ident, 5, s);
      EXPECT_TRUE(js.ok);
      msgs.add(static_cast<double>(js.messages));
    }
    return msgs.mean();
  };
  // On this tiny topology the ephemeral/single ordering is noisy (the
  // global-ring walk can cost as much as the short chain); the robust
  // orderings are against the multihomed and peering strategies.  The
  // internet-scale ordering is exercised by bench/fig8_join_strategies.
  const double eph = mean_overhead(JoinStrategy::kEphemeral);
  const double single = mean_overhead(JoinStrategy::kSingleHomed);
  const double multi = mean_overhead(JoinStrategy::kRecursiveMultihomed);
  const double peering = mean_overhead(JoinStrategy::kPeering);
  EXPECT_LE(eph, multi + 1e-9);
  EXPECT_LE(single, multi + 1e-9);
  EXPECT_LE(multi, peering + 1e-9);
}

TEST(InterRoute, DeliversEverywhere) {
  Fixture f;
  const auto ids = f.populate(5);
  for (graph::AsIndex src : {5u, 6u, 7u, 4u}) {
    for (const NodeId& dest : ids) {
      const InterRouteStats rs = f.net->route(src, dest);
      EXPECT_TRUE(rs.delivered) << "from " << src << " to " << dest;
    }
  }
}

TEST(InterRoute, IntraAsTrafficStaysInternal) {
  // Corollary of the isolation property: same-AS traffic uses no external
  // hops.
  Fixture f;
  const auto ids = f.populate(6);
  for (const NodeId& dest : ids) {
    const auto home = f.net->home_of(dest);
    ASSERT_TRUE(home.has_value());
    std::vector<graph::AsIndex> trace;
    const InterRouteStats rs = f.net->route(*home, dest, &trace);
    ASSERT_TRUE(rs.delivered);
    EXPECT_EQ(rs.as_hops, 0u) << "intra-AS packet left AS " << *home;
  }
}

TEST(InterRoute, IsolationPropertyHolds) {
  Fixture f;
  const auto ids = f.populate(6);
  // 5 -> 6 share the parent 2: packets must stay under 2's subtree, i.e.
  // never touch 0, 1, 3, 4, 7.
  for (const NodeId& dest : ids) {
    if (f.net->home_of(dest) != 6u) continue;
    std::vector<graph::AsIndex> trace;
    const InterRouteStats rs = f.net->route(5, dest, &trace);
    ASSERT_TRUE(rs.delivered);
    EXPECT_TRUE(rs.isolation_held);
    for (const graph::AsIndex a : trace) {
      if (f.net->work_topology().is_virtual(a)) continue;
      EXPECT_TRUE(a == 5 || a == 2 || a == 6) << "leaked to AS " << a;
    }
  }
}

TEST(InterRoute, CrossTier1UsesPeering) {
  Fixture f;
  const auto ids = f.populate(4);
  // 5 -> 4 requires crossing the 0~1 peering (via the virtual AS).
  for (const NodeId& dest : ids) {
    if (f.net->home_of(dest) != 4u) continue;
    std::vector<graph::AsIndex> trace;
    const InterRouteStats rs = f.net->route(5, dest, &trace);
    EXPECT_TRUE(rs.delivered);
    EXPECT_TRUE(rs.isolation_held);
  }
}

TEST(InterRoute, StretchBoundedAndAboveOne) {
  Fixture f;
  const auto ids = f.populate(6);
  SampleSet stretch;
  for (const NodeId& dest : ids) {
    for (graph::AsIndex src : {5u, 7u}) {
      if (f.net->home_of(dest) == src) continue;
      const InterRouteStats rs = f.net->route(src, dest);
      ASSERT_TRUE(rs.delivered);
      if (rs.bgp_hops > 0) stretch.add(rs.stretch());
    }
  }
  EXPECT_GE(stretch.min(), 1.0);
  EXPECT_LT(stretch.mean(), 6.0);
}

TEST(InterRoute, NonexistentIdUndelivered) {
  Fixture f;
  f.populate(3);
  Rng other(4242);
  const Identity ghost = Identity::generate(other);
  EXPECT_FALSE(f.net->route(5, ghost.id()).delivered);
}

TEST(InterFingers, FingersReduceSegmentsOrHops) {
  InterConfig no_fingers;
  InterConfig with_fingers;
  with_fingers.fingers_per_id = 32;
  Fixture f0(no_fingers, 11);
  Fixture f1(with_fingers, 11);
  const auto ids0 = f0.populate(8);
  const auto ids1 = f1.populate(8);
  auto total_hops = [](Fixture& f, const std::vector<NodeId>& ids) {
    std::uint64_t hops = 0;
    for (const NodeId& dest : ids) {
      const auto rs = f.net->route(5, dest);
      EXPECT_TRUE(rs.delivered);
      hops += rs.as_hops;
    }
    return hops;
  };
  EXPECT_LE(total_hops(f1, ids1), total_hops(f0, ids0));
  EXPECT_GT(f1.net->total_finger_count(), 0u);
}

TEST(InterBloom, PeeringViaBloomDelivers) {
  InterConfig cfg;
  cfg.peering_mode = PeeringMode::kBloom;
  Fixture f(cfg, 23);
  const auto ids = f.populate(5);
  // Cross-tier1 traffic (5 -> 4) must flow over the peering link using the
  // bloom rule.
  bool used_peer = false;
  for (const NodeId& dest : ids) {
    if (f.net->home_of(dest) != 4u) continue;
    const InterRouteStats rs = f.net->route(5, dest);
    EXPECT_TRUE(rs.delivered) << dest;
    used_peer |= rs.peer_links_used > 0;
  }
  EXPECT_TRUE(used_peer);
}

TEST(InterBloom, PeeringJoinCostsSameAsMultihomedUnderBloom) {
  InterConfig cfg;
  cfg.peering_mode = PeeringMode::kBloom;
  Fixture f(cfg, 31);
  f.populate(4);
  Identity a = Identity::generate(f.net->rng());
  Identity b = Identity::generate(f.net->rng());
  const auto multi = f.net->join_host(a, 5, JoinStrategy::kRecursiveMultihomed);
  const auto peering = f.net->join_host(b, 5, JoinStrategy::kPeering);
  ASSERT_TRUE(multi.ok);
  ASSERT_TRUE(peering.ok);
  // The optimization the paper reports: bloom filters eliminate joins
  // across peering links.
  EXPECT_NEAR(static_cast<double>(peering.messages),
              static_cast<double>(multi.messages), 4.0);
}

TEST(InterCache, CachesCutHopsOnRepeatedTraffic) {
  InterConfig cold;
  InterConfig warm;
  warm.cache_capacity_per_as = 1024;
  Fixture f0(cold, 13);
  Fixture f1(warm, 13);
  const auto ids0 = f0.populate(8);
  const auto ids1 = f1.populate(8);
  auto second_pass_hops = [](Fixture& f, const std::vector<NodeId>& ids) {
    std::uint64_t hops = 0;
    for (const NodeId& dest : ids) (void)f.net->route(5, dest);  // warm pass
    for (const NodeId& dest : ids) hops += f.net->route(5, dest).as_hops;
    return hops;
  };
  EXPECT_LE(second_pass_hops(f1, ids1), second_pass_hops(f0, ids0));
}

TEST(InterFail, LeaveSplicesRings) {
  Fixture f;
  auto ids = f.populate(5);
  const NodeId victim = ids[3];
  const InterRepairStats rs = f.net->leave_host(victim);
  EXPECT_GT(rs.messages, 0u);
  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err)) << err;
  EXPECT_FALSE(f.net->route(5, victim).delivered);
  for (const NodeId& id : ids) {
    if (id == victim) continue;
    EXPECT_TRUE(f.net->route(5, id).delivered);
  }
}

TEST(InterFail, LeaveOfADirectoryKeyCopiesTheId) {
  // leave_host erases the directory entry that the reference names before
  // its last read of the id, so the engine must work on its own copy; an
  // ASan build catches a read through the freed entry.
  Fixture f;
  const auto ids = f.populate(5);
  const NodeId victim = f.net->directory().begin()->first;
  const InterRepairStats rs =
      f.net->leave_host(f.net->directory().begin()->first);
  EXPECT_GT(rs.messages, 0u);
  EXPECT_FALSE(f.net->directory().contains(victim));
  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err)) << err;
  EXPECT_FALSE(f.net->route(5, victim).delivered);
  for (const NodeId& id : ids) {
    if (id != victim) {
      EXPECT_TRUE(f.net->route(5, id).delivered);
    }
  }
}

TEST(InterFail, StubAsFailureRepairsAndIsolates) {
  Fixture f;
  const auto ids = f.populate(6);
  const InterRepairStats rs = f.net->fail_as(7);
  EXPECT_GT(rs.ids_lost, 0u);
  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err)) << err;
  for (const NodeId& id : ids) {
    const auto home = f.net->home_of(id);
    if (!home.has_value()) continue;  // died with AS 7
    EXPECT_TRUE(f.net->route(5, id).delivered) << id;
  }
}

TEST(InterFail, RestoreAsRejoins) {
  Fixture f;
  const auto ids = f.populate(4);
  std::set<NodeId> at7;
  for (const NodeId& id : ids) {
    if (f.net->home_of(id) == 7u) at7.insert(id);
  }
  ASSERT_FALSE(at7.empty());
  (void)f.net->fail_as(7);
  (void)f.net->restore_as(7);
  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err)) << err;
  for (const NodeId& id : at7) {
    EXPECT_EQ(f.net->home_of(id), 7u);
    EXPECT_TRUE(f.net->route(5, id).delivered);
  }
}

TEST(InterFail, MultihomedSurvivesPrimaryLinkFailure) {
  // A multihomed AS keeps global reachability when one access link dies
  // (section 2.3, "Recovering").
  AsTopology t = AsTopology::from_links(
      6, {{2, 0, AsRel::kProvider},
          {3, 0, AsRel::kProvider},
          {4, 2, AsRel::kProvider},   // 4 is multihomed: providers 2 and 3
          {4, 3, AsRel::kProvider},
          {5, 2, AsRel::kProvider}});
  for (graph::AsIndex a : {4u, 5u}) t.set_host_count(a, 10);
  InterNetwork net(&t, {}, 5);
  std::vector<NodeId> ids;
  for (int i = 0; i < 6; ++i) {
    Identity ident = Identity::generate(net.rng());
    ASSERT_TRUE(net.join_host(ident, 4, JoinStrategy::kRecursiveMultihomed).ok);
    ids.push_back(ident.id());
  }
  Identity probe = Identity::generate(net.rng());
  ASSERT_TRUE(net.join_host(probe, 5, JoinStrategy::kRecursiveMultihomed).ok);

  (void)net.fail_link(4, 2);  // primary access link dies
  for (const NodeId& id : ids) {
    EXPECT_TRUE(net.route(5, id).delivered) << id;
  }
  EXPECT_TRUE(net.route(4, probe.id()).delivered);
}

TEST(InterFail, EveryTopologyChangeReroutesOverTheNewMap) {
  // Each failure and restore entry point changes the up-hierarchy that AS
  // routes climb, and must reroute over the map as it now stands:
  //        0 ~~~~ 1        (tier-1 peering)
  //       / \      \ .
  //      2   3      7      4 buys from 2 and 3; 8 only from 2
  //     / \ / \ .
  //    8   4   5
  //        |
  //        6
  AsTopology t = AsTopology::from_links(
      9, {{2, 0, AsRel::kProvider},
          {3, 0, AsRel::kProvider},
          {4, 2, AsRel::kProvider},
          {4, 3, AsRel::kProvider},
          {5, 3, AsRel::kProvider},
          {6, 4, AsRel::kProvider},
          {7, 1, AsRel::kProvider},
          {8, 2, AsRel::kProvider},
          {0, 1, AsRel::kPeer}});
  for (graph::AsIndex a : {2u, 5u, 6u, 7u, 8u}) t.set_host_count(a, 10);
  InterNetwork net(&t, {}, 17);
  std::vector<NodeId> joined;
  for (graph::AsIndex home : {2u, 5u, 6u, 7u, 8u}) {
    for (int i = 0; i < 3; ++i) {
      Identity ident = Identity::generate(net.rng());
      ASSERT_TRUE(
          net.join_host(ident, home, JoinStrategy::kRecursiveMultihomed).ok);
      joined.push_back(ident.id());
    }
  }
  // Every surviving ID is delivered from every AS that hosts IDs, except
  // those `cut` leaves without a provider.
  const auto expect_all_delivered = [&](const char* step,
                                        std::set<graph::AsIndex> cut) {
    std::string err;
    EXPECT_TRUE(net.verify_rings(&err)) << step << ": " << err;
    for (const graph::AsIndex src : {2u, 5u, 6u, 7u, 8u}) {
      if (cut.contains(src) || !net.base_topology().as_up(src)) continue;
      for (const NodeId& id : joined) {
        const auto now = net.home_of(id);
        if (!now.has_value() || cut.contains(*now)) continue;
        EXPECT_TRUE(net.route(src, id).delivered)
            << step << ": from AS " << src << " to " << id << " at AS "
            << *now;
      }
    }
  };
  expect_all_delivered("joined", {});
  (void)net.fail_as(2);
  expect_all_delivered("fail_as(2)", {8});
  (void)net.restore_as(2);
  expect_all_delivered("restore_as(2)", {});
  (void)net.fail_as_with_virtual_servers(2, 0);
  expect_all_delivered("fail_as_with_virtual_servers(2, 0)", {8});
  (void)net.restore_as(2);
  expect_all_delivered("restore_as(2) after virtual servers", {});
  (void)net.fail_link(4, 2);
  expect_all_delivered("fail_link(4, 2)", {});
  (void)net.restore_link(4, 2);
  expect_all_delivered("restore_link(4, 2)", {});
}

TEST(InterFail, LinkRestoreReconverges) {
  Fixture f;
  const auto ids = f.populate(4);
  (void)f.net->fail_link(7, 3);
  (void)f.net->restore_link(7, 3);
  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err)) << err;
  for (const NodeId& id : ids) {
    EXPECT_TRUE(f.net->route(5, id).delivered);
  }
}

TEST(InterState, PointerCountGrowsLogarithmically) {
  // Canon: expected total pointers (internal + external) is O(log n) per ID.
  Fixture f;
  const auto ids = f.populate(10);
  const double per_id = static_cast<double>(f.net->total_pointer_count()) /
                        static_cast<double>(ids.size());
  EXPECT_LT(per_id, 6.0);  // far below the anchor count once pruned
  EXPECT_GT(per_id, 0.5);
  EXPECT_GT(f.net->mean_state_bits_per_as(), 0.0);
}

// Property sweep over larger generated topologies and all strategies.
struct SweepParam {
  JoinStrategy strategy;
  PeeringMode mode;
};

class InterSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(InterSweep, EveryPairDeliversOnGeneratedTopology) {
  const SweepParam param = GetParam();
  Rng trng(77);
  graph::AsGenParams gp;
  gp.tier1_count = 3;
  gp.tier2_count = 6;
  gp.tier3_count = 12;
  gp.stub_count = 30;
  gp.total_hosts = 5000;
  const AsTopology topo = AsTopology::make_internet_like(gp, trng);
  InterConfig cfg;
  cfg.peering_mode = param.mode;
  InterNetwork net(&topo, cfg, 101);
  std::vector<NodeId> ids;
  for (int i = 0; i < 60; ++i) {
    Identity ident = Identity::generate(net.rng());
    graph::AsIndex home =
        static_cast<graph::AsIndex>(3 + 6 + 12 + net.rng().index(30));
    if (net.join_host(ident, home, param.strategy).ok) {
      ids.push_back(ident.id());
    }
  }
  ASSERT_GT(ids.size(), 50u);
  std::string err;
  EXPECT_TRUE(net.verify_rings(&err)) << err;
  int isolation_violations = 0;
  for (int i = 0; i < 120; ++i) {
    const NodeId dest = ids[net.rng().index(ids.size())];
    const NodeId src_id = ids[net.rng().index(ids.size())];
    const auto src = net.home_of(src_id);
    ASSERT_TRUE(src.has_value());
    const InterRouteStats rs = net.route(*src, dest);
    EXPECT_TRUE(rs.delivered) << "to " << dest;
    if (!rs.isolation_held) ++isolation_violations;
  }
  // The paper observed zero isolation violations; allow none here either
  // for the strategies that join every level.
  if (param.strategy == JoinStrategy::kRecursiveMultihomed ||
      param.strategy == JoinStrategy::kPeering) {
    EXPECT_EQ(isolation_violations, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategyByMode, InterSweep,
    ::testing::Values(
        SweepParam{JoinStrategy::kSingleHomed, PeeringMode::kVirtualAs},
        SweepParam{JoinStrategy::kRecursiveMultihomed, PeeringMode::kVirtualAs},
        SweepParam{JoinStrategy::kPeering, PeeringMode::kVirtualAs},
        SweepParam{JoinStrategy::kRecursiveMultihomed, PeeringMode::kBloom},
        SweepParam{JoinStrategy::kPeering, PeeringMode::kBloom}));

// Golden interdomain outcomes under loss and corruption.  Joins over every
// strategy, departures, an AS failure and its restore, a maintenance pass
// and routes fold their stats, then every registry counter by name (inter.*,
// faults.*, msgs.* and bytes.*), into one digest.  Pinned from this body
// before the simulator layers shared one retry loop and one receive step.
TEST(InterGolden, LossAndCorruption) {
  Rng trng(1717);
  graph::AsGenParams gp;
  gp.tier1_count = 3;
  gp.tier2_count = 6;
  gp.tier3_count = 12;
  gp.stub_count = 30;
  gp.total_hosts = 4000;
  const AsTopology topo = AsTopology::make_internet_like(gp, trng);
  InterConfig cfg;
  cfg.fingers_per_id = 2;
  InterNetwork net(&topo, cfg, 1718);
  sim::FaultPlan plan;
  plan.defaults.loss = 0.06;
  plan.defaults.corrupt = 0.05;
  sim::FaultInjector inj(plan, 1719, &net.simulator().metrics());
  net.set_fault_injector(&inj);

  testing_support::GoldenDigest d;
  const auto add_repair = [&d](const InterRepairStats& rs) {
    d.add(rs.messages);
    d.add(rs.bytes);
    d.add(std::uint64_t{rs.pointers_torn});
    d.add(std::uint64_t{rs.ids_lost});
  };
  const auto route_batch = [&] {
    const auto& dir = net.directory();
    if (dir.empty()) return;
    std::vector<NodeId> live;
    for (const auto& [id, home] : dir) live.push_back(id);
    for (int i = 0; i < 60; ++i) {
      const auto src =
          static_cast<graph::AsIndex>(net.rng().index(topo.as_count()));
      const InterRouteStats rs =
          net.route(src, live[net.rng().index(live.size())]);
      d.add(std::uint64_t{rs.delivered});
      d.add(std::uint64_t{rs.as_hops});
      d.add(std::uint64_t{rs.segments});
      d.add(std::uint64_t{rs.bgp_hops});
      d.add(std::uint64_t{rs.isolation_held});
      d.add(std::uint64_t{rs.peer_links_used});
      d.add(std::uint64_t{rs.backtracks});
    }
  };
  const JoinStrategy strategies[] = {
      JoinStrategy::kEphemeral, JoinStrategy::kSingleHomed,
      JoinStrategy::kRecursiveMultihomed, JoinStrategy::kPeering};
  for (int i = 0; i < 80; ++i) {
    const InterJoinStats js = net.join_random_host(strategies[i % 4]);
    d.add(std::uint64_t{js.ok});
    d.add(js.messages);
    d.add(js.bytes);
  }
  route_batch();
  for (int i = 0; i < 10; ++i) {
    const auto& dir = net.directory();
    const NodeId victim = std::next(dir.begin(), (i * 7) % dir.size())->first;
    add_repair(net.leave_host(victim));
  }
  const auto victim = static_cast<graph::AsIndex>(topo.as_count() - 1);
  add_repair(net.fail_as(victim));
  route_batch();
  add_repair(net.restore_as(victim));
  add_repair(net.repair());
  route_batch();
  d.add_counters(net.simulator().metrics());
  net.set_fault_injector(nullptr);
  EXPECT_GT(inj.corrupted(), 0u);
  EXPECT_EQ(d.value(), 0xe9b48ead07cb6accull);
}

}  // namespace
}  // namespace rofl::inter
