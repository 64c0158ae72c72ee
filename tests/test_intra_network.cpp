// Integration tests for the intradomain ROFL protocol engine (sections 2.2,
// 3): joins, greedy forwarding, failure handling, and partition repair, all
// over a small Rocketfuel-like ISP.
#include "rofl/network.hpp"

#include <gtest/gtest.h>

#include "golden_digest.hpp"
#include "util/stats.hpp"

#include <set>

namespace rofl::intra {
namespace {

struct TestNet {
  graph::IspTopology topo;
  std::unique_ptr<Network> net;
  std::vector<Identity> hosts;

  explicit TestNet(std::size_t routers = 30, std::size_t pops = 5,
                   Config cfg = {}, std::uint64_t seed = 1234) {
    Rng trng(seed);
    graph::IspParams p;
    p.router_count = routers;
    p.pop_count = pops;
    topo = graph::make_isp_topology(p, trng);
    net = std::make_unique<Network>(&topo, cfg, seed + 1);
  }

  NodeId join(NodeIndex gw, HostClass cls = HostClass::kStable) {
    Identity ident = Identity::generate(net->rng());
    const JoinStats js = net->join_host(ident, gw, cls);
    EXPECT_TRUE(js.ok);
    hosts.push_back(ident);
    return ident.id();
  }

  std::vector<NodeId> join_many(std::size_t n) {
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      const auto gw =
          static_cast<NodeIndex>(net->rng().index(net->router_count()));
      ids.push_back(join(gw));
    }
    return ids;
  }
};

/// `n` routers in a line, 0 - 1 - ... - n-1, as one PoP.
graph::IspTopology line_isp(std::size_t n) {
  graph::IspTopology topo;
  topo.name = "line";
  topo.graph = graph::Graph(n);
  topo.pops.resize(1);
  for (NodeIndex r = 0; r < n; ++r) {
    if (r + 1 < n) topo.graph.add_edge(r, r + 1);
    topo.pop_of.push_back(0);
    topo.pops[0].push_back(r);
    topo.is_backbone.push_back(true);
  }
  return topo;
}

TEST(IntraDeterminism, ParallelSpfReproducesSerialRunExactly) {
  // Acceptance gate for the parallel SPF substrate: with a fixed seed, a
  // network repairing topology failures over the worker pool must produce
  // byte-identical routing tables (directory, ring state, route outcomes)
  // and identical per-category message counters to the serial path.
  TestNet a(64, 8, Config{}, 999);
  TestNet b(64, 8, Config{}, 999);
  a.net->map().set_spf_threads(0);
  b.net->map().set_spf_threads(4);

  const auto ids_a = a.join_many(80);
  const auto ids_b = b.join_many(80);
  ASSERT_EQ(ids_a, ids_b);

  // Drive the repair machinery (where recompute_all_spf runs) identically.
  const RepairStats ra1 = a.net->fail_router(3);
  const RepairStats rb1 = b.net->fail_router(3);
  EXPECT_EQ(ra1.messages, rb1.messages);
  EXPECT_EQ(ra1.ids_rejoined, rb1.ids_rejoined);
  EXPECT_EQ(ra1.pointers_torn, rb1.pointers_torn);
  const RepairStats ra2 = a.net->fail_link(10, a.topo.graph.neighbors(10).front().to);
  const RepairStats rb2 = b.net->fail_link(10, b.topo.graph.neighbors(10).front().to);
  EXPECT_EQ(ra2.messages, rb2.messages);
  a.net->restore_router(3);
  b.net->restore_router(3);

  // Routing tables: same directory, same ring state, same greedy outcomes.
  ASSERT_EQ(a.net->directory(), b.net->directory());
  std::string err;
  EXPECT_TRUE(a.net->verify_rings(&err)) << err;
  EXPECT_TRUE(b.net->verify_rings(&err)) << err;
  for (std::size_t i = 0; i < ids_a.size(); i += 5) {
    const auto src = static_cast<NodeIndex>((i * 13) % a.net->router_count());
    const RouteStats sa = a.net->route(src, ids_a[i]);
    const RouteStats sb = b.net->route(src, ids_b[i]);
    EXPECT_EQ(sa.delivered, sb.delivered);
    EXPECT_EQ(sa.physical_hops, sb.physical_hops);
    EXPECT_EQ(sa.ring_hops, sb.ring_hops);
    EXPECT_EQ(a.net->shortest_hops(src, ids_a[i]),
              b.net->shortest_hops(src, ids_b[i]));
  }

  // Figure CSVs derive from these counters; they must match category by
  // category, not just in total.
  for (std::size_t c = 0; c < sim::kMsgCategoryCount; ++c) {
    const auto cat = static_cast<sim::MsgCategory>(c);
    EXPECT_EQ(a.net->simulator().counters().get(cat),
              b.net->simulator().counters().get(cat))
        << sim::to_string(cat);
  }
}

TEST(IntraDeterminism, SameSeedMetricsSnapshotsAreByteIdentical) {
  // The registry holds simulated behaviour only: two same-seed runs through
  // the all-routers SPF recompute of repair_partitions export byte-identical
  // snapshots, with nothing scrubbed first.
  const auto snapshot = [] {
    TestNet t(64, 8, Config{}, 4321);
    t.join_many(60);
    (void)t.net->fail_link(5, t.topo.graph.neighbors(5).front().to);
    (void)t.net->fail_router(9);
    (void)t.net->repair_partitions();
    return t.net->simulator().metrics().to_json(2);
  };
  EXPECT_EQ(snapshot(), snapshot());
}

TEST(IntraBootstrap, RouterRingIsCorrect) {
  TestNet t;
  std::string err;
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;
  EXPECT_EQ(t.net->directory().size(), t.net->router_count());
}

TEST(IntraBootstrap, DefaultVnodesHaveSuccessorGroups) {
  TestNet t;
  for (NodeIndex r = 0; r < t.net->router_count(); ++r) {
    const auto& vnodes = t.net->router(r).vnodes();
    ASSERT_EQ(vnodes.size(), 1u);
    const VirtualNode& vn = vnodes.begin()->second;
    EXPECT_TRUE(vn.is_default);
    EXPECT_EQ(vn.successors.size(), t.net->config().successor_group);
    EXPECT_TRUE(vn.predecessor.has_value());
  }
}

TEST(IntraBootstrap, OneRouterRingStaysCanonical) {
  // A lone member is a self-loop, and the ring stays canonical while hosts
  // join around the router's default vnode, leave again, and rejoin.
  graph::IspTopology topo = line_isp(1);
  Network net(&topo, Config{}, 5);
  std::string err;
  ASSERT_TRUE(net.verify_rings(&err, true)) << err;
  std::vector<NodeId> ids;
  for (int i = 0; i < 5; ++i) {
    const Identity ident = Identity::generate(net.rng());
    ASSERT_TRUE(net.join_host(ident, 0).ok);
    ids.push_back(ident.id());
    ASSERT_TRUE(net.verify_rings(&err, true)) << "join " << i << ": " << err;
  }
  for (const NodeId& id : ids) {
    net.leave_host(id);
    ASSERT_TRUE(net.verify_rings(&err, true)) << "leave: " << err;
  }
  ASSERT_EQ(net.directory().size(), 1u);
  ASSERT_TRUE(net.join_host(Identity::generate(net.rng()), 0).ok);
  EXPECT_TRUE(net.verify_rings(&err, true)) << "rejoin: " << err;
}

TEST(IntraJoin, SingleHostJoinSucceedsAndRingHolds) {
  TestNet t;
  const NodeId id = t.join(0);
  std::string err;
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;
  EXPECT_EQ(t.net->hosting_router(id), 0u);
}

TEST(IntraJoin, ManyJoinsKeepRingCorrect) {
  TestNet t;
  t.join_many(200);
  std::string err;
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;
  EXPECT_EQ(t.net->directory().size(), t.net->router_count() + 200);
}

TEST(IntraJoin, DuplicateIdRejected) {
  TestNet t;
  Identity ident = Identity::generate(t.net->rng());
  EXPECT_TRUE(t.net->join_host(ident, 0).ok);
  EXPECT_FALSE(t.net->join_host(ident, 1).ok);
}

TEST(IntraJoin, JoinAtDownRouterFails) {
  TestNet t;
  t.net->map().fail_node(3);
  Identity ident = Identity::generate(t.net->rng());
  EXPECT_FALSE(t.net->join_host(ident, 3).ok);
}

TEST(IntraJoin, JoinOverheadIsBounded) {
  // Paper: join overhead is roughly four messages times the network
  // diameter; check the same order of magnitude.
  TestNet t;
  const auto diameter = t.topo.graph.diameter_hops(t.topo.router_count());
  SampleSet msgs;
  for (int i = 0; i < 50; ++i) {
    Identity ident = Identity::generate(t.net->rng());
    const auto gw =
        static_cast<NodeIndex>(t.net->rng().index(t.net->router_count()));
    const JoinStats js = t.net->join_host(ident, gw);
    ASSERT_TRUE(js.ok);
    msgs.add(static_cast<double>(js.messages));
  }
  EXPECT_LT(msgs.mean(), 12.0 * diameter);
  EXPECT_GT(msgs.mean(), 0.0);
}

TEST(IntraJoin, SuccessorGroupsAreFullyPopulated) {
  TestNet t;
  t.join_many(50);
  const std::size_t k = t.net->config().successor_group;
  for (NodeIndex r = 0; r < t.net->router_count(); ++r) {
    for (const auto& [id, vn] : t.net->router(r).vnodes()) {
      if (vn.host_class == HostClass::kEphemeral) continue;
      EXPECT_EQ(vn.successors.size(), k) << "vnode " << id;
      EXPECT_TRUE(vn.predecessor.has_value());
    }
  }
}

TEST(IntraJoin, SuccessorGroupsMatchGlobalOrder) {
  TestNet t;
  t.join_many(60);
  // Build the oracle ring.
  std::vector<std::pair<NodeId, NodeIndex>> ring(t.net->directory().begin(),
                                                 t.net->directory().end());
  const std::size_t n = ring.size();
  const std::size_t k = t.net->config().successor_group;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [id, host] = ring[i];
    const VirtualNode* vn = t.net->router(host).find_vnode(id);
    ASSERT_NE(vn, nullptr);
    for (std::size_t s = 0; s < k && s < vn->successors.size(); ++s) {
      EXPECT_EQ(vn->successors[s].id, ring[(i + s + 1) % n].first)
          << "vnode " << id << " successor " << s;
    }
  }
}

TEST(IntraRoute, DeliversBetweenAllPairsSample) {
  TestNet t;
  const auto ids = t.join_many(100);
  std::string err;
  ASSERT_TRUE(t.net->verify_rings(&err)) << err;
  for (int i = 0; i < 200; ++i) {
    const NodeId dest = ids[t.net->rng().index(ids.size())];
    const auto src =
        static_cast<NodeIndex>(t.net->rng().index(t.net->router_count()));
    const RouteStats rs = t.net->route(src, dest);
    EXPECT_TRUE(rs.delivered) << "to " << dest << " from " << src;
  }
}

TEST(IntraRoute, DeliveryToResidentIsImmediate) {
  TestNet t;
  const NodeId id = t.join(2);
  const RouteStats rs = t.net->route(2, id);
  EXPECT_TRUE(rs.delivered);
  EXPECT_EQ(rs.physical_hops, 0u);
}

TEST(IntraRoute, NonexistentIdNotDelivered) {
  TestNet t;
  t.join_many(20);
  // A fresh ID that never joined.
  Rng other(999);
  const Identity ghost = Identity::generate(other);
  const RouteStats rs = t.net->route(0, ghost.id());
  EXPECT_FALSE(rs.delivered);
}

TEST(IntraRoute, CacheReducesStretch) {
  Config small;
  small.cache_capacity = 0;
  Config big;
  big.cache_capacity = 4096;
  TestNet t_small(30, 5, small, 777);
  TestNet t_big(30, 5, big, 777);

  auto measure = [](TestNet& t) {
    const auto ids = t.join_many(150);
    SampleSet stretch;
    for (int i = 0; i < 400; ++i) {
      const NodeId dest = ids[t.net->rng().index(ids.size())];
      const auto src =
          static_cast<NodeIndex>(t.net->rng().index(t.net->router_count()));
      const RouteStats rs = t.net->route(src, dest);
      const std::uint32_t sp =
          rs.delivered ? t.net->shortest_hops(src, dest) : 0;
      if (sp > 0) stretch.add(rs.stretch(sp));
    }
    return stretch.mean();
  };
  const double s_small = measure(t_small);
  const double s_big = measure(t_big);
  EXPECT_LT(s_big, s_small);
  EXPECT_GE(s_big, 1.0);
}

TEST(IntraRoute, StretchIsAtLeastOne) {
  TestNet t;
  const auto ids = t.join_many(50);
  for (int i = 0; i < 100; ++i) {
    const NodeId dest = ids[t.net->rng().index(ids.size())];
    const auto src =
        static_cast<NodeIndex>(t.net->rng().index(t.net->router_count()));
    const RouteStats rs = t.net->route(src, dest);
    const std::uint32_t sp = rs.delivered ? t.net->shortest_hops(src, dest) : 0;
    if (sp > 0) {
      EXPECT_GE(rs.stretch(sp), 1.0);
    }
  }
}

TEST(IntraEphemeral, JoinAndRoute) {
  TestNet t;
  t.join_many(30);
  const NodeId eid = t.join(4, HostClass::kEphemeral);
  std::string err;
  // Ephemeral hosts are not ring members; ring must still verify.
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;
  const RouteStats rs = t.net->route(9, eid);
  EXPECT_TRUE(rs.delivered);
}

TEST(IntraEphemeral, DeliveredAtItsOwnGatewayWithoutHops) {
  // Ephemeral vnodes stay out of the greedy index, so the one-descent
  // delivery check must still find one resident at the router a packet
  // starts from, rather than detouring via the predecessor's backpointer.
  TestNet t;
  t.join_many(30);
  const NodeId eid = t.join(4, HostClass::kEphemeral);
  const RouteStats rs = t.net->route(4, eid);
  EXPECT_TRUE(rs.delivered);
  EXPECT_EQ(rs.physical_hops, 0u);
  EXPECT_EQ(rs.ring_hops, 0u);
}

TEST(IntraEphemeral, NeverAppearsInSuccessorLists) {
  TestNet t;
  t.join_many(30);
  const NodeId eid = t.join(4, HostClass::kEphemeral);
  for (NodeIndex r = 0; r < t.net->router_count(); ++r) {
    for (const auto& [id, vn] : t.net->router(r).vnodes()) {
      for (const NeighborPtr& s : vn.successors) {
        EXPECT_NE(s.id, eid);
      }
      if (vn.predecessor.has_value()) {
        EXPECT_NE(vn.predecessor->id, eid);
      }
    }
  }
}

TEST(IntraEphemeral, SurvivesInterveningJoin) {
  // A stable host joining between the ephemeral ID and its predecessor must
  // inherit the backpointer, or routing breaks.
  TestNet t;
  t.join_many(40);
  const NodeId eid = t.join(4, HostClass::kEphemeral);
  t.join_many(60);  // some of these land between pred and eid
  const RouteStats rs = t.net->route(1, eid);
  EXPECT_TRUE(rs.delivered);
}

TEST(IntraFail, HostFailureSplicesRing) {
  TestNet t;
  const auto ids = t.join_many(50);
  const RepairStats rs = t.net->fail_host(ids[10]);
  EXPECT_GT(rs.messages, 0u);
  std::string err;
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;
  EXPECT_FALSE(t.net->route(0, ids[10]).delivered);
  // Everyone else still reachable.
  for (int i = 0; i < 30; ++i) {
    const NodeId dest = ids[t.net->rng().index(ids.size())];
    if (dest == ids[10]) continue;
    EXPECT_TRUE(t.net->route(0, dest).delivered);
  }
}

TEST(IntraFail, GracefulLeaveCheaperThanFailure) {
  TestNet t1(30, 5, {}, 42);
  TestNet t2(30, 5, {}, 42);
  const auto ids1 = t1.join_many(50);
  const auto ids2 = t2.join_many(50);
  const RepairStats fail = t1.net->fail_host(ids1[7]);
  const RepairStats leave = t2.net->leave_host(ids2[7]);
  EXPECT_LE(leave.messages, fail.messages);
}

/// Departs the directory's first id, passed as the reference directory()
/// hands out.  The departure erases that entry before its teardowns carry
/// the id, so the engine must work on its own copy; an ASan build catches a
/// read through the freed entry.
void depart_first_directory_entry(bool graceful) {
  TestNet t;
  const auto ids = t.join_many(40);
  // An id below every router id, so the first directory entry is a host.
  const NodeId low(0, 1);
  ASSERT_TRUE(t.net->join_group_id(
                       low, Identity::generate(t.net->rng()).public_key(), 3)
                  .ok);
  ASSERT_EQ(t.net->directory().begin()->first, low);
  const NodeId& first = t.net->directory().begin()->first;
  const RepairStats rs =
      graceful ? t.net->leave_host(first) : t.net->fail_host(first);
  EXPECT_GT(rs.messages, 0u);
  EXPECT_FALSE(t.net->hosting_router(low).has_value());
  std::string err;
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;
  EXPECT_FALSE(t.net->route(0, low).delivered);
  for (const NodeId& id : ids) EXPECT_TRUE(t.net->route(0, id).delivered);
}

TEST(IntraFail, LeaveOfADirectoryKeyCopiesTheId) {
  depart_first_directory_entry(/*graceful=*/true);
}

TEST(IntraFail, FailureOfADirectoryKeyCopiesTheId) {
  depart_first_directory_entry(/*graceful=*/false);
}

TEST(IntraFail, SequentialHostFailuresKeepRing) {
  TestNet t;
  auto ids = t.join_many(60);
  Rng chooser(5);
  for (int i = 0; i < 25; ++i) {
    const std::size_t victim = chooser.index(ids.size());
    t.net->fail_host(ids[victim]);
    ids.erase(ids.begin() + static_cast<long>(victim));
  }
  std::string err;
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;
  for (const NodeId& id : ids) {
    EXPECT_TRUE(t.net->route(0, id).delivered);
  }
}

TEST(IntraFail, RouterFailureRehomesHosts) {
  TestNet t;
  const auto ids = t.join_many(60);
  // Count hosts homed at router 5 before the crash.
  std::size_t at5 = 0;
  for (const NodeId& id : ids) {
    if (t.net->hosting_router(id) == 5u) ++at5;
  }
  const RepairStats rs = t.net->fail_router(5);
  EXPECT_EQ(rs.ids_rejoined, at5);
  std::string err;
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;
  // All hosts (including the rehomed ones) reachable from a live router.
  for (const NodeId& id : ids) {
    EXPECT_TRUE(t.net->route(10, id).delivered) << id;
    EXPECT_NE(t.net->hosting_router(id), 5u);
  }
}

TEST(IntraFail, RouterRestoreRejoinsRing) {
  TestNet t;
  t.join_many(30);
  t.net->fail_router(5);
  const RepairStats rs = t.net->restore_router(5);
  (void)rs;
  std::string err;
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;
  EXPECT_EQ(t.net->hosting_router(t.net->router(5).router_id()), 5u);
}

TEST(IntraFail, LinkFailureWithoutPartitionKeepsDelivery) {
  TestNet t;
  const auto ids = t.join_many(50);
  // Fail one redundant link (pick an edge whose removal keeps connectivity).
  bool failed_one = false;
  for (NodeIndex u = 0; u < t.topo.router_count() && !failed_one; ++u) {
    for (const auto& e : t.topo.graph.neighbors(u)) {
      if (u > e.to) continue;
      t.topo.graph.set_link_up(u, e.to, false);
      const bool still = t.topo.graph.connected();
      t.topo.graph.set_link_up(u, e.to, true);
      if (still) {
        t.net->fail_link(u, e.to);
        failed_one = true;
        break;
      }
    }
  }
  ASSERT_TRUE(failed_one);
  std::string err;
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;
  for (int i = 0; i < 40; ++i) {
    const NodeId dest = ids[t.net->rng().index(ids.size())];
    const auto src =
        static_cast<NodeIndex>(t.net->rng().index(t.net->router_count()));
    EXPECT_TRUE(t.net->route(src, dest).delivered);
  }
}

TEST(IntraRepair, NoopOnHealthyNetwork) {
  // Repair must charge (almost) nothing when nothing failed -- pointer state
  // is already canonical after joins.
  TestNet t;
  t.join_many(80);
  const RepairStats rs = t.net->repair_partitions();
  EXPECT_EQ(rs.ids_rejoined, 0u);
  EXPECT_EQ(rs.pointers_torn, 0u);
}

TEST(IntraPartition, PopDisconnectAndHeal) {
  TestNet t(40, 8);
  const auto ids = t.join_many(120);

  // Disconnect PoP 3 by failing all its external links.
  const auto& pop = t.topo.pops[3];
  const std::set<NodeIndex> pop_set(pop.begin(), pop.end());
  std::vector<std::pair<NodeIndex, NodeIndex>> cut;
  for (const NodeIndex r : pop) {
    for (const auto& e : t.topo.graph.neighbors(r)) {
      if (!pop_set.contains(e.to)) cut.emplace_back(r, e.to);
    }
  }
  ASSERT_FALSE(cut.empty());
  for (const auto& [u, v] : cut) t.net->map().fail_link(u, v);
  const RepairStats split = t.net->repair_partitions();
  (void)split;

  // Both sides now have consistent rings.
  std::string err;
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;

  // Delivery works within each side.
  std::vector<NodeId> inside, outside;
  for (const NodeId& id : ids) {
    const auto host = t.net->hosting_router(id);
    ASSERT_TRUE(host.has_value());
    (pop_set.contains(*host) ? inside : outside).push_back(id);
  }
  if (!inside.empty()) {
    EXPECT_TRUE(t.net->route(*pop_set.begin(), inside.front()).delivered);
  }
  if (!outside.empty()) {
    NodeIndex out_router = 0;
    while (pop_set.contains(out_router)) ++out_router;
    EXPECT_TRUE(t.net->route(out_router, outside.front()).delivered);
    // Cross-partition delivery must fail.
    if (!inside.empty()) {
      EXPECT_FALSE(t.net->route(out_router, inside.front()).delivered);
    }
  }

  // Heal and verify the rings merge back into one.
  for (const auto& [u, v] : cut) t.net->map().restore_link(u, v);
  const RepairStats heal = t.net->repair_partitions();
  EXPECT_TRUE(t.net->verify_rings(&err)) << err;
  EXPECT_GT(heal.messages + split.messages, 0u);

  // Full reachability is restored (invariant (a) of section 3.2).
  for (int i = 0; i < 60; ++i) {
    const NodeId dest = ids[t.net->rng().index(ids.size())];
    const auto src =
        static_cast<NodeIndex>(t.net->rng().index(t.net->router_count()));
    EXPECT_TRUE(t.net->route(src, dest).delivered);
  }
}

TEST(IntraPartition, LoneMemberAcceptsJoinsAndRemerges) {
  // Cutting the last link of a line leaves router 2 alone with its default
  // vnode.  That lone member must become a self-loop that accepts joins, and
  // its ring must merge back when the link heals.
  graph::IspTopology topo = line_isp(3);
  Network net(&topo, Config{}, 9);
  std::vector<NodeId> ids;
  for (int i = 0; i < 6; ++i) {
    const Identity ident = Identity::generate(net.rng());
    ASSERT_TRUE(net.join_host(ident, static_cast<NodeIndex>(i % 2)).ok);
    ids.push_back(ident.id());
  }
  net.map().fail_link(1, 2);
  net.repair_partitions();
  std::string err;
  EXPECT_TRUE(net.verify_rings(&err, true)) << "split: " << err;
  for (int i = 0; i < 4; ++i) {
    const Identity ident = Identity::generate(net.rng());
    EXPECT_TRUE(net.join_host(ident, 2).ok) << "join " << i << " at router 2";
    ids.push_back(ident.id());
  }
  EXPECT_TRUE(net.verify_rings(&err, true)) << "joins: " << err;
  net.map().restore_link(1, 2);
  net.repair_partitions();
  EXPECT_TRUE(net.verify_rings(&err, true)) << "heal: " << err;
  for (const NodeId& id : ids) {
    EXPECT_TRUE(net.route(0, id).delivered);
    EXPECT_TRUE(net.route(2, id).delivered);
  }
}

TEST(IntraMemory, StateGrowsWithHostsAndCacheBounded) {
  Config cfg;
  cfg.cache_capacity = 64;
  TestNet t(30, 5, cfg);
  const double before = t.net->mean_state_entries();
  t.join_many(100);
  const double after = t.net->mean_state_entries();
  EXPECT_GT(after, before);
  for (NodeIndex r = 0; r < t.net->router_count(); ++r) {
    EXPECT_LE(t.net->router(r).cache().size(), 64u);
  }
  EXPECT_GT(t.net->resident_state_bits(), 0u);
}

TEST(IntraCounters, JoinTrafficIsAccounted) {
  TestNet t;
  const auto before = t.net->simulator().counters().get(sim::MsgCategory::kJoin);
  t.join_many(10);
  EXPECT_GT(t.net->simulator().counters().get(sim::MsgCategory::kJoin), before);
}

// Churn property sweep: interleaved joins and failures at several scales
// must always leave a correct ring and full reachability.
class IntraChurn : public ::testing::TestWithParam<int> {};

TEST_P(IntraChurn, RingSurvivesChurn) {
  const int ops = GetParam();
  TestNet t(25, 5, {}, 2024 + static_cast<std::uint64_t>(ops));
  std::vector<NodeId> live;
  Rng chooser(static_cast<std::uint64_t>(ops) * 7 + 1);
  for (int i = 0; i < ops; ++i) {
    if (live.size() < 5 || chooser.chance(0.6)) {
      Identity ident = Identity::generate(t.net->rng());
      const auto gw =
          static_cast<NodeIndex>(chooser.index(t.net->router_count()));
      if (t.net->join_host(ident, gw).ok) live.push_back(ident.id());
    } else {
      const std::size_t victim = chooser.index(live.size());
      t.net->fail_host(live[victim]);
      live.erase(live.begin() + static_cast<long>(victim));
    }
  }
  std::string err;
  ASSERT_TRUE(t.net->verify_rings(&err)) << err;
  for (const NodeId& id : live) {
    EXPECT_TRUE(t.net->route(0, id).delivered);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, IntraChurn,
                         ::testing::Values(20, 60, 120, 250));

// Scans every router (live or crashed) for any trace of `id`: directory
// entry, resident vnode, successor/predecessor pointer, pointer-cache entry,
// or ephemeral backpointer.  Returns a description of the first hit.
std::string find_traces_of(const Network& net, const NodeId& id) {
  if (net.directory().contains(id)) return "directory";
  for (NodeIndex i = 0; i < net.router_count(); ++i) {
    const Router& r = net.router(i);
    if (r.find_vnode(id) != nullptr) return "vnode@" + std::to_string(i);
    for (const auto& [vid, vn] : r.vnodes()) {
      for (const NeighborPtr& s : vn.successors) {
        if (s.id == id) return "successor@" + std::to_string(i);
      }
      if (vn.predecessor.has_value() && vn.predecessor->id == id) {
        return "predecessor@" + std::to_string(i);
      }
    }
    if (r.cache().find(id) != nullptr) return "cache@" + std::to_string(i);
    if (r.ephemeral_gateway(id).has_value()) {
      return "backpointer@" + std::to_string(i);
    }
  }
  return "";
}

TEST(IntraLeave, RouteAfterLeaveFindsNoStaleState) {
  // Regression for the leave-time cache-coherence bug: a graceful leave must
  // purge the departed ID from every router's pointer cache and ring state,
  // so a later route() fails cleanly instead of chasing a stale pointer.
  TestNet t(30, 5, {}, 4242);
  t.join_many(40);
  const NodeId victim = t.join(7);

  // Warm caches along many paths toward the victim.
  for (NodeIndex src = 0; src < t.net->router_count(); ++src) {
    EXPECT_TRUE(t.net->route(src, victim).delivered);
  }

  (void)t.net->leave_host(victim);

  EXPECT_EQ(find_traces_of(*t.net, victim), "");
  for (NodeIndex src = 0; src < t.net->router_count(); src += 3) {
    EXPECT_FALSE(t.net->route(src, victim).delivered) << "src " << src;
  }
  // The survivors' ring must still be canonical and fully routable.
  std::string err;
  ASSERT_TRUE(t.net->verify_rings(&err, /*strict=*/true)) << err;
  for (const auto& [id, home] : t.net->directory()) {
    EXPECT_TRUE(t.net->route(0, id).delivered);
  }
}

TEST(IntraLeave, EphemeralLeaveRemovesBackpointerEverywhere) {
  TestNet t(30, 5, {}, 555);
  t.join_many(30);
  const NodeId eph = t.join(3, HostClass::kEphemeral);
  for (NodeIndex src = 0; src < t.net->router_count(); src += 2) {
    EXPECT_TRUE(t.net->route(src, eph).delivered);
  }

  (void)t.net->leave_host(eph);

  EXPECT_EQ(find_traces_of(*t.net, eph), "");
  EXPECT_FALSE(t.net->route(0, eph).delivered);
  std::string err;
  ASSERT_TRUE(t.net->verify_rings(&err, /*strict=*/true)) << err;
}

// Golden route outcomes.  A fixed-seed ISP map, a join storm, host
// departures and three batches of routes fold every JoinStats and RouteStats
// field (latencies by bit pattern), each route's stretch-oracle hop count,
// the per-category message counters and the cache totals into one FNV-1a
// digest.  The pinned constants were
// produced by this body on the simulator before its first-hop table, the
// stamped source-route check and the two-slot candidate pair: a forwarding
// change that moves any decision, hop, latency or counter moves a digest.
class GoldenDigest : public testing_support::GoldenDigest {
 public:
  using testing_support::GoldenDigest::add;
  void add(const JoinStats& js) {
    add(std::uint64_t{js.ok});
    add(js.messages);
    add(js.latency_ms);
  }
  /// A route outcome and the stretch oracle's answer for the same pair,
  /// folded where RouteStats once carried it.
  void add(const RouteStats& rs, std::uint32_t shortest_hops) {
    add(std::uint64_t{rs.delivered});
    add(std::uint64_t{rs.physical_hops});
    add(std::uint64_t{rs.ring_hops});
    add(rs.latency_ms);
    add(std::uint64_t{shortest_hops});
    add(rs.trace_id);
  }
};

/// With `faulty`, a FaultInjector drops 5% and duplicates 2% of messages and
/// one link flaps down between the first two route batches and back up
/// before the third.
std::uint64_t golden_route_digest(Config cfg, bool faulty) {
  cfg.cache_capacity = 24;  // small: evictions and slot reuse every batch
  TestNet t(60, 6, cfg, 2718);
  Network& net = *t.net;
  sim::FaultPlan plan;
  if (faulty) {
    plan.defaults.loss = 0.05;
    plan.defaults.duplicate = 0.02;
    const NodeIndex u = t.topo.pops[0].front();
    plan.link_flaps.push_back(sim::LinkFlap{
        u, t.topo.graph.neighbors(u).front().to, 10.0, 20.0});
  }
  sim::FaultInjector injector(plan, 99, &net.simulator().metrics());
  if (faulty) {
    net.set_fault_injector(&injector);
    net.schedule_fault_plan(plan);
  }
  GoldenDigest d;
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < 160; ++i) {
    const Identity ident = Identity::generate(net.rng());
    const auto gw = static_cast<NodeIndex>(net.rng().index(net.router_count()));
    const JoinStats js = net.join_host(
        ident, gw, i % 10 == 9 ? HostClass::kEphemeral : HostClass::kStable);
    d.add(js);
    if (js.ok) ids.push_back(ident.id());
  }
  const auto route_batch = [&] {
    for (std::size_t i = 0; i < 300; ++i) {
      const auto src =
          static_cast<NodeIndex>(net.rng().index(net.router_count()));
      const NodeId& dest = ids[net.rng().index(ids.size())];
      d.add(net.route(src, dest), net.shortest_hops(src, dest));
    }
  };
  route_batch();
  // Departures leave stale cached pointers for the next batches to chase.
  for (std::size_t i = 0; i < 12; ++i) {
    const NodeId& victim = ids[(i * 11) % ids.size()];
    const RepairStats rs =
        i % 3 == 0 ? net.leave_host(victim) : net.fail_host(victim);
    d.add(rs.messages);
  }
  net.simulator().run_until(15.0);
  route_batch();
  net.simulator().run_until(25.0);
  route_batch();
  for (std::size_t c = 0; c < sim::kMsgCategoryCount; ++c) {
    d.add(net.simulator().counters().get(static_cast<sim::MsgCategory>(c)));
  }
  const Network::CacheTotals ct = net.cache_totals();
  d.add(ct.hits);
  d.add(ct.misses);
  d.add(ct.evictions);
  d.add(ct.stale_drops);
  d.add(ct.entries);
  net.set_fault_injector(nullptr);
  return d.value();
}

TEST(IntraGolden, DefaultConfig) {
  EXPECT_EQ(golden_route_digest(Config{}, false), 0x9d2c5212614d89f3ull);
}

TEST(IntraGolden, DataPathSnooping) {
  Config cfg;
  cfg.cache_data_paths = true;
  EXPECT_EQ(golden_route_digest(cfg, false), 0x130087cffa06a206ull);
}

TEST(IntraGolden, LossDupAndLinkFlap) {
  EXPECT_EQ(golden_route_digest(Config{}, true), 0xe39e245981b80341ull);
}

/// Every simulator send path under loss, duplication, corruption and jitter
/// at once: control retries and CRC rejections, the one-shot stale-pointer
/// teardown, greedy and ephemeral data hops, and repair across a link flap.
/// Besides the outcomes it folds every registry counter by name (msgs.* and
/// bytes.* per category, faults.*, rofl.codec_rejected,
/// rofl.encode_failures) and the flight recorder's hop digest, whose
/// fault-drop timestamps carry control-path latencies.
void fold_corrupt_jitter_run(GoldenDigest& d) {
  Config cfg;
  cfg.cache_capacity = 24;
  TestNet t(60, 6, cfg, 2718);
  Network& net = *t.net;
  obs::FlightRecorder recorder(1 << 16);
  net.set_flight_recorder(&recorder);
  sim::FaultPlan plan;
  plan.defaults.loss = 0.04;
  plan.defaults.duplicate = 0.03;
  plan.defaults.corrupt = 0.05;
  plan.defaults.jitter_ms = 0.7;
  const NodeIndex u = t.topo.pops[1].front();
  plan.link_flaps.push_back(sim::LinkFlap{
      u, t.topo.graph.neighbors(u).front().to, 10.0, 20.0});
  sim::FaultInjector injector(plan, 4242, &net.simulator().metrics());
  net.set_fault_injector(&injector);
  net.schedule_fault_plan(plan);
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < 160; ++i) {
    const Identity ident = Identity::generate(net.rng());
    const auto gw = static_cast<NodeIndex>(net.rng().index(net.router_count()));
    const JoinStats js = net.join_host(
        ident, gw, i % 8 == 7 ? HostClass::kEphemeral : HostClass::kStable);
    d.add(js);
    if (js.ok) ids.push_back(ident.id());
  }
  const auto route_batch = [&] {
    for (std::size_t i = 0; i < 300; ++i) {
      const auto src =
          static_cast<NodeIndex>(net.rng().index(net.router_count()));
      const NodeId& dest = ids[net.rng().index(ids.size())];
      // Twice per pair, both folded: the second packet meets the caches
      // after the first one's stale-pointer teardowns and LRU touches.
      d.add(net.route(src, dest), net.shortest_hops(src, dest));
      d.add(net.route(src, dest), net.shortest_hops(src, dest));
    }
  };
  route_batch();
  for (std::size_t i = 0; i < 12; ++i) {
    const NodeId& victim = ids[(i * 11) % ids.size()];
    const std::optional<NodeIndex> home = net.hosting_router(victim);
    ASSERT_TRUE(home.has_value());
    const RepairStats rs =
        i % 3 == 0 ? net.leave_host(victim) : net.fail_host(victim);
    d.add(rs.messages);
    d.add(std::uint64_t{rs.pointers_torn});
    // A cached pointer the teardown flood missed: routing to the departed ID
    // chases it and sends the one-shot teardown back to the cache holder.
    const auto far =
        static_cast<NodeIndex>((*home + 1 + i) % net.router_count());
    net.router(far).cache().insert(victim, *home, net.map().path(far, *home));
    d.add(net.route(far, victim), 0);
  }
  net.simulator().run_until(15.0);
  route_batch();
  net.simulator().run_until(25.0);
  route_batch();
  const RepairStats rs = net.repair_partitions();
  d.add(rs.messages);
  d.add(std::uint64_t{rs.ids_rejoined});
  d.add_counters(net.simulator().metrics());
  d.add(recorder.content_digest());
  // The run reached every path it is meant to pin.
  obs::Registry& m = net.simulator().metrics();
  EXPECT_GT(m.counter_value(m.counter("rofl.codec_rejected")), 0u);
  EXPECT_GT(m.counter_value(m.counter("rofl.stale_pointers")), 0u);
  EXPECT_GT(injector.retries(), 0u);
  EXPECT_GT(injector.duplicated(), 0u);
  net.set_fault_injector(nullptr);
  net.set_flight_recorder(nullptr);
}

TEST(IntraGolden, LossDupCorruptionJitterAndByteCounters) {
  GoldenDigest d;
  fold_corrupt_jitter_run(d);
  // Produced on the tree that still had the intra shard-crossing counters,
  // by this body with its three lines that installed a shard map deleted:
  // the two shards.* counters they registered left the fold, and no other
  // counter, outcome or hop moved.
  EXPECT_EQ(d.value(), 0xbf4e6ee1af8d4e47ull);
}

}  // namespace
}  // namespace rofl::intra
