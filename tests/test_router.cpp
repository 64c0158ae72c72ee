#include "rofl/router.hpp"

#include <gtest/gtest.h>

namespace rofl::intra {
namespace {

NodeId id(std::uint64_t v) { return NodeId::from_u64(v); }

Identity make_identity(std::uint64_t seed) {
  Rng rng(seed);
  return Identity::generate(rng);
}

VirtualNode make_vnode(std::uint64_t v,
                       std::vector<std::pair<std::uint64_t, NodeIndex>> succs,
                       HostClass cls = HostClass::kStable) {
  VirtualNode vn;
  vn.id = id(v);
  vn.host_class = cls;
  for (const auto& [sid, host] : succs) {
    vn.successors.push_back(NeighborPtr{id(sid), host});
  }
  return vn;
}

TEST(Router, AddAndFindVnode) {
  Router r(0, make_identity(1), 16);
  ASSERT_NE(r.add_vnode(make_vnode(10, {{20, 1}})), nullptr);
  EXPECT_NE(r.find_vnode(id(10)), nullptr);
  EXPECT_EQ(r.find_vnode(id(11)), nullptr);
  EXPECT_EQ(r.resident_count(), 1u);
  EXPECT_TRUE(r.hosts(id(10)));
}

TEST(Router, DuplicateVnodeRejected) {
  Router r(0, make_identity(1), 16);
  ASSERT_NE(r.add_vnode(make_vnode(10, {})), nullptr);
  EXPECT_EQ(r.add_vnode(make_vnode(10, {})), nullptr);
  EXPECT_EQ(r.resident_count(), 1u);
}

TEST(Router, VnBestMatchPicksClosestNotPast) {
  Router r(3, make_identity(2), 16);
  r.add_vnode(make_vnode(10, {{40, 7}}));
  r.add_vnode(make_vnode(60, {{90, 8}}));
  // dest 50: candidates {10@3, 40@7, 60@3, 90@8}; closest <= 50 is 40.
  const auto c = r.vn_best_match(id(50));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->id, id(40));
  EXPECT_EQ(c->host, 7u);
  EXPECT_FALSE(c->resident);
  // dest 65: closest is the resident 60.
  const auto c2 = r.vn_best_match(id(65));
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->id, id(60));
  EXPECT_TRUE(c2->resident);
}

TEST(Router, VnBestMatchWrapsRing) {
  Router r(0, make_identity(3), 16);
  r.add_vnode(make_vnode(100, {{200, 5}}));
  // dest 50 is "before" everything: the wrap pick is 200 (largest <= 50+ring).
  const auto c = r.vn_best_match(id(50));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->id, id(200));
}

TEST(Router, EmptyRouterHasNoMatch) {
  Router r(0, make_identity(4), 16);
  EXPECT_FALSE(r.vn_best_match(id(1)).has_value());
  EXPECT_EQ(r.predecessor_vnode_of(id(1)), nullptr);
}

TEST(Router, RemoveVnodeClearsIndexExactly) {
  Router r(0, make_identity(5), 16);
  r.add_vnode(make_vnode(10, {{30, 2}}));
  r.add_vnode(make_vnode(50, {{30, 2}}));  // shares successor 30
  r.remove_vnode(id(10));
  // 30 must still be indexed (vnode 50 still points to it).
  const auto c = r.vn_best_match(id(35));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->id, id(30));
  r.remove_vnode(id(50));
  // Now nothing remains.
  EXPECT_FALSE(r.vn_best_match(id(35)).has_value());
}

TEST(Router, ReindexAfterSuccessorMutation) {
  Router r(0, make_identity(6), 16);
  VirtualNode* vn = r.add_vnode(make_vnode(10, {{30, 2}}));
  ASSERT_NE(vn, nullptr);
  vn->successors[0] = NeighborPtr{id(25), 4};
  r.reindex_vnode(id(10));
  const auto c = r.vn_best_match(id(27));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->id, id(25));
  EXPECT_EQ(c->host, 4u);
}

TEST(Router, PredecessorVnodeOfUsesOpenClosedInterval) {
  Router r(0, make_identity(7), 16);
  r.add_vnode(make_vnode(10, {{40, 2}}));
  // 25 in (10, 40]: vnode 10 is the predecessor.
  EXPECT_NE(r.predecessor_vnode_of(id(25)), nullptr);
  // Exactly the successor boundary counts (closed at b).
  EXPECT_NE(r.predecessor_vnode_of(id(40)), nullptr);
  // Outside the span: not the predecessor.
  EXPECT_EQ(r.predecessor_vnode_of(id(45)), nullptr);
  // Equal to the vnode itself: open at a.
  EXPECT_EQ(r.predecessor_vnode_of(id(10)), nullptr);
}

TEST(Router, EphemeralVnodesInvisibleToGreedyState) {
  Router r(0, make_identity(8), 16);
  r.add_vnode(make_vnode(10, {{200, 2}}));
  r.add_vnode(make_vnode(50, {{10, 0}}, HostClass::kEphemeral));
  // Greedy match for 60 must NOT return the ephemeral 50.
  const auto c = r.vn_best_match(id(60));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->id, id(10));
  // Nor may it act as a predecessor owner.
  EXPECT_EQ(r.predecessor_vnode_of(id(55)),
            r.find_vnode(id(10)));  // pred is 10 (50..200 via vnode 10)
  // But delivery still sees it as hosted.
  EXPECT_TRUE(r.hosts(id(50)));
}

TEST(CandidatePair, RanksClosestFirstAndKeepsVnFirstOnTie) {
  const NodeId dest = id(100);
  const Candidate near{id(90), 1, false};
  const Candidate far{id(40), 2, true};
  const auto ids = [](const CandidatePair& p) {
    std::vector<std::pair<NodeId, bool>> out;
    for (const auto& [c, from_cache] : p) out.emplace_back(c.id, from_cache);
    return out;
  };
  using V = std::vector<std::pair<NodeId, bool>>;
  EXPECT_EQ(ids(CandidatePair(dest, far, near)),
            (V{{id(90), true}, {id(40), false}}));
  EXPECT_EQ(ids(CandidatePair(dest, near, far)),
            (V{{id(90), false}, {id(40), true}}));
  // Both name one ID: the VN candidate (its host, its flag) stays first.
  const CandidatePair tie(dest, Candidate{id(90), 1, true},
                          Candidate{id(90), 5, false});
  EXPECT_EQ(ids(tie), (V{{id(90), false}, {id(90), true}}));
  EXPECT_EQ(tie.begin()->c.host, 1u);
  EXPECT_EQ(ids(CandidatePair(dest, std::nullopt, far)), (V{{id(40), true}}));
  EXPECT_EQ(ids(CandidatePair(dest, near, std::nullopt)),
            (V{{id(90), false}}));
  EXPECT_TRUE(ids(CandidatePair(dest, std::nullopt, std::nullopt)).empty());
}

TEST(Router, EphemeralBackpointers) {
  Router r(0, make_identity(9), 16);
  r.add_ephemeral_backpointer(id(5), 7);
  EXPECT_EQ(r.ephemeral_gateway(id(5)), 7u);
  EXPECT_EQ(r.ephemeral_gateway(id(6)), std::nullopt);
  r.remove_ephemeral_backpointer(id(5));
  EXPECT_EQ(r.ephemeral_gateway(id(5)), std::nullopt);
}

TEST(Router, StateEntriesAccounting) {
  Router r(0, make_identity(10), 16);
  EXPECT_EQ(r.state_entries(), 0u);
  VirtualNode vn = make_vnode(10, {{20, 1}, {30, 2}});
  vn.predecessor = NeighborPtr{id(5), 3};
  r.add_vnode(std::move(vn));
  // 1 resident + 2 successors + 1 predecessor = 4.
  EXPECT_EQ(r.state_entries(), 4u);
  r.cache().insert(id(99), 5, {0, 5});
  EXPECT_EQ(r.state_entries(), 5u);
  r.add_ephemeral_backpointer(id(7), 2);
  EXPECT_EQ(r.state_entries(), 6u);
}

TEST(Router, TraversalCounters) {
  Router r(0, make_identity(11), 16);
  EXPECT_EQ(r.traversals(), 0u);
  r.count_traversal();
  r.count_traversal();
  EXPECT_EQ(r.traversals(), 2u);
  r.reset_traversals();
  EXPECT_EQ(r.traversals(), 0u);
}

// route() delivers on hosts(dest, vn_best_match(dest)): one greedy-index
// descent instead of a second search of the vnode table.  Seeded random
// tables mixing the default vnode, stable and ephemeral vnodes and
// successors that are themselves co-resident go through every mutation path
// (add, remove, successor rewrite + reindex), and after each step the
// one-descent predicate must equal hosts() for resident IDs, their
// successors, departed IDs and random IDs.  IDs come from a small universe
// so co-residency and shared successors are common.
TEST(Router, OneDescentDeliveryCheckEqualsHosts) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const Identity ident = make_identity(100 + seed);
    Router r(0, ident, 16);
    VirtualNode def;
    def.id = ident.id();
    def.is_default = true;
    def.successors.push_back(NeighborPtr{id(rng.below(48)), 3});
    ASSERT_NE(r.add_vnode(std::move(def)), nullptr);

    const auto random_successors = [&rng] {
      std::vector<std::pair<std::uint64_t, NodeIndex>> succs;
      const std::uint64_t k = rng.below(4);
      for (std::uint64_t i = 0; i < k; ++i) {
        // Host 0 is this router: a co-resident successor.
        succs.emplace_back(rng.below(48),
                           static_cast<NodeIndex>(rng.below(3)));
      }
      return succs;
    };
    std::vector<NodeId> departed;
    const auto check = [&](int step) {
      std::vector<NodeId> probes = departed;
      for (const auto& [vid, vn] : r.vnodes()) {
        probes.push_back(vid);
        for (const NeighborPtr& s : vn.successors) probes.push_back(s.id);
      }
      for (int i = 0; i < 8; ++i) probes.push_back(id(rng.below(48)));
      const std::uint64_t hi = rng.next_u64();
      probes.emplace_back(hi, rng.next_u64());
      for (const NodeId& p : probes) {
        ASSERT_EQ(r.hosts(p, r.vn_best_match(p)), r.hosts(p))
            << "seed " << seed << " step " << step << " id " << p;
      }
    };
    for (int step = 0; step < 120; ++step) {
      const std::uint64_t v = rng.below(48);
      switch (rng.below(5)) {
        case 0:
        case 1:
          (void)r.add_vnode(make_vnode(v, random_successors()));
          break;
        case 2:
          (void)r.add_vnode(
              make_vnode(v, random_successors(), HostClass::kEphemeral));
          break;
        case 3:
          if (r.hosts(id(v)) && id(v) != ident.id()) {
            r.remove_vnode(id(v));
            departed.push_back(id(v));
          }
          break;
        case 4:
          if (VirtualNode* vn = r.find_vnode(id(v))) {
            vn->successors.clear();
            for (const auto& [sid, host] : random_successors()) {
              vn->successors.push_back(NeighborPtr{id(sid), host});
            }
            r.reindex_vnode(vn->id);
          }
          break;
      }
      check(step);
    }
  }
}

TEST(Router, RouterIdIsSelfCertified) {
  const Identity ident = make_identity(12);
  Router r(4, ident, 16);
  EXPECT_EQ(r.router_id(), ident.id());
  EXPECT_EQ(derive_id(r.identity().public_key()), r.router_id());
}

}  // namespace
}  // namespace rofl::intra
