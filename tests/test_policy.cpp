#include "interdomain/policy.hpp"

#include <gtest/gtest.h>

namespace rofl::inter {
namespace {

using graph::AsRel;
using graph::AsTopology;

// Topology:          0 (tier1)      1 (tier1)   0--1 peer
//                   /  \              |
//                  2    3             4
//                 /|    |
//                5 6    7
AsTopology diamond() {
  return AsTopology::from_links(
      8, {{2, 0, AsRel::kProvider},
          {3, 0, AsRel::kProvider},
          {4, 1, AsRel::kProvider},
          {5, 2, AsRel::kProvider},
          {6, 2, AsRel::kProvider},
          {7, 3, AsRel::kProvider},
          {0, 1, AsRel::kPeer}});
}

TEST(Policy, BuildRouteUpDown) {
  const AsTopology t = diamond();
  const auto r = build_route(t, 5, 0, 7);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (AsRoute{5, 2, 0, 3, 7}));
  EXPECT_EQ(physical_hops(t, *r), 4u);
}

TEST(Policy, BuildRouteDegenerateCases) {
  const AsTopology t = diamond();
  // Anchor == endpoint.
  const auto r1 = build_route(t, 5, 5, 5);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->size(), 1u);
  EXPECT_EQ(physical_hops(t, *r1), 0u);
  // Destination below the source's own anchor.
  const auto r2 = build_route(t, 5, 2, 6);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, (AsRoute{5, 2, 6}));
}

TEST(Policy, BuildRouteFailsOutsideHierarchy) {
  const AsTopology t = diamond();
  // AS 1 is not in 5's up-hierarchy (peering is not a provider link).
  EXPECT_FALSE(build_route(t, 5, 1, 4).has_value());
}

TEST(Policy, BuildRouteRespectsFailedLinks) {
  AsTopology t = diamond();
  t.set_link_up(5, 2, false);
  EXPECT_FALSE(build_route(t, 5, 0, 7).has_value());
  t.set_link_up(5, 2, true);
  EXPECT_TRUE(build_route(t, 5, 0, 7).has_value());
}

// Every (from, anchor, to) and backup flag: the memo's route equals a fresh
// build_route on the topology as it stands.
void expect_memo_matches_fresh(const AsTopology& t, ClimbMemo& memo) {
  for (graph::AsIndex from = 0; from < t.as_count(); ++from) {
    for (graph::AsIndex anchor = 0; anchor < t.as_count(); ++anchor) {
      for (graph::AsIndex to = 0; to < t.as_count(); ++to) {
        for (const bool backup : {false, true}) {
          EXPECT_EQ(build_route(t, from, anchor, to, backup, &memo),
                    build_route(t, from, anchor, to, backup))
              << from << " -> " << anchor << " -> " << to << " backup "
              << backup;
        }
      }
    }
  }
}

TEST(Policy, ClimbMemoMatchesFreshRoutesAcrossFailures) {
  // diamond() plus a second provider for 6 and a backup provider for 7.
  AsTopology t = AsTopology::from_links(
      8, {{2, 0, AsRel::kProvider},
          {3, 0, AsRel::kProvider},
          {4, 1, AsRel::kProvider},
          {5, 2, AsRel::kProvider},
          {6, 2, AsRel::kProvider},
          {6, 3, AsRel::kProvider},
          {7, 3, AsRel::kProvider},
          {7, 2, AsRel::kBackupProvider},
          {0, 1, AsRel::kPeer}});
  ClimbMemo memo;
  expect_memo_matches_fresh(t, memo);

  // A memo is valid for one topology state: uncleared, it keeps the climb
  // over the failed link.
  t.set_link_up(6, 2, false);
  EXPECT_EQ(build_route(t, 6, 2, 5, false, &memo), (AsRoute{6, 2, 5}));
  EXPECT_FALSE(build_route(t, 6, 2, 5).has_value());
  memo.clear();
  expect_memo_matches_fresh(t, memo);

  t.set_as_up(3, false);
  memo.clear();
  expect_memo_matches_fresh(t, memo);

  t.set_as_up(3, true);
  t.set_link_up(6, 2, true);
  memo.clear();
  expect_memo_matches_fresh(t, memo);
}

TEST(Policy, RouteLiveTracksTopology) {
  AsTopology t = diamond();
  const AsRoute r{5, 2, 0, 3, 7};
  EXPECT_TRUE(route_live(t, r));
  t.set_as_up(0, false);
  EXPECT_FALSE(route_live(t, r));
}

TEST(Policy, ValleyFreeAccepts) {
  const AsTopology t = diamond();
  EXPECT_TRUE(valley_free(t, {5, 2, 0, 3, 7}));   // up up down down
  EXPECT_TRUE(valley_free(t, {5, 2}));            // pure ascent
  EXPECT_TRUE(valley_free(t, {0, 3, 7}));         // pure descent
  EXPECT_TRUE(valley_free(t, {2, 0, 1, 4}));      // up peer down
  EXPECT_TRUE(valley_free(t, {5}));               // trivial
}

TEST(Policy, ValleyFreeRejects) {
  const AsTopology t = diamond();
  EXPECT_FALSE(valley_free(t, {2, 0, 1, 0}));  // peer then up... (0 again)
  EXPECT_FALSE(valley_free(t, {5, 2, 5, 2}));  // down then up
  EXPECT_FALSE(valley_free(t, {0, 2, 0}));     // descent then ascent (valley)
  EXPECT_FALSE(valley_free(t, {5, 7}));        // not even adjacent
}

TEST(Policy, BgpHopsUpDown) {
  const AsTopology t = diamond();
  EXPECT_EQ(bgp_policy_hops(t, 5, 7), 4u);   // 5-2-0-3-7
  EXPECT_EQ(bgp_policy_hops(t, 5, 6), 2u);   // 5-2-6
  EXPECT_EQ(bgp_policy_hops(t, 5, 5), 0u);
  EXPECT_EQ(bgp_policy_hops(t, 5, 2), 1u);
}

TEST(Policy, BgpHopsAcrossPeering) {
  const AsTopology t = diamond();
  // 5 -> 4 must cross the 0--1 peering: 5-2-0-1-4 = 4 hops.
  EXPECT_EQ(bgp_policy_hops(t, 5, 4), 4u);
}

TEST(Policy, BgpHopsNulloptWhenPartitioned) {
  AsTopology t = diamond();
  t.set_link_up(0, 1, false);
  EXPECT_EQ(bgp_policy_hops(t, 5, 4), std::nullopt);
}

TEST(Policy, VirtualAsIsTransparentInHopCount) {
  AsTopology t = diamond();
  std::vector<std::pair<graph::AsIndex, std::vector<graph::AsIndex>>> vmap;
  const AsTopology conv = t.with_virtual_peering_ases(&vmap);
  ASSERT_EQ(vmap.size(), 1u);
  const graph::AsIndex v = vmap[0].first;
  // Route 2 -> v -> 4 collapses the virtual hop: physical hops = 2-1? No:
  // 2 -> 0 is not on this route; 2 -(up)-> v -(down)-> 1? members are {0,1}.
  const auto r = build_route(conv, 5, v, 4);
  ASSERT_TRUE(r.has_value());
  // 5,2,0,v,1,4: entering v free, so physical = 5-2,2-0,0~1 (peering),1-4 = 4.
  EXPECT_EQ(physical_hops(conv, *r), 4u);
}

}  // namespace
}  // namespace rofl::inter
