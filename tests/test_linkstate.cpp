#include "linkstate/link_state.hpp"

#include <gtest/gtest.h>

#include "graph/isp_topology.hpp"

namespace rofl::linkstate {
namespace {

struct Fixture {
  graph::Graph g{4};
  sim::Simulator sim;
  Fixture() {
    // 0 - 1 - 2 - 3 with a backup edge 0-3.
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 2.0);
    g.add_edge(2, 3, 3.0);
    g.add_edge(0, 3, 10.0);
  }
};

TEST(LinkState, PathAndNextHop) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  const auto p = m.path(0, 2);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(m.next_hop(0, 2), 1u);
  EXPECT_EQ(m.hop_distance(0, 2), 2u);
  EXPECT_DOUBLE_EQ(*m.latency_ms(0, 2), 3.0);
}

TEST(LinkState, NextHopToSelf) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  EXPECT_EQ(m.next_hop(1, 1), 1u);
}

TEST(LinkState, ReroutesAroundFailedLink) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  EXPECT_EQ(m.next_hop(0, 3), 3u);  // weight: direct edge is 1 hop weight 1
  m.fail_link(0, 3);
  EXPECT_EQ(m.next_hop(0, 3), 1u);  // now via the chain
  m.restore_link(0, 3);
  EXPECT_EQ(m.next_hop(0, 3), 3u);
}

TEST(LinkState, NodeFailureDisconnects) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  m.fail_link(0, 3);
  m.fail_node(1);
  EXPECT_FALSE(m.reachable(0, 2));
  EXPECT_EQ(m.next_hop(0, 2), std::nullopt);
  m.restore_node(1);
  EXPECT_TRUE(m.reachable(0, 2));
}

TEST(LinkState, VersionBumpsOnEveryEvent) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  const auto v0 = m.version();
  m.fail_link(0, 1);
  EXPECT_GT(m.version(), v0);
  m.restore_link(0, 1);
  EXPECT_GT(m.version(), v0 + 1);
}

TEST(LinkState, ListenersNotified) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  std::vector<TopologyEvent::Kind> seen;
  m.subscribe([&](const TopologyEvent& ev) { seen.push_back(ev.kind); });
  m.fail_link(0, 1);
  m.fail_node(2);
  m.restore_node(2);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], TopologyEvent::Kind::kLinkDown);
  EXPECT_EQ(seen[1], TopologyEvent::Kind::kNodeDown);
  EXPECT_EQ(seen[2], TopologyEvent::Kind::kNodeUp);
}

TEST(LinkState, FloodingChargedToCounters) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  EXPECT_EQ(f.sim.counters().get(sim::MsgCategory::kLinkState), 0u);
  m.fail_link(0, 1);
  // Remaining live directed adjacencies: (1-2, 2-3, 0-3) * 2 = 6.
  EXPECT_EQ(f.sim.counters().get(sim::MsgCategory::kLinkState), 6u);
}

TEST(LinkState, RouteValidTracksTopology) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  const std::vector<graph::NodeIndex> route{0, 1, 2};
  EXPECT_TRUE(m.route_valid(route));
  m.fail_link(1, 2);
  EXPECT_FALSE(m.route_valid(route));
  m.restore_link(1, 2);
  m.fail_node(1);
  EXPECT_FALSE(m.route_valid(route));
}

TEST(LinkState, StampedRouteCheckNeverMasksAFailure) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  const std::vector<graph::NodeIndex> route{0, 1, 2};
  std::uint64_t stamp = 0;
  EXPECT_TRUE(m.route_valid(route, stamp));
  EXPECT_EQ(stamp, m.version());
  EXPECT_TRUE(m.route_valid(route, stamp));  // unchanged topology: no walk
  m.fail_link(1, 2);
  EXPECT_FALSE(m.route_valid(route, stamp));
  EXPECT_FALSE(m.route_valid(route, stamp));  // a dead route is never stamped
  m.restore_link(1, 2);
  EXPECT_TRUE(m.route_valid(route, stamp));
  EXPECT_EQ(stamp, m.version());
  m.fail_node(1);
  EXPECT_FALSE(m.route_valid(route, stamp));
  m.restore_node(1);
  EXPECT_TRUE(m.route_valid(route, stamp));
  // A change elsewhere moves the version; the re-walk still finds it up.
  m.fail_link(0, 3);
  EXPECT_TRUE(m.route_valid(route, stamp));
  EXPECT_EQ(stamp, m.version());
  std::uint64_t empty_stamp = 0;
  EXPECT_FALSE(m.route_valid({}, empty_stamp));
}

TEST(LinkState, NextHopMatchesPathOnEveryPair) {
  Rng rng(31);
  graph::IspParams p;
  p.router_count = 60;
  p.pop_count = 6;
  graph::IspTopology topo = graph::make_isp_topology(p, rng);
  LinkStateMap m(&topo.graph, nullptr);
  std::size_t unreachable = 0;
  const auto check_all = [&](const char* phase) {
    const auto n = static_cast<graph::NodeIndex>(topo.router_count());
    for (graph::NodeIndex u = 0; u < n; ++u) {
      for (graph::NodeIndex v = 0; v < n; ++v) {
        const auto hop = m.next_hop(u, v);
        if (u == v) {
          ASSERT_EQ(hop, u) << phase;
          continue;
        }
        const auto path = m.path(u, v);
        if (path.empty()) {
          ASSERT_EQ(hop, std::nullopt) << phase << " " << u << "->" << v;
          ASSERT_FALSE(m.reachable(u, v));
          ++unreachable;
        } else {
          ASSERT_EQ(hop, path[1]) << phase << " " << u << "->" << v;
        }
      }
    }
  };
  check_all("intact");
  const graph::NodeIndex a = topo.pops[0].front();
  const graph::NodeIndex b = topo.graph.neighbors(a).front().to;
  m.fail_link(a, b);
  check_all("link down");
  const graph::NodeIndex dead = topo.pops[1].back();
  m.fail_node(dead);
  check_all("link and node down");
  EXPECT_GT(unreachable, 0u);  // every pair touching the dead router
  m.restore_node(dead);
  m.restore_link(a, b);
  unreachable = 0;
  check_all("restored");
  EXPECT_EQ(unreachable, 0u);
}

// Random-ish connected graph, big enough to cross the parallel-recompute
// threshold in recompute_all_spf.
graph::Graph make_mesh(std::size_t n) {
  graph::Graph g(n);
  std::uint64_t x = 7;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::size_t i = 1; i < n; ++i) {
    g.add_edge(static_cast<graph::NodeIndex>(i),
               static_cast<graph::NodeIndex>(next() % i),
               1.0 + static_cast<double>(next() % 10),
               1.0 + static_cast<double>(next() % 5));
  }
  for (std::size_t e = 0; e < 2 * n; ++e) {
    const auto u = static_cast<graph::NodeIndex>(next() % n);
    const auto v = static_cast<graph::NodeIndex>(next() % n);
    if (u != v) g.add_edge(u, v, 1.0 + static_cast<double>(next() % 10));
  }
  return g;
}

TEST(LinkState, ParallelSpfMatchesSerialByteForByte) {
  // Determinism contract of recompute_all_spf: the full routing state --
  // dist, latency, parent, hops for every (src, dst) -- must be identical
  // between the serial path and any worker-pool width.
  graph::Graph g_serial = make_mesh(150);
  graph::Graph g_par = make_mesh(150);
  sim::Simulator sim;
  LinkStateMap serial(&g_serial, &sim);
  LinkStateMap parallel(&g_par, &sim);
  serial.set_spf_threads(0);
  parallel.set_spf_threads(4);

  const auto compare_all = [&] {
    serial.recompute_all_spf();
    parallel.recompute_all_spf();
    for (graph::NodeIndex u = 0; u < g_serial.node_count(); ++u) {
      for (graph::NodeIndex v = 0; v < g_serial.node_count(); ++v) {
        ASSERT_EQ(serial.next_hop(u, v), parallel.next_hop(u, v))
            << u << "->" << v;
        ASSERT_EQ(serial.path(u, v), parallel.path(u, v)) << u << "->" << v;
        ASSERT_EQ(serial.hop_distance(u, v), parallel.hop_distance(u, v));
        ASSERT_EQ(serial.latency_ms(u, v), parallel.latency_ms(u, v));
      }
    }
  };
  compare_all();
  // Identical topology mutations on both sides; tables must track.
  serial.fail_node(13);
  parallel.fail_node(13);
  serial.fail_link(2, g_serial.neighbors(2).front().to);
  parallel.fail_link(2, g_par.neighbors(2).front().to);
  compare_all();
}

TEST(LinkState, RecomputeAllWarmsTheOnDemandCache) {
  graph::Graph g = make_mesh(100);
  LinkStateMap m(&g, nullptr);
  m.set_spf_threads(2);
  m.recompute_all_spf();
  // Warmed slots answer immediately and consistently with a cold map.
  graph::Graph g2 = make_mesh(100);
  LinkStateMap cold(&g2, nullptr);
  cold.set_spf_threads(0);
  for (graph::NodeIndex u = 0; u < g.node_count(); u += 7) {
    for (graph::NodeIndex v = 0; v < g.node_count(); v += 11) {
      EXPECT_EQ(m.hop_distance(u, v), cold.hop_distance(u, v));
    }
  }
}

TEST(LinkState, NullSimAllowed) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  LinkStateMap m(&g, nullptr);
  m.fail_link(0, 1);  // must not crash on accounting
  EXPECT_FALSE(m.reachable(0, 1));
}

}  // namespace
}  // namespace rofl::linkstate
