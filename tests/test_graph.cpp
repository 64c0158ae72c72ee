#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "graph/isp_topology.hpp"
#include "util/rng.hpp"

namespace rofl::graph {
namespace {

Graph line(std::size_t n) {
  Graph g(n);
  for (NodeIndex i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

/// Connected graph on `n` shuffled labels: a random spanning tree plus about
/// n/2 extra edges, so equal-hop ties are common.
Graph random_connected(std::size_t n, Rng& rng, double weight = 1.0) {
  std::vector<NodeIndex> label(n);
  for (NodeIndex i = 0; i < n; ++i) label[i] = i;
  rng.shuffle(label);
  Graph g(n);
  for (std::size_t v = 1; v < n; ++v) {
    g.add_edge(label[v], label[rng.index(v)], 0.1 + 10.0 * rng.uniform(),
               weight);
  }
  for (std::size_t extra = n / 2; extra > 0; --extra) {
    g.add_edge(static_cast<NodeIndex>(rng.index(n)),
               static_cast<NodeIndex>(rng.index(n)),
               0.1 + 10.0 * rng.uniform(), weight);
  }
  return g;
}

/// Puts about a tenth of the links and a twentieth of the nodes down.
void fail_randomly(Graph& g, Rng& rng) {
  for (NodeIndex u = 0; u < g.node_count(); ++u) {
    for (const Edge& e : g.neighbors(u)) {
      if (e.to > u && rng.chance(0.1)) g.set_link_up(u, e.to, false);
    }
  }
  for (NodeIndex u = 0; u < g.node_count(); ++u) {
    if (rng.chance(0.05)) g.set_node_up(u, false);
  }
}

template <typename T>
bool same_head_bits(const std::vector<T>& a, const std::vector<T>& b,
                    std::size_t n) {
  return a.size() >= n && b.size() >= n &&
         std::memcmp(a.data(), b.data(), n * sizeof(T)) == 0;
}

/// The level-ordered pass on `g` against the heap on a copy of `g` with two
/// extra nodes joined by a weight-2.0 edge.  The pair touches no node of
/// `g`, so for every source the first n entries of all five arrays must
/// hold the same bits.
void expect_level_pass_matches_heap(const Graph& g) {
  ASSERT_GT(g.uniform_weight(), 0.0);
  Graph mixed = g;
  const NodeIndex a = mixed.add_node();
  const NodeIndex b = mixed.add_node();
  ASSERT_TRUE(mixed.add_edge(a, b, 1.0, 2.0));
  ASSERT_EQ(mixed.uniform_weight(), 0.0);
  const std::size_t n = g.node_count();
  for (NodeIndex s = 0; s < n; ++s) {
    const ShortestPaths level = g.dijkstra(s);
    const ShortestPaths heap = mixed.dijkstra(s);
    ASSERT_TRUE(same_head_bits(level.dist, heap.dist, n)) << "source " << s;
    ASSERT_TRUE(same_head_bits(level.latency_ms, heap.latency_ms, n))
        << "source " << s;
    ASSERT_TRUE(same_head_bits(level.parent, heap.parent, n)) << "source " << s;
    ASSERT_TRUE(same_head_bits(level.hops, heap.hops, n)) << "source " << s;
    ASSERT_TRUE(same_head_bits(level.first_hop, heap.first_hop, n))
        << "source " << s;
  }
}

TEST(Graph, AddNodesAndEdges) {
  Graph g;
  const NodeIndex a = g.add_node();
  const NodeIndex b = g.add_node();
  EXPECT_TRUE(g.add_edge(a, b, 2.0, 3.0));
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_TRUE(g.has_edge(b, a));
}

TEST(Graph, RejectsSelfLoopsAndParallelEdges) {
  Graph g(2);
  EXPECT_FALSE(g.add_edge(0, 0));
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, DijkstraOnLine) {
  const Graph g = line(5);
  const auto sp = g.dijkstra(0);
  EXPECT_EQ(sp.hops[4], 4u);
  EXPECT_DOUBLE_EQ(sp.dist[4], 4.0);
  const auto path = Graph::extract_path(sp, 0, 4);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 4u);
}

TEST(Graph, DijkstraPrefersLowWeight) {
  Graph g(4);
  g.add_edge(0, 1, 1.0, 10.0);  // heavy direct
  g.add_edge(0, 2, 1.0, 1.0);
  g.add_edge(2, 3, 1.0, 1.0);
  g.add_edge(3, 1, 1.0, 1.0);
  ASSERT_EQ(g.uniform_weight(), 0.0);  // mixed weights take the heap
  const auto sp = g.dijkstra(0);
  EXPECT_DOUBLE_EQ(sp.dist[1], 3.0);
  EXPECT_EQ(sp.hops[1], 3u);
  EXPECT_EQ(sp.parent[1], 3u);
  EXPECT_EQ(sp.first_hop[1], 2u);
}

TEST(Graph, ZeroWeightEdgesTakeTheHeap) {
  // Every node sits at distance 0, so the heap settles in index order
  // across hop levels: 5 is reached through 1 -> 2 (3 hops) before 9 is
  // settled.  A level-ordered pass would reach it through 9 in 2 hops.
  Graph g(10);
  g.add_edge(0, 1, 1.0, 0.0);
  g.add_edge(0, 9, 1.0, 0.0);
  g.add_edge(1, 2, 1.0, 0.0);
  g.add_edge(2, 5, 1.0, 0.0);
  g.add_edge(9, 5, 1.0, 0.0);
  ASSERT_EQ(g.uniform_weight(), 0.0);
  const auto sp = g.dijkstra(0);
  EXPECT_EQ(sp.dist[5], 0.0);
  EXPECT_EQ(sp.hops[5], 3u);
  EXPECT_EQ(sp.parent[5], 2u);
  EXPECT_EQ(sp.first_hop[5], 1u);
  EXPECT_DOUBLE_EQ(sp.latency_ms[5], 3.0);
  EXPECT_EQ(sp.hops[9], 1u);
}

TEST(Graph, UniformWeightIsTheOneWeightEveryEdgeCarries) {
  EXPECT_EQ(Graph(3).uniform_weight(), 0.0);
  EXPECT_EQ(line(4).uniform_weight(), 1.0);
  Graph g(3);
  g.add_edge(0, 1, 1.0, 3.0);
  g.add_edge(1, 2, 5.0, 3.0);
  EXPECT_EQ(g.uniform_weight(), 3.0);
  EXPECT_FALSE(g.add_edge(2, 1, 1.0, 4.0));  // rejected edges do not count
  EXPECT_EQ(g.uniform_weight(), 3.0);
  g.add_node();
  EXPECT_TRUE(g.add_edge(2, 3, 1.0, 4.0));
  EXPECT_EQ(g.uniform_weight(), 0.0);
  EXPECT_TRUE(g.add_edge(0, 3, 1.0, 3.0));
  EXPECT_EQ(g.uniform_weight(), 0.0);
}

TEST(Graph, LevelPassMatchesHeapOnRocketfuelMaps) {
  for (const RocketfuelAs which : all_rocketfuel_ases()) {
    for (const std::uint64_t seed : {1ull, 2006ull, 77ull}) {
      SCOPED_TRACE(testing::Message() << static_cast<int>(which) << " seed "
                                      << seed);
      Rng rng(seed);
      IspTopology topo = make_rocketfuel_like(which, rng);
      expect_level_pass_matches_heap(topo.graph);
      fail_randomly(topo.graph, rng);
      expect_level_pass_matches_heap(topo.graph);
    }
  }
}

TEST(Graph, LevelPassMatchesHeapOnRandomGraphs) {
  Rng rng(0x5bf);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    Graph g = random_connected(rng.between(2, 300), rng);
    expect_level_pass_matches_heap(g);
    fail_randomly(g, rng);
    expect_level_pass_matches_heap(g);
  }
  Graph heavy = random_connected(200, rng, /*weight=*/3.0);
  ASSERT_EQ(heavy.uniform_weight(), 3.0);
  expect_level_pass_matches_heap(heavy);
  fail_randomly(heavy, rng);
  expect_level_pass_matches_heap(heavy);
}

TEST(Graph, LatencyAccumulatesAlongChosenPath) {
  Graph g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 7.0);
  const auto sp = g.dijkstra(0);
  EXPECT_DOUBLE_EQ(sp.latency_ms[2], 12.0);
}

TEST(Graph, FailedLinkExcludedFromPaths) {
  Graph g = line(3);
  g.set_link_up(0, 1, false);
  const auto sp = g.dijkstra(0);
  EXPECT_FALSE(sp.reachable(2));
  g.set_link_up(0, 1, true);
  EXPECT_TRUE(g.dijkstra(0).reachable(2));
}

TEST(Graph, FailedNodeExcluded) {
  Graph g = line(3);
  g.set_node_up(1, false);
  EXPECT_FALSE(g.dijkstra(0).reachable(2));
  EXPECT_EQ(g.live_degree(0), 0u);
  EXPECT_FALSE(g.link_up(0, 1));
}

TEST(Graph, BfsHops) {
  const Graph g = line(4);
  const auto d = g.bfs_hops(0);
  EXPECT_EQ(d[3], 3u);
}

TEST(Graph, ConnectivityAndComponents) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.connected());
  const auto comp = g.components();
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.connected());
}

TEST(Graph, ComponentsSkipDownNodes) {
  Graph g = line(3);
  g.set_node_up(1, false);
  const auto comp = g.components();
  EXPECT_EQ(comp[1], kInvalidNode);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(Graph, DiameterOfLine) {
  const Graph g = line(10);
  EXPECT_EQ(g.diameter_hops(10), 9u);
}

TEST(Graph, UnreachableExtractPathEmpty) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto sp = g.dijkstra(0);
  EXPECT_TRUE(Graph::extract_path(sp, 0, 2).empty());
}

}  // namespace
}  // namespace rofl::graph
