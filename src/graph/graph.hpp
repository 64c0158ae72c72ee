// graph.hpp -- generic undirected graph used by both topology models.
//
// Routers (intradomain) and ASes (interdomain) are vertices; links carry a
// propagation latency (milliseconds) and an IGP weight.  The structure
// supports the failure experiments: links and nodes can be marked down and
// later restored, and all path queries respect the up/down state.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace rofl::graph {

using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kInvalidNode =
    std::numeric_limits<NodeIndex>::max();

struct Edge {
  NodeIndex to = kInvalidNode;
  double latency_ms = 1.0;
  double weight = 1.0;
  bool up = true;
};

/// Result of a single-source shortest-path computation.
struct ShortestPaths {
  std::vector<double> dist;        // by IGP weight; +inf if unreachable
  std::vector<double> latency_ms;  // summed latency along chosen path
  std::vector<NodeIndex> parent;   // predecessor on the shortest-path tree
  std::vector<std::uint32_t> hops; // hop count along chosen path
  /// First hop out of the source on the chosen path: the next-hop table an
  /// OSPF router installs.  The source maps to itself; an unreachable node
  /// maps to kInvalidNode.
  std::vector<NodeIndex> first_hop;

  [[nodiscard]] bool reachable(NodeIndex v) const {
    return dist[v] != std::numeric_limits<double>::infinity();
  }
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t nodes) : adj_(nodes), node_up_(nodes, true) {}

  NodeIndex add_node();
  /// Adds an undirected edge; parallel edges are rejected (returns false).
  bool add_edge(NodeIndex u, NodeIndex v, double latency_ms = 1.0,
                double weight = 1.0);

  /// The IGP weight every edge carries, or 0 when there is no edge or two
  /// edges differ.  A positive value selects dijkstra's level-ordered pass.
  [[nodiscard]] double uniform_weight() const { return uniform_weight_; }

  [[nodiscard]] std::size_t node_count() const { return adj_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  [[nodiscard]] const std::vector<Edge>& neighbors(NodeIndex u) const {
    return adj_[u];
  }
  [[nodiscard]] bool has_edge(NodeIndex u, NodeIndex v) const;

  /// Degree counting only live edges to live nodes.
  [[nodiscard]] std::size_t live_degree(NodeIndex u) const;

  // -- failure model -------------------------------------------------------
  void set_link_up(NodeIndex u, NodeIndex v, bool up);
  void set_node_up(NodeIndex u, bool up);
  [[nodiscard]] bool link_up(NodeIndex u, NodeIndex v) const;
  [[nodiscard]] bool node_up(NodeIndex u) const { return node_up_[u]; }

  // -- path queries (respect up/down state) --------------------------------
  /// Shortest paths from `src` by IGP weight.  Ties settle in ascending node
  /// index, and a node keeps the first parent that reaches it.  When every
  /// edge carries one positive weight (uniform_weight() > 0) the nodes are
  /// settled level by level, each level in ascending index; otherwise a
  /// lazy binary heap ordered by (distance, index) settles them.  Both
  /// passes settle a uniform-weight graph in the same order and fill all
  /// five arrays with the same bits.  A pure function of the graph: pool
  /// workers may run it concurrently.
  [[nodiscard]] ShortestPaths dijkstra(NodeIndex src) const;
  /// Path src..dst along the shortest-path tree; empty if unreachable.
  [[nodiscard]] static std::vector<NodeIndex> extract_path(
      const ShortestPaths& sp, NodeIndex src, NodeIndex dst);

  /// Hop-count BFS distances from src (weight-agnostic).
  [[nodiscard]] std::vector<std::uint32_t> bfs_hops(NodeIndex src) const;

  /// True if all live nodes are mutually reachable over live links.
  [[nodiscard]] bool connected() const;

  /// Connected-component label per node (kInvalidNode marker => node down).
  [[nodiscard]] std::vector<NodeIndex> components() const;

  /// Longest shortest-path hop count over a sample of sources (exact when
  /// sample >= node_count).
  [[nodiscard]] std::uint32_t diameter_hops(std::size_t sample_sources = 32) const;

 private:
  std::vector<std::vector<Edge>> adj_;
  std::vector<bool> node_up_;
  std::size_t edge_count_ = 0;
  double uniform_weight_ = 0.0;
};

}  // namespace rofl::graph
