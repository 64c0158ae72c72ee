#include "graph/graph.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

namespace rofl::graph {

NodeIndex Graph::add_node() {
  adj_.emplace_back();
  node_up_.push_back(true);
  return static_cast<NodeIndex>(adj_.size() - 1);
}

bool Graph::add_edge(NodeIndex u, NodeIndex v, double latency_ms,
                     double weight) {
  assert(u < adj_.size() && v < adj_.size());
  if (u == v || has_edge(u, v)) return false;
  adj_[u].push_back(Edge{v, latency_ms, weight, true});
  adj_[v].push_back(Edge{u, latency_ms, weight, true});
  ++edge_count_;
  return true;
}

bool Graph::has_edge(NodeIndex u, NodeIndex v) const {
  return std::any_of(adj_[u].begin(), adj_[u].end(),
                     [v](const Edge& e) { return e.to == v; });
}

std::size_t Graph::live_degree(NodeIndex u) const {
  if (!node_up_[u]) return 0;
  std::size_t d = 0;
  for (const Edge& e : adj_[u]) {
    if (e.up && node_up_[e.to]) ++d;
  }
  return d;
}

void Graph::set_link_up(NodeIndex u, NodeIndex v, bool up) {
  for (Edge& e : adj_[u]) {
    if (e.to == v) e.up = up;
  }
  for (Edge& e : adj_[v]) {
    if (e.to == u) e.up = up;
  }
}

void Graph::set_node_up(NodeIndex u, bool up) { node_up_[u] = up; }

bool Graph::link_up(NodeIndex u, NodeIndex v) const {
  for (const Edge& e : adj_[u]) {
    if (e.to == v) return e.up && node_up_[u] && node_up_[v];
  }
  return false;
}

ShortestPaths Graph::dijkstra(NodeIndex src) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ShortestPaths sp;
  sp.dist.assign(adj_.size(), kInf);
  sp.latency_ms.assign(adj_.size(), kInf);
  sp.parent.assign(adj_.size(), kInvalidNode);
  sp.hops.assign(adj_.size(), 0);
  sp.first_hop.assign(adj_.size(), kInvalidNode);
  if (!node_up_[src]) return sp;

  using Item = std::pair<double, NodeIndex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  sp.dist[src] = 0.0;
  sp.latency_ms[src] = 0.0;
  sp.first_hop[src] = src;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > sp.dist[u]) continue;
    for (const Edge& e : adj_[u]) {
      if (!e.up || !node_up_[e.to]) continue;
      const double nd = d + e.weight;
      if (nd < sp.dist[e.to]) {
        sp.dist[e.to] = nd;
        sp.latency_ms[e.to] = sp.latency_ms[u] + e.latency_ms;
        sp.parent[e.to] = u;
        sp.hops[e.to] = sp.hops[u] + 1;
        // A settled node's first hop is final, so the child inherits it.
        sp.first_hop[e.to] = u == src ? e.to : sp.first_hop[u];
        pq.emplace(nd, e.to);
      }
    }
  }
  return sp;
}

std::vector<NodeIndex> Graph::extract_path(const ShortestPaths& sp,
                                           NodeIndex src, NodeIndex dst) {
  std::vector<NodeIndex> path;
  if (!sp.reachable(dst)) return path;
  path.reserve(sp.hops[dst] + 1);
  for (NodeIndex v = dst; v != kInvalidNode; v = sp.parent[v]) {
    path.push_back(v);
    if (v == src) break;
  }
  if (path.back() != src) return {};
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::uint32_t> Graph::bfs_hops(NodeIndex src) const {
  constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(adj_.size(), kUnreached);
  if (!node_up_[src]) return dist;
  std::queue<NodeIndex> q;
  dist[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const NodeIndex u = q.front();
    q.pop();
    for (const Edge& e : adj_[u]) {
      if (!e.up || !node_up_[e.to] || dist[e.to] != kUnreached) continue;
      dist[e.to] = dist[u] + 1;
      q.push(e.to);
    }
  }
  return dist;
}

bool Graph::connected() const {
  const auto comp = components();
  NodeIndex label = kInvalidNode;
  for (NodeIndex u = 0; u < adj_.size(); ++u) {
    if (!node_up_[u]) continue;
    if (label == kInvalidNode) label = comp[u];
    if (comp[u] != label) return false;
  }
  return true;
}

std::vector<NodeIndex> Graph::components() const {
  std::vector<NodeIndex> comp(adj_.size(), kInvalidNode);
  NodeIndex next_label = 0;
  for (NodeIndex s = 0; s < adj_.size(); ++s) {
    if (!node_up_[s] || comp[s] != kInvalidNode) continue;
    const NodeIndex label = next_label++;
    std::queue<NodeIndex> q;
    comp[s] = label;
    q.push(s);
    while (!q.empty()) {
      const NodeIndex u = q.front();
      q.pop();
      for (const Edge& e : adj_[u]) {
        if (!e.up || !node_up_[e.to] || comp[e.to] != kInvalidNode) continue;
        comp[e.to] = label;
        q.push(e.to);
      }
    }
  }
  return comp;
}

std::uint32_t Graph::diameter_hops(std::size_t sample_sources) const {
  std::uint32_t best = 0;
  const std::size_t n = adj_.size();
  const std::size_t step = std::max<std::size_t>(1, n / std::max<std::size_t>(1, sample_sources));
  for (NodeIndex s = 0; s < n; s += static_cast<NodeIndex>(step)) {
    if (!node_up_[s]) continue;
    const auto d = bfs_hops(s);
    for (NodeIndex v = 0; v < n; ++v) {
      if (node_up_[v] && d[v] != std::numeric_limits<std::uint32_t>::max()) {
        best = std::max(best, d[v]);
      }
    }
  }
  return best;
}

}  // namespace rofl::graph
