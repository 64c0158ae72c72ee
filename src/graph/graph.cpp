#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <queue>
#include <utility>

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
  // Stays 0 once two weights differ: only the first edge sets it.
  if (edge_count_ == 0) {
    uniform_weight_ = weight;
  } else if (weight != uniform_weight_) {
    uniform_weight_ = 0.0;
  }
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
  const std::size_t n = adj_.size();
  ShortestPaths sp;
  sp.dist.assign(n, kInf);
  sp.latency_ms.assign(n, kInf);
  sp.parent.assign(n, kInvalidNode);
  sp.hops.assign(n, 0);
  sp.first_hop.assign(n, kInvalidNode);
  if (!node_up_[src]) return sp;
  sp.dist[src] = 0.0;
  sp.latency_ms[src] = 0.0;
  sp.first_hop[src] = src;

  // Relaxes `e` out of `u`, settled at distance `d`; true if it improved
  // the far end.  Both passes below run exactly this update.
  const auto relax = [&](NodeIndex u, double d, const Edge& e) {
    if (!e.up || !node_up_[e.to]) return false;
    const double nd = d + e.weight;
    if (!(nd < sp.dist[e.to])) return false;
    sp.dist[e.to] = nd;
    sp.latency_ms[e.to] = sp.latency_ms[u] + e.latency_ms;
    sp.parent[e.to] = u;
    sp.hops[e.to] = sp.hops[u] + 1;
    // A settled node's first hop is final, so the child inherits it.
    sp.first_hop[e.to] = u == src ? e.to : sp.first_hop[u];
    return true;
  };

  if (uniform_weight_ > 0.0) {
    // One positive weight: every node of BFS level k holds the same
    // distance bits (the same chain of k additions), strictly above level
    // k-1's, so the heap below would pop whole levels in turn, each in
    // ascending index, and only a node's first discovery passes the `<`
    // test.  Settling each level from a bitmap in ascending index is that
    // order without the heap.  [lo, hi] bound the words holding set bits.
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> level(words, 0);
    std::vector<std::uint64_t> next(words, 0);
    level[src / 64] = std::uint64_t{1} << (src % 64);
    std::size_t lo = src / 64;
    std::size_t hi = lo;
    while (lo <= hi) {
      std::size_t next_lo = words;
      std::size_t next_hi = 0;
      for (std::size_t w = lo; w <= hi; ++w) {
        for (std::uint64_t bits = std::exchange(level[w], 0); bits != 0;
             bits &= bits - 1) {
          const auto u =
              static_cast<NodeIndex>(w * 64 + std::countr_zero(bits));
          const double d = sp.dist[u];
          for (const Edge& e : adj_[u]) {
            if (!relax(u, d, e)) continue;
            const std::size_t to = e.to / 64;
            next[to] |= std::uint64_t{1} << (e.to % 64);
            next_lo = std::min(next_lo, to);
            next_hi = std::max(next_hi, to);
          }
        }
      }
      level.swap(next);
      lo = next_lo;
      hi = next_hi;
    }
    return sp;
  }

  using Item = std::pair<double, NodeIndex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > sp.dist[u]) continue;
    for (const Edge& e : adj_[u]) {
      if (relax(u, d, e)) pq.emplace(sp.dist[e.to], e.to);
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
