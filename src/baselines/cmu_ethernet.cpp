#include "baselines/cmu_ethernet.hpp"

namespace rofl::baselines {

CmuEthernet::CmuEthernet(const graph::IspTopology* topo)
    : topo_(topo),
      map_(const_cast<graph::Graph*>(&topo->graph), nullptr) {}

std::uint64_t CmuEthernet::flood_cost() const {
  std::uint64_t directed_edges = 0;
  for (graph::NodeIndex u = 0; u < topo_->graph.node_count(); ++u) {
    directed_edges += topo_->graph.live_degree(u);
  }
  return directed_edges;
}

CmuEthernet::JoinStats CmuEthernet::join_host(const NodeId& id,
                                              graph::NodeIndex gateway) {
  JoinStats stats;
  if (gateway >= topo_->graph.node_count() || !topo_->graph.node_up(gateway)) {
    return stats;
  }
  if (bindings_.contains(id)) return stats;
  bindings_[id] = gateway;
  stats.messages = 1 + flood_cost();  // attach + network-wide flood
  stats.ok = true;
  return stats;
}

CmuEthernet::JoinStats CmuEthernet::leave_host(const NodeId& id) {
  JoinStats stats;
  const auto it = bindings_.find(id);
  if (it == bindings_.end()) return stats;
  bindings_.erase(it);
  stats.messages = flood_cost();
  stats.ok = true;
  return stats;
}

CmuEthernet::RouteStats CmuEthernet::route(graph::NodeIndex src,
                                           const NodeId& dest) const {
  RouteStats stats;
  const auto it = bindings_.find(dest);
  if (it == bindings_.end()) return stats;
  const auto hops = map_.hop_distance(src, it->second);
  if (!hops.has_value()) return stats;
  stats.delivered = true;
  stats.physical_hops = *hops;
  stats.stretch = 1.0;
  return stats;
}

}  // namespace rofl::baselines
