#include "interdomain/policy.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

namespace rofl::inter {
namespace {

using graph::AsRel;
using graph::AsTopology;

/// BFS over live provider links from `from`; returns parent map covering the
/// reachable up-hierarchy.
ClimbMemo::Parents climb(const AsTopology& topo, AsIndex from,
                         bool use_backup) {
  ClimbMemo::Parents parent;
  parent[from] = graph::kInvalidAs;
  std::deque<AsIndex> frontier{from};
  while (!frontier.empty()) {
    const AsIndex cur = frontier.front();
    frontier.pop_front();
    for (const AsIndex p : topo.providers(cur, use_backup)) {
      if (!topo.as_up(p) || !topo.link_up(cur, p)) continue;
      if (parent.contains(p)) continue;
      parent[p] = cur;
      frontier.push_back(p);
    }
  }
  return parent;
}

std::optional<AsRoute> path_up(const AsTopology& topo, AsIndex from,
                               AsIndex anchor, bool use_backup,
                               ClimbMemo* memo) {
  if (from == anchor) return AsRoute{from};
  ClimbMemo::Parents fresh;
  if (memo == nullptr) fresh = climb(topo, from, use_backup);
  const ClimbMemo::Parents& parent =
      memo != nullptr ? memo->parents(topo, from, use_backup) : fresh;
  const auto it = parent.find(anchor);
  if (it == parent.end()) return std::nullopt;
  AsRoute up;
  for (AsIndex cur = anchor; cur != graph::kInvalidAs; cur = parent.at(cur)) {
    up.push_back(cur);
  }
  std::reverse(up.begin(), up.end());  // from .. anchor
  return up;
}

}  // namespace

const ClimbMemo::Parents& ClimbMemo::parents(const AsTopology& topo,
                                             AsIndex from, bool use_backup) {
  auto& climbs = climbs_[use_backup ? 1 : 0];
  if (climbs.size() < topo.as_count()) climbs.resize(topo.as_count());
  if (!climbs[from].has_value()) climbs[from] = climb(topo, from, use_backup);
  return *climbs[from];
}

void ClimbMemo::clear() {
  climbs_[0].clear();
  climbs_[1].clear();
}

std::optional<AsRoute> build_route(const AsTopology& topo, AsIndex from,
                                   AsIndex anchor, AsIndex to,
                                   bool use_backup, ClimbMemo* memo) {
  const auto up = path_up(topo, from, anchor, use_backup, memo);
  if (!up.has_value()) return std::nullopt;
  const auto down_up = path_up(topo, to, anchor, use_backup, memo);
  if (!down_up.has_value()) return std::nullopt;
  AsRoute route = *up;
  // Append the reversed climb of `to`, skipping the shared anchor.
  for (auto it = down_up->rbegin() + 1; it < down_up->rend(); ++it) {
    route.push_back(*it);
  }
  if (route.empty()) route.push_back(from);
  return route;
}

std::uint32_t physical_hops(const AsTopology& topo, const AsRoute& route) {
  std::uint32_t hops = 0;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    // Entering a virtual peering AS is free; leaving it is the peering link.
    if (topo.is_virtual(route[i])) continue;
    ++hops;
  }
  return hops;
}

bool route_live(const AsTopology& topo, const AsRoute& route) {
  if (route.empty()) return false;
  if (!topo.as_up(route.front())) return false;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    if (!topo.link_up(route[i], route[i + 1])) return false;
  }
  return true;
}

bool valley_free(const AsTopology& topo, const AsRoute& route) {
  // Phases: 0 = ascending, 1 = after the single peering step, 2 = descending.
  int phase = 0;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const auto rel = topo.relationship(route[i], route[i + 1]);
    if (!rel.has_value()) return false;
    switch (*rel) {
      case AsRel::kProvider:
      case AsRel::kBackupProvider:
        if (phase != 0) return false;  // cannot climb after peering/descent
        break;
      case AsRel::kPeer:
        if (phase >= 1) return false;  // at most one peering step
        phase = 1;
        break;
      case AsRel::kCustomer:
      case AsRel::kBackupCustomer:
        phase = 2;
        break;
    }
  }
  return true;
}

std::optional<std::uint32_t> bgp_policy_hops(const AsTopology& topo,
                                             AsIndex src, AsIndex dst) {
  if (src == dst) return 0;
  if (!topo.as_up(src) || !topo.as_up(dst)) return std::nullopt;
  // Hop counts up the provider DAG from both endpoints.
  auto levels = [&](AsIndex start) {
    std::unordered_map<AsIndex, std::uint32_t> dist;
    dist[start] = 0;
    std::deque<AsIndex> frontier{start};
    while (!frontier.empty()) {
      const AsIndex cur = frontier.front();
      frontier.pop_front();
      for (const AsIndex p : topo.providers(cur, /*include_backup=*/true)) {
        if (!topo.as_up(p) || !topo.link_up(cur, p) || dist.contains(p)) continue;
        dist[p] = dist[cur] + 1;
        frontier.push_back(p);
      }
    }
    return dist;
  };
  const auto up_s = levels(src);
  const auto up_d = levels(dst);

  std::optional<std::uint32_t> best;
  auto consider = [&](std::uint32_t hops) {
    if (!best.has_value() || hops < *best) best = hops;
  };
  // Up-down through a common ancestor.
  for (const auto& [as, ds] : up_s) {
    const auto it = up_d.find(as);
    if (it != up_d.end()) consider(ds + it->second);
  }
  // Up, one peering link, down.  Virtual peering ASes (if the topology was
  // converted) are treated as peering links between their members.
  for (const auto& [a, da] : up_s) {
    for (const AsIndex peer : topo.peers(a)) {
      if (!topo.as_up(peer) || !topo.link_up(a, peer)) continue;
      const auto it = up_d.find(peer);
      if (it != up_d.end()) consider(da + 1 + it->second);
    }
  }
  return best;
}

}  // namespace rofl::inter
