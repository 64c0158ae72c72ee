// types.hpp -- shared vocabulary of the intradomain ROFL protocol (section 2.2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "util/identity.hpp"
#include "util/node_id.hpp"

namespace rofl::intra {

using graph::NodeIndex;

/// A hop-by-hop series of physically connected router indices from one
/// hosting router to another (section 2.1, "Source routes").
using SourceRoute = std::vector<NodeIndex>;

/// A ring pointer: some ID known to reside at a particular hosting router.
struct NeighborPtr {
  NodeId id;
  NodeIndex host = graph::kInvalidNode;

  friend bool operator==(const NeighborPtr&, const NeighborPtr&) = default;
};

/// Node classes from section 2.1.  Routers always participate fully; stable
/// hosts become ring members; ephemeral hosts only register a backpointer at
/// their predecessor and never serve as anyone's successor/predecessor.
enum class HostClass : std::uint8_t { kStable, kEphemeral };

/// Per-vnode routing state.  A hosting router spawns one VirtualNode per
/// resident ID (Algorithm 1).  The router's own identity lives in a special
/// "default" virtual node whose successors act as default routes.
struct VirtualNode {
  NodeId id;
  PublicKey pub{};
  NodeIndex home = graph::kInvalidNode;
  bool is_default = false;  // the router's own vnode
  HostClass host_class = HostClass::kStable;

  /// Successor group, nearest first (section 2.2, "Recovering": nodes hold
  /// multiple successors for resilience to ID failure).
  std::vector<NeighborPtr> successors;
  std::optional<NeighborPtr> predecessor;

  /// Routers traversed by the join control messages; the hosting router
  /// stores this list and uses it for the directed teardown flood on host
  /// failure (section 3.1/3.2).
  std::vector<NodeIndex> control_path;

  [[nodiscard]] const NeighborPtr* first_successor() const {
    return successors.empty() ? nullptr : &successors.front();
  }
};

/// Orders `p` into `owner`'s successor group (nearest in clockwise distance
/// first) and truncates to `k`.  Refreshes the host if the ID is already
/// present.  A lone member's group is its self-loop; the first real
/// successor replaces it.  One binary-search pass: the group is sorted by
/// clockwise distance from owner.id, and distance from a fixed origin is
/// injective, so the insertion point found by lower_bound is also the only
/// position a duplicate of p.id could occupy.
inline void insert_sorted_successor(VirtualNode& owner, const NeighborPtr& p,
                                    std::size_t k) {
  if (p.id == owner.id) return;
  if (owner.successors.size() == 1 && owner.successors.front().id == owner.id) {
    owner.successors.clear();
  }
  const NodeId d_new = NodeId::distance_cw(owner.id, p.id);
  const auto it = std::lower_bound(
      owner.successors.begin(), owner.successors.end(), d_new,
      [&owner](const NeighborPtr& s, const NodeId& d) {
        return NodeId::distance_cw(owner.id, s.id) < d;
      });
  if (it != owner.successors.end() && it->id == p.id) {
    it->host = p.host;
    return;
  }
  owner.successors.insert(it, p);
  if (owner.successors.size() > k) owner.successors.resize(k);
}

/// Drops every successor with the given ID from `owner`'s group.
inline void remove_successor(VirtualNode& owner, const NodeId& id) {
  std::erase_if(owner.successors,
                [&](const NeighborPtr& s) { return s.id == id; });
}

/// Outcome of a join (figures 5a/5b/5c).
struct JoinStats {
  bool ok = false;
  std::uint64_t messages = 0;  // network-level packets consumed by the join
  double latency_ms = 0.0;     // completion time (parallel messages overlap)
};

/// Outcome of routing one data packet (figures 6a/6b).  Holds only what
/// forwarding itself produced: the IGP shortest path that stretch divides by
/// is an oracle question the caller asks Network::shortest_hops, so routes
/// nobody measures stretch for do not pay for it.
struct RouteStats {
  bool delivered = false;
  std::uint32_t physical_hops = 0;  // router-level hops traversed
  std::uint32_t ring_hops = 0;      // pointer switches en route
  double latency_ms = 0.0;
  /// Flight-recorder id of this packet (0 when no recorder was installed);
  /// pass it to FlightRecorder::format_trace, or to InterNetwork::route to
  /// stitch an intradomain leg onto an interdomain flight.
  std::uint64_t trace_id = 0;

  /// physical_hops over the oracle's `shortest_hops` for the same pair; 0
  /// when the packet was lost or the oracle knows no path.
  [[nodiscard]] double stretch(std::uint32_t shortest_hops) const {
    if (!delivered || shortest_hops == 0) return 0.0;
    return static_cast<double>(physical_hops) /
           static_cast<double>(shortest_hops);
  }
};

/// Outcome of a failure-handling episode (teardown floods, repairs).
struct RepairStats {
  std::uint64_t messages = 0;
  std::uint32_t ids_rejoined = 0;
  std::uint32_t pointers_torn = 0;
};

}  // namespace rofl::intra
