// policy.hpp -- AS-level path construction and BGP-like policy checks
// (sections 4.1, 4.2).
//
// Every interdomain pointer carries an AS-level source route that climbs
// provider links from the owner to an anchor AS and descends customer links
// to the target -- a valley-free "up then down" segment.  This module builds
// those routes, validates them against the live topology, and measures their
// physical length (virtual peering ASes are transparent: traversing one is
// the peering link itself, a single hop).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "interdomain/inter_types.hpp"

namespace rofl::inter {

/// The climbs build_route runs: for each (AS, backup flag), the parent of
/// every AS on the BFS tree of the live up-hierarchy above it.  A memo is
/// valid for one state of the one topology it is used with; its owner
/// clears it whenever that topology changes.
class ClimbMemo {
 public:
  using Parents = std::unordered_map<AsIndex, AsIndex>;

  /// The climb from `from`, run on first use after each clear().
  [[nodiscard]] const Parents& parents(const graph::AsTopology& topo,
                                       AsIndex from, bool use_backup);
  void clear();

 private:
  std::vector<std::optional<Parents>> climbs_[2];  // by use_backup
};

/// Builds the AS route from `from` up to `anchor` and down to `to`,
/// following live provider links only (plus backup providers when
/// `use_backup`).  Returns nullopt if either climb fails (anchor not in a
/// live up-hierarchy).  The route includes both endpoints and the anchor.
/// With a `memo`, the climbs come from it; the route is the same.
[[nodiscard]] std::optional<AsRoute> build_route(const graph::AsTopology& topo,
                                                 AsIndex from, AsIndex anchor,
                                                 AsIndex to,
                                                 bool use_backup = false,
                                                 ClimbMemo* memo = nullptr);

/// Number of physical AS-level hops of a route: edges between real ASes
/// count 1; an edge pair through a virtual peering AS counts 1 in total.
[[nodiscard]] std::uint32_t physical_hops(const graph::AsTopology& topo,
                                          const AsRoute& route);

/// True if every adjacent pair in the route is a live link and every AS is
/// up.
[[nodiscard]] bool route_live(const graph::AsTopology& topo,
                              const AsRoute& route);

/// True if the route is valley-free: a (possibly empty) ascent over
/// provider/backup-provider links, at most one peering step, then a
/// (possibly empty) descent over customer links.  This is the BGP-like
/// export/import check applied before a pointer is installed or used
/// (section 2.3, "Routing").
[[nodiscard]] bool valley_free(const graph::AsTopology& topo,
                               const AsRoute& route);

/// Shortest valley-free path length (in physical AS hops) between two ASes
/// under Gao-Rexford policies: up through providers, at most one peering
/// link, down through customers.  This is the "BGP-policy" baseline of
/// figure 8b.  Returns nullopt if no policy-compliant path exists.
[[nodiscard]] std::optional<std::uint32_t> bgp_policy_hops(
    const graph::AsTopology& topo, AsIndex src, AsIndex dst);

}  // namespace rofl::inter
