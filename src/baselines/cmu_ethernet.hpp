// cmu_ethernet.hpp -- the CMU-ETHERNET baseline (Myers, Ng, Zhang, HotNets'04).
//
// The paper's intradomain evaluation (section 6.2) uses "CMU-ETHERNET" --
// "Rethinking the service model: scaling Ethernet to a million nodes" -- as
// its comparison point: a flat-routing design where a host's binding is
// flooded to every router, so every router keeps forwarding state for every
// host.  ROFL is reported to need 37-181x fewer join messages and 34-1200x
// less memory.  This model reproduces those two cost dimensions faithfully:
//
//   * join: the new binding is reliably flooded over every live adjacency
//     (one packet per directed edge, like an LSA), plus the host's own
//     attachment message;
//   * state: every router stores one entry per live host;
//   * forwarding: source-routed over the IGP shortest path (stretch 1 -- the
//     design trades state for optimal paths, which is exactly the trade-off
//     figure 6 illustrates).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "graph/isp_topology.hpp"
#include "linkstate/link_state.hpp"
#include "util/identity.hpp"
#include "util/node_id.hpp"

namespace rofl::baselines {

class CmuEthernet {
 public:
  /// `topo` must outlive this object.
  explicit CmuEthernet(const graph::IspTopology* topo);

  struct JoinStats {
    bool ok = false;
    std::uint64_t messages = 0;
  };
  JoinStats join_host(const NodeId& id, graph::NodeIndex gateway);
  /// Host removal floods an invalidation the same way.
  JoinStats leave_host(const NodeId& id);

  struct RouteStats {
    bool delivered = false;
    std::uint32_t physical_hops = 0;
    double stretch = 0.0;  // always 1.0 when delivered between distinct routers
  };
  RouteStats route(graph::NodeIndex src, const NodeId& dest) const;

  /// Forwarding entries per router == number of live hosts (every router
  /// stores every binding).
  [[nodiscard]] std::uint64_t entries_per_router() const {
    return bindings_.size();
  }
  [[nodiscard]] std::size_t host_count() const { return bindings_.size(); }

 private:
  [[nodiscard]] std::uint64_t flood_cost() const;

  const graph::IspTopology* topo_;
  linkstate::LinkStateMap map_;
  std::map<NodeId, graph::NodeIndex> bindings_;
};

}  // namespace rofl::baselines
