// link_state.hpp -- the OSPF-like substrate ROFL runs over.
//
// Section 2.1 ("Source-Route Failure Detection"): ROFL assumes an underlying
// OSPF-like protocol that provides a network map (not routes to hosts),
// identifies link failures, finds paths to other hosting routers, and
// notifies the routing layer of link/node events.  This module implements
// that substrate over a graph::Graph:
//
//   * every router shares a consistent link-state database (the graph);
//   * shortest paths are computed on demand and cached, with the cache
//     invalidated whenever the topology version changes.  Each cached SPF
//     run carries its first-hop table, so next_hop is one array load, as a
//     router's forwarding table lookup is;
//   * the version is the one rule the caches rest on: every graph mutation
//     goes through fail_* / restore_* here and bumps it.  The SPF cache keys
//     on it, and so does the stamped route_valid that pointer caches use to
//     skip re-walking a source route the topology has not touched;
//   * fail/restore operations flood LSAs (accounted as kLinkState messages,
//     one per live directed edge, as OSPF flooding would) and synchronously
//     notify subscribed listeners -- the hook the ROFL failure machinery
//     (section 3.2) hangs off;
//   * small stable payloads (the zero-ID advertisements of the partition
//     repair protocol, and border-router existence in the interdomain
//     design) can be piggybacked on the flooding channel.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace rofl::linkstate {

using graph::NodeIndex;

struct TopologyEvent {
  enum class Kind : std::uint8_t { kLinkDown, kLinkUp, kNodeDown, kNodeUp };
  Kind kind;
  NodeIndex a = graph::kInvalidNode;  // node, or first link endpoint
  NodeIndex b = graph::kInvalidNode;  // second link endpoint (links only)
};

class LinkStateMap {
 public:
  /// Both pointers must outlive the map.  `sim` may be null when the caller
  /// does not need message accounting (unit tests).
  LinkStateMap(graph::Graph* g, sim::Simulator* sim);

  [[nodiscard]] const graph::Graph& topology() const { return *graph_; }
  [[nodiscard]] std::size_t router_count() const { return graph_->node_count(); }

  // -- map queries (always reflect the current topology version) -----------
  /// Next hop from `u` toward `v` along the IGP shortest path, or nullopt if
  /// unreachable.
  [[nodiscard]] std::optional<NodeIndex> next_hop(NodeIndex u, NodeIndex v) const;
  /// Full router path u..v (inclusive); empty if unreachable.
  [[nodiscard]] std::vector<NodeIndex> path(NodeIndex u, NodeIndex v) const;
  [[nodiscard]] bool reachable(NodeIndex u, NodeIndex v) const;
  /// Hop count of the IGP path, or nullopt if unreachable.
  [[nodiscard]] std::optional<std::uint32_t> hop_distance(NodeIndex u,
                                                          NodeIndex v) const;
  /// One-way propagation latency of the IGP path in milliseconds.
  [[nodiscard]] std::optional<double> latency_ms(NodeIndex u, NodeIndex v) const;

  /// True if a router-level source route is currently fully up.
  [[nodiscard]] bool route_valid(const std::vector<NodeIndex>& route) const;
  /// The same answer, walking the route only when the topology has changed
  /// since it was last found up.  `stamp` is the caller's memo for this
  /// route: the version() of that last successful walk, 0 for never.  Every
  /// graph mutation goes through this map and bumps version(), so a route
  /// that was up at the current version is still up.
  [[nodiscard]] bool route_valid(const std::vector<NodeIndex>& route,
                                 std::uint64_t& stamp) const;

  // -- failure / restore (flood LSAs + notify the routing layer) -----------
  void fail_link(NodeIndex u, NodeIndex v);
  void restore_link(NodeIndex u, NodeIndex v);
  void fail_node(NodeIndex u);
  void restore_node(NodeIndex u);

  using Listener = std::function<void(const TopologyEvent&)>;
  void subscribe(Listener listener);

  /// Counts one LSA flood over the current topology (also used by protocols
  /// that piggyback payloads -- zero-ID advertisements, border-router
  /// announcements -- on the link-state channel, section 3.2 / 4.1).  Each
  /// live directed edge carries `frame_bytes` on the byte counters; 0 means
  /// "a bare encoded LSA frame", measured from the wire codec once.
  void account_flood(sim::MsgCategory category = sim::MsgCategory::kLinkState,
                     std::size_t frame_bytes = 0);

  /// Monotonically increases on every topology change; cached SPF state
  /// anywhere in the system can use it for invalidation.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  // -- all-routers SPF recomputation ----------------------------------------
  /// Worker threads used by recompute_all_spf (0 = serial).  The default is
  /// ThreadPool::default_threads(); runs are byte-identical for every
  /// setting (see the determinism contract below).
  void set_spf_threads(std::size_t threads);
  [[nodiscard]] std::size_t spf_threads() const { return spf_threads_; }

  /// Recomputes the SPF for every router whose cache slot is stale, fanning
  /// the per-source Dijkstra runs across the worker pool.  Determinism
  /// contract: worker `i` writes only cache slot `i`, each Dijkstra depends
  /// only on the (shared, read-only) graph, and no listeners fire -- so
  /// routing tables, figure CSVs, and seeded runs are byte-identical to the
  /// serial path regardless of thread count or OS scheduling.  (Metric
  /// updates happen once, after the pool drains, from the calling thread,
  /// and the wall-clock duration goes only to an installed tracer.)  Called
  /// by the repair machinery after topology changes; on-demand spf()
  /// queries then hit warm slots.
  void recompute_all_spf() const;

 private:
  [[nodiscard]] const graph::ShortestPaths& spf(NodeIndex src) const;
  /// Drops stale cache slots if the topology version moved.
  void refresh_cache_epoch() const;
  void bump_version_and_notify(const TopologyEvent& ev);

  graph::Graph* graph_;
  sim::Simulator* sim_;
  std::uint64_t version_ = 1;
  std::vector<Listener> listeners_;

  // Observability ids in the simulator's registry (unset when sim_ == null):
  // SPF work, flood fan-out, and topology churn.
  obs::MetricId spf_runs_id_ = 0;
  obs::MetricId flood_fanout_id_ = 0;
  obs::MetricId floods_id_ = 0;
  obs::MetricId topo_events_id_ = 0;

  std::size_t spf_threads_;
  mutable std::unique_ptr<util::ThreadPool> pool_;  // built on first use
  mutable std::vector<std::optional<graph::ShortestPaths>> spf_cache_;
  mutable std::uint64_t spf_cache_version_ = 0;
};

}  // namespace rofl::linkstate
