#include "linkstate/link_state.hpp"

#include <cassert>
#include <chrono>

#include "wire/messages.hpp"

namespace rofl::linkstate {

LinkStateMap::LinkStateMap(graph::Graph* g, sim::Simulator* sim)
    : graph_(g), sim_(sim),
      spf_threads_(util::ThreadPool::default_threads()) {
  assert(g != nullptr);
  spf_cache_.resize(g->node_count());
  if (sim_ != nullptr) {
    obs::Registry& m = sim_->metrics();
    spf_runs_id_ = m.counter("linkstate.spf.runs");
    flood_fanout_id_ = m.histogram(
        "linkstate.flood.fanout",
        obs::Histogram::exponential_bounds(4.0, 2.0, 14));
    floods_id_ = m.counter("linkstate.floods");
    topo_events_id_ = m.counter("linkstate.topology_events");
  }
}

void LinkStateMap::refresh_cache_epoch() const {
  if (spf_cache_version_ != version_) {
    for (auto& entry : spf_cache_) entry.reset();
    spf_cache_.resize(graph_->node_count());
    spf_cache_version_ = version_;
  }
}

const graph::ShortestPaths& LinkStateMap::spf(NodeIndex src) const {
  refresh_cache_epoch();
  if (!spf_cache_[src].has_value()) {
    spf_cache_[src] = graph_->dijkstra(src);
    if (sim_ != nullptr) sim_->metrics().add(spf_runs_id_);
  }
  return *spf_cache_[src];
}

void LinkStateMap::set_spf_threads(std::size_t threads) {
  if (threads == spf_threads_) return;
  spf_threads_ = threads;
  pool_.reset();  // rebuilt at the new width on next recompute
}

void LinkStateMap::recompute_all_spf() const {
  // SPF duration is real computation, not virtual time, so it stays out of
  // the metrics registry, whose snapshots same-seed runs byte-compare.  With
  // a tracer installed it lands as a span at the current virtual timestamp;
  // without one the clock is never read.
  obs::Tracer* const tracer = sim_ != nullptr ? sim_->tracer() : nullptr;
  const auto wall_start = tracer != nullptr
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  refresh_cache_epoch();
  const std::size_t n = graph_->node_count();
  std::size_t stale = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!spf_cache_[i].has_value()) ++stale;
  }
  const auto finish = [&] {
    if (sim_ == nullptr) return;
    sim_->metrics().add(spf_runs_id_, stale);
    if (tracer != nullptr) {
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - wall_start)
              .count();
      tracer->complete("spf.recompute_all", "linkstate",
                       sim_->now_ms() * 1000.0, wall_ms * 1000.0, /*track=*/1,
                       {obs::TraceArg{"sources", std::uint64_t{stale}},
                        obs::TraceArg{"wall_ms", wall_ms}});
    }
  };
  // Deterministic merge: worker i writes only slot i, so the filled cache
  // is independent of scheduling.  Tiny topologies skip the pool -- the
  // fan-out overhead would dominate the Dijkstra runs themselves.
  if (spf_threads_ == 0 || n < 64) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!spf_cache_[i].has_value()) {
        spf_cache_[i] = graph_->dijkstra(static_cast<NodeIndex>(i));
      }
    }
    finish();
    return;
  }
  if (pool_ == nullptr || pool_->thread_count() != spf_threads_) {
    pool_ = std::make_unique<util::ThreadPool>(spf_threads_);
  }
  pool_->parallel_for(n, [this](std::size_t i) {
    if (!spf_cache_[i].has_value()) {
      spf_cache_[i] = graph_->dijkstra(static_cast<NodeIndex>(i));
    }
  });
  finish();
}

std::optional<NodeIndex> LinkStateMap::next_hop(NodeIndex u, NodeIndex v) const {
  if (u == v) return u;
  const NodeIndex hop = spf(u).first_hop[v];
  if (hop == graph::kInvalidNode) return std::nullopt;
  return hop;
}

std::vector<NodeIndex> LinkStateMap::path(NodeIndex u, NodeIndex v) const {
  return graph::Graph::extract_path(spf(u), u, v);
}

bool LinkStateMap::reachable(NodeIndex u, NodeIndex v) const {
  return spf(u).reachable(v);
}

std::optional<std::uint32_t> LinkStateMap::hop_distance(NodeIndex u,
                                                        NodeIndex v) const {
  const auto& sp = spf(u);
  if (!sp.reachable(v)) return std::nullopt;
  return sp.hops[v];
}

std::optional<double> LinkStateMap::latency_ms(NodeIndex u, NodeIndex v) const {
  const auto& sp = spf(u);
  if (!sp.reachable(v)) return std::nullopt;
  return sp.latency_ms[v];
}

bool LinkStateMap::route_valid(const std::vector<NodeIndex>& route) const {
  if (route.empty()) return false;
  if (!graph_->node_up(route.front())) return false;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    if (!graph_->link_up(route[i], route[i + 1])) return false;
  }
  return true;
}

bool LinkStateMap::route_valid(const std::vector<NodeIndex>& route,
                               std::uint64_t& stamp) const {
  if (stamp == version_) return true;
  if (!route_valid(route)) return false;
  stamp = version_;
  return true;
}

void LinkStateMap::fail_link(NodeIndex u, NodeIndex v) {
  graph_->set_link_up(u, v, false);
  bump_version_and_notify(
      TopologyEvent{TopologyEvent::Kind::kLinkDown, u, v});
}

void LinkStateMap::restore_link(NodeIndex u, NodeIndex v) {
  graph_->set_link_up(u, v, true);
  bump_version_and_notify(TopologyEvent{TopologyEvent::Kind::kLinkUp, u, v});
}

void LinkStateMap::fail_node(NodeIndex u) {
  graph_->set_node_up(u, false);
  bump_version_and_notify(
      TopologyEvent{TopologyEvent::Kind::kNodeDown, u, graph::kInvalidNode});
}

void LinkStateMap::restore_node(NodeIndex u) {
  graph_->set_node_up(u, true);
  bump_version_and_notify(
      TopologyEvent{TopologyEvent::Kind::kNodeUp, u, graph::kInvalidNode});
}

void LinkStateMap::account_flood(sim::MsgCategory category,
                                 std::size_t frame_bytes) {
  if (sim_ == nullptr) return;
  if (frame_bytes == 0) {
    // A bare LSA frame, sized by the encoder once (not a magic constant).
    static const std::size_t kLsaFrameBytes =
        wire::msg::control_wire_size(wire::msg::Lsa{});
    frame_bytes = kLsaFrameBytes;
  }
  // OSPF reliable flooding sends each LSA once over every live adjacency in
  // each direction.
  std::uint64_t live_directed_edges = 0;
  for (NodeIndex u = 0; u < graph_->node_count(); ++u) {
    live_directed_edges += graph_->live_degree(u);
  }
  sim_->counters().add(category, live_directed_edges);
  sim_->counters().add_bytes(category, live_directed_edges * frame_bytes);
  sim_->metrics().add(floods_id_);
  sim_->metrics().observe(flood_fanout_id_,
                          static_cast<double>(live_directed_edges));
}

void LinkStateMap::bump_version_and_notify(const TopologyEvent& ev) {
  ++version_;
  if (sim_ != nullptr) {
    sim_->metrics().add(topo_events_id_);
    if (obs::Tracer* t = sim_->tracer()) {
      t->instant("topology.change", "linkstate", sim_->now_ms() * 1000.0,
                 /*track=*/1,
                 {obs::TraceArg{"version", version_},
                  obs::TraceArg{"a", std::uint64_t{ev.a}},
                  obs::TraceArg{"b", std::uint64_t{ev.b}}});
    }
  }
  // The advertisement itself rides the wire as a typed frame; the flood
  // charges its encoded size on every live directed edge.  The round trip
  // through the codec is asserted before any listener reacts to the event.
  const wire::msg::Lsa lsa{.origin = ev.a,
                           .version = version_,
                           .event = static_cast<std::uint8_t>(ev.kind),
                           .a = ev.a,
                           .b = ev.b};
  const std::vector<std::uint8_t> frame =
      wire::msg::encode_control(lsa, NodeId{}, NodeId{});
  assert(!frame.empty());
  assert([&] {
    const auto rt = wire::msg::decode_control(frame);
    return rt.has_value() && std::get<wire::msg::Lsa>(*rt) == lsa;
  }());
  account_flood(sim::MsgCategory::kLinkState, frame.size());
  for (const auto& listener : listeners_) listener(ev);
}

void LinkStateMap::subscribe(Listener listener) {
  listeners_.push_back(std::move(listener));
}

}  // namespace rofl::linkstate
