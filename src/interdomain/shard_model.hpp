// shard_model.hpp -- the Internet-scale workload for the sharded simulator.
//
// The paper's headline evaluation (section 6.3) is interdomain: millions of
// hosts homed across thousands of ASes, joining, leaving, and resolving flat
// labels through the Canon-merged ring hierarchy.  The full InterNetwork
// engine models that faithfully but single-threaded; this module is the
// scale companion: every AS becomes one ShardedSimulator *entity* whose
// handler replays the protocol's macroscopic behavior --
//
//   * join:   register the new host's label at every anchor on the home
//     AS's primary-provider chain (the level-0..k merged rings of
//     section 4.1), one RingMerge frame per provider hop;
//   * leave:  the matching deregistration cascade;
//   * lookup: climb the source's anchor chain until some merged ring holds
//     the target label, crossing the tier-1 clique in deterministic index
//     order when the top is reached without a hit, then answer the source
//     directly (hops and hit/miss are the observables, mirroring fig. 7).
//
// Labels are synthetic but self-consistent: slot s of AS t always maps to
// id_for(seed, t, s), so a lookup drawn by any AS races real registration
// state -- hits and misses are decided by the deterministic event order,
// never by out-of-band knowledge.  Per-AS op rates are proportional to the
// Zipf host counts, which is also what makes the weighted partition
// (balanced_shard_map) meaningful.
//
// Determinism contract (DESIGN.md section 13): handlers draw only from
// ctx.rng() (the *destination* entity's stream), histogram samples are
// integral, flight-recorder trace ids are entity-derived
// ((src+1) << 32 | counter), and all cross-AS latencies are integer
// multiples of the lookahead.  Under that discipline the merged metrics,
// flight digest, and audit report are bit-identical for every shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/as_topology.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded.hpp"
#include "util/node_id.hpp"

namespace rofl::inter {

struct ScaleParams {
  /// AS mix; `total_hosts` is overridden by `hosts` below.
  graph::AsGenParams topo{};
  std::uint64_t hosts = 100'000;
  double duration_ms = 2'000.0;
  /// Per-AS driver tick interval (self-events; exempt from the lookahead).
  double tick_ms = 50.0;
  /// Expected operations per host per simulated second.
  double op_rate_per_host_hz = 1.0;
  /// Op mix; lookup takes the remainder.
  double join_frac = 0.3;
  double leave_frac = 0.2;
  /// Label slots per AS: joins/leaves/lookups address id_for(seed, as, slot).
  std::uint32_t slots_per_as = 64;
  /// Conservative bound; every cross-AS latency is a 1-4x multiple of it.
  double lookahead_ms = 1.0;
  std::uint32_t shards = 1;
  std::uint64_t seed = 1;
  std::size_t channel_capacity = 1 << 12;
  std::size_t recorder_capacity = 1 << 14;
  /// Trace every Nth lookup per source AS through the flight recorder
  /// (0 disables tracing).
  std::uint32_t trace_sample = 64;
  /// Timeline sampling window on the sim clock; 0 disables the timeline.
  /// The merged timeline is shard-count independent (DESIGN.md section 14).
  double timeline_window_ms = 0.0;
  std::size_t timeline_capacity = 4096;
  /// Wall-clock engine self-profile (busy/stall/idle per shard); the profile
  /// is reporting-only and never enters determinism-gated artifacts.
  bool profile = false;
};

class ShardScaleModel {
 public:
  explicit ShardScaleModel(const ScaleParams& params);
  ~ShardScaleModel();

  ShardScaleModel(const ShardScaleModel&) = delete;
  ShardScaleModel& operator=(const ShardScaleModel&) = delete;

  /// Seeds the per-AS driver ticks and runs the engine to quiescence.
  sim::ShardedSimulator::RunStats run();

  [[nodiscard]] const ScaleParams& params() const { return params_; }
  [[nodiscard]] const graph::AsTopology& topology() const { return topo_; }
  [[nodiscard]] const sim::ShardedSimulator& engine() const { return *engine_; }
  [[nodiscard]] const std::vector<std::uint32_t>& shard_map() const {
    return shard_map_;
  }

  [[nodiscard]] obs::Registry merged_metrics() const {
    return engine_->merged_metrics();
  }
  [[nodiscard]] std::uint64_t flight_digest() const {
    return engine_->flight_digest();
  }
  /// Merged per-shard timelines; requires timeline_window_ms > 0 and run().
  [[nodiscard]] obs::Timeline merged_timeline() const {
    return engine_->merged_timeline();
  }
  /// The engine self-profile, or nullptr when params.profile is false.
  [[nodiscard]] const sim::EngineProfiler* profiler() const {
    return profiler_.get();
  }

  /// The deterministic label of slot `slot` homed at AS `as`.
  [[nodiscard]] static NodeId id_for(std::uint64_t seed, graph::AsIndex as,
                                     std::uint32_t slot);

  // -- audit surface (post-run) ----------------------------------------------
  /// Anchor chain of `a`: a itself, then primary providers up to a tier-1.
  [[nodiscard]] const std::vector<graph::AsIndex>& chain(
      graph::AsIndex a) const {
    return chain_[a];
  }
  /// Home-AS ground truth: is slot `slot` of AS `a` currently joined?
  [[nodiscard]] bool slot_live(graph::AsIndex a, std::uint32_t slot) const;
  /// The merged ring an anchor holds: label -> home AS.  Hashed: the model
  /// and the audit only insert, erase, find and count labels.
  [[nodiscard]] const std::unordered_map<NodeId, graph::AsIndex>& ring(
      graph::AsIndex a) const;

 private:
  struct alignas(64) AsState {
    std::vector<std::uint8_t> live;            // per-slot join state (truth)
    std::unordered_map<NodeId, graph::AsIndex> ring;  // merged ring here
    double op_accumulator = 0.0;
    std::uint64_t lookup_counter = 0;
  };

  struct MetricIds {
    obs::MetricId ticks, ops_join, ops_leave, ops_lookup, leave_noop;
    obs::MetricId lookup_hit, lookup_miss;
    obs::MetricId msgs_register, msgs_unregister, msgs_lookup, msgs_resp;
    obs::MetricId bytes_wire;
    obs::MetricId ring_max;
    obs::MetricId hops_hist, ring_size_hist;
  };

  static void register_metrics(obs::Registry& reg, MetricIds* out = nullptr);

  void handle(sim::ShardContext& ctx, const sim::ShardEvent& ev);
  void do_tick(sim::ShardContext& ctx, const sim::ShardEvent& ev);
  void do_join(sim::ShardContext& ctx, graph::AsIndex a);
  void do_leave(sim::ShardContext& ctx, graph::AsIndex a);
  void do_lookup(sim::ShardContext& ctx, graph::AsIndex a);
  void ring_insert(sim::ShardContext& ctx, graph::AsIndex anchor, NodeId id,
                   graph::AsIndex home);
  /// Picks the next anchor for a lookup that missed at `b` and forwards (or
  /// answers the source with a miss when the hierarchy is exhausted).
  void continue_lookup(sim::ShardContext& ctx, graph::AsIndex b,
                       const std::uint8_t* payload);
  /// Deterministic per-ordered-pair link delay (1-4x lookahead).  Constant
  /// per link so the (when, src, seq) tie-break preserves send order: links
  /// are FIFO and register/unregister cascades apply in order.
  [[nodiscard]] double latency(graph::AsIndex from, graph::AsIndex to) const;
  [[nodiscard]] graph::AsIndex pick_target(Rng& rng) const;

  ScaleParams params_;
  graph::AsTopology topo_;
  std::vector<std::vector<graph::AsIndex>> chain_;  // per-AS anchor chain
  std::vector<graph::AsIndex> provider_;            // primary provider or inv.
  std::vector<graph::AsIndex> tier1_;               // ascending index order
  std::vector<double> target_cdf_;                  // host-weighted pick
  std::vector<AsState> state_;
  std::vector<std::uint32_t> shard_map_;
  std::unique_ptr<sim::EngineProfiler> profiler_;
  std::unique_ptr<sim::ShardedSimulator> engine_;
  MetricIds ids_{};
  std::size_t frame_bytes_ = 0;  // RingMerge wire size (all kinds share it)
};

}  // namespace rofl::inter
