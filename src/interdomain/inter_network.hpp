// inter_network.hpp -- the interdomain ROFL protocol engine (sections 2.3, 4).
//
// Following the paper's methodology, each AS is one node.  The engine owns
// the working AS topology (the virtual-AS conversion of figure 4a when
// peering_mode is kVirtualAs, the raw graph when kBloom), per-AS routing
// state, and executes:
//
//   * join_host   -- Canon-style recursive merge (Algorithm 3): locate the
//                    predecessor at each level of the chosen anchor set
//                    (which depends on the join strategy, figure 8a), install
//                    pruned external successors with AS-level source routes,
//                    update the predecessors' pointers, and optionally
//                    acquire proximity fingers;
//   * route       -- greedy forwarding over every pointer known at the
//                    current AS, with BGP-like per-segment policy (each
//                    pointer's source route is valley-free by construction),
//                    optional per-AS pointer caches guarded by subtree bloom
//                    filters, and the bloom-peering shortcut with
//                    backtracking on false positives (section 4.2);
//   * fail_as / restore_as, fail_link / restore_link -- failure machinery
//                    with per-level ring repair and zero-ID-style
//                    reconvergence (section 4.1, "Failure recovery").
//
// State bookkeeping note (documented in DESIGN.md): per-anchor ring
// membership is tracked in sorted per-AS registries.  The paper itself
// requires hosts to register identifiers with their providers (section 4.1,
// "Joining"), so this is protocol state, not an oracle; lookups still charge
// the messages a distributed walk would send, via simulate_lookup.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "interdomain/inter_types.hpp"
#include "interdomain/policy.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/simulator.hpp"
#include "util/bloom.hpp"
#include "util/rng.hpp"
#include "wire/messages.hpp"

namespace rofl::audit {
class Auditor;
}

namespace rofl::inter {

class InterNetwork {
 public:
  /// `base` must outlive the network.  When peering_mode is kVirtualAs the
  /// engine builds and routes over the converted topology internally; the
  /// base graph keeps serving as the BGP baseline and for physical-hop
  /// accounting.
  InterNetwork(const graph::AsTopology* base, InterConfig cfg,
               std::uint64_t seed);

  InterNetwork(const InterNetwork&) = delete;
  InterNetwork& operator=(const InterNetwork&) = delete;

  /// The live base topology (failures applied); serves as the BGP baseline
  /// and, in bloom peering mode, as the source of peering adjacencies.
  [[nodiscard]] const graph::AsTopology& base_topology() const {
    return base_copy_;
  }
  [[nodiscard]] const graph::AsTopology& work_topology() const { return work_; }
  [[nodiscard]] const InterConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  // -- host lifecycle -------------------------------------------------------
  InterJoinStats join_host(const Identity& ident, AsIndex home,
                           JoinStrategy strategy);
  InterJoinStats join_random_host(JoinStrategy strategy);

  /// Joins a group-held or TE-suffix ID (sections 5.1/5.2): the caller
  /// authenticates membership; `via_provider` forces the single-homed chain
  /// through a specific provider (multi-address multihoming, section 4.2).
  InterJoinStats join_group_id(const NodeId& id, AsIndex home,
                               JoinStrategy strategy,
                               std::optional<AsIndex> via_provider =
                                   std::nullopt);

  /// Removes an ID: ring splice-out at every level it joined, pointer
  /// teardowns at its predecessors.  By value: the directory entry a
  /// caller's reference could name is freed before `id` is last read.
  InterRepairStats leave_host(NodeId id);

  // -- data plane -----------------------------------------------------------
  /// Routes a packet from (any host in) `src_as` toward flat label `dest`.
  /// When `traversed` is non-null the AS-level path is appended to it (used
  /// by the failure-impact experiment).  With a flight recorder installed,
  /// every decision is recorded under `trace_id` (0 = allocate a fresh id;
  /// pass RouteStats::trace_id from an intradomain leg to stitch the legs
  /// into one flight).
  InterRouteStats route(AsIndex src_as, const NodeId& dest,
                        std::vector<AsIndex>* traversed = nullptr,
                        std::uint64_t trace_id = 0);

  // -- observability --------------------------------------------------------
  /// Installs (or removes, with nullptr) the per-packet hop recorder.  The
  /// recorder must outlive the network; sharing one instance with an
  /// intradomain Network keeps trace ids globally unique across layers.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const {
    return recorder_;
  }

  /// Installs (or removes, with nullptr) a fault injector.  Control-plane
  /// exchanges (ring-merge join levels, re-anchor registrations) then run
  /// through retry-with-backoff (InterConfig::retry); an exchange whose
  /// retries are exhausted is skipped and left for the next `repair()` pass.
  /// The injector must outlive the network.
  void set_fault_injector(sim::FaultInjector* injector) { faults_ = injector; }
  [[nodiscard]] sim::FaultInjector* fault_injector() const { return faults_; }

  /// Maintenance pass: recomputes anchor sets and ring registrations for
  /// every hosted ID and rebuilds pointers -- the hook that re-drives join
  /// levels dropped earlier under message loss.  Charges only actual
  /// changes, so it converges to a no-op on a consistent network.
  InterRepairStats repair();

  // -- failures (section 6.3, "Failures") -----------------------------------
  InterRepairStats fail_as(AsIndex as);

  /// Section 4.1: "an ISP may host virtual servers on behalf of a customer
  /// ISP, which it can maintain during that customer's outages."  Fails the
  /// customer AS but keeps its identifiers alive at `provider`: the ring
  /// never churns, remote pointers stay valid (re-routed to the provider),
  /// and restore_as becomes a cheap re-point instead of a mass rejoin.
  InterRepairStats fail_as_with_virtual_servers(AsIndex customer,
                                                AsIndex provider);
  InterRepairStats restore_as(AsIndex as);
  InterRepairStats fail_link(AsIndex a, AsIndex b);
  InterRepairStats restore_link(AsIndex a, AsIndex b);

  // -- introspection / verification -----------------------------------------
  [[nodiscard]] const std::map<NodeId, AsIndex>& directory() const {
    return directory_;
  }
  [[nodiscard]] std::optional<AsIndex> home_of(const NodeId& id) const;
  [[nodiscard]] const InterVNode* find_vnode(const NodeId& id) const;

  /// Checks that at every anchor with ring members, each member's derived
  /// successor equals the registry order (invariant 1/5 of DESIGN.md, per
  /// level).  Anchors sampled when there are many.
  [[nodiscard]] bool verify_rings(std::string* err = nullptr,
                                  std::size_t max_anchors = 0) const;

  /// figure 8a/6.3 metrics.
  [[nodiscard]] std::uint64_t total_pointer_count() const;
  [[nodiscard]] std::uint64_t total_finger_count() const;
  /// Hosting + finger state in bits (each entry one 128-bit ID plus an
  /// AS-path; the paper's Mbit-per-AS figures count the same way).
  [[nodiscard]] double mean_state_bits_per_as() const;
  [[nodiscard]] double mean_bloom_bits_per_as() const;
  [[nodiscard]] std::size_t ring_size(AsIndex anchor) const;

 private:
  /// The invariant auditor reads (never writes) the ring registries, bloom
  /// summaries, and pointer sets to assert cross-layer consistency.
  friend class rofl::audit::Auditor;

  struct AsNode {
    std::map<NodeId, InterVNode> hosted;
    /// IDs registered in the ring anchored at this AS (protocol state: hosts
    /// register with providers up the hierarchy).
    std::map<NodeId, AsIndex> ring;  // id -> hosting AS
    /// Greedy index: every pointer target known here -> (home, anchors).
    struct Known {
      AsIndex home = graph::kInvalidAs;
      std::vector<AsIndex> anchors;  // anchors of pointers to this target
    };
    std::map<NodeId, Known> known;
    std::unique_ptr<BloomFilter> subtree_bloom;  // ids in this AS's subtree
    /// Optional per-AS pointer cache (figure 8c): id -> home AS.
    std::map<NodeId, AsIndex> cache;
    std::vector<NodeId> cache_fifo;
  };

  // anchor selection per strategy
  struct Anchor {
    AsIndex as;
    unsigned level;
  };
  [[nodiscard]] std::vector<Anchor> anchors_for(
      AsIndex home, JoinStrategy strategy,
      std::optional<AsIndex> via_provider = std::nullopt) const;

  /// Shared join body (post-authentication).
  InterJoinStats join_id(const NodeId& id, AsIndex home, JoinStrategy strategy,
                         std::optional<AsIndex> via_provider);

  // ring registry helpers
  [[nodiscard]] std::optional<std::pair<NodeId, AsIndex>> ring_succ(
      AsIndex anchor, const NodeId& id) const;
  [[nodiscard]] std::optional<std::pair<NodeId, AsIndex>> ring_pred(
      AsIndex anchor, const NodeId& id) const;

  /// Rebuilds a vnode's level pointers from the ring registries (pruned per
  /// Algorithm 3); returns the number of pointers that changed.
  std::uint32_t rebuild_pointers(InterVNode& vn);

  /// Simulated greedy walk locating `target`'s ring predecessor at `anchor`
  /// starting from `from`; returns AS-level message cost.
  std::uint64_t simulate_lookup(AsIndex from, const NodeId& target,
                                AsIndex anchor) const;

  /// Outcome of one control-plane exchange: AS-level packets and wire bytes
  /// actually charged (retries included), and whether an attempt survived.
  struct WireExchange {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    bool ok = false;
  };

  /// Runs one control-plane exchange of `msgs` AS-level messages, each
  /// carrying the encoded frame of `m`, under the fault injector: an attempt
  /// may be dropped mid-path (costing the legs transmitted so far) or its
  /// frame corrupted in flight (the CRC trailer rejects it at the receiver,
  /// which the sender cannot tell from loss), then retried with backoff.
  /// Without an injector the exchange succeeds and charges every leg once.
  [[nodiscard]] WireExchange reliable_exchange(std::uint64_t msgs,
                                               const wire::msg::ControlMessage& m);

  void select_fingers(InterVNode& vn);
  /// Recomputes every hosted ID's anchor set and ring registrations after a
  /// topology change, rebuilding pointers; charges only actual changes.
  void reanchor_all(InterRepairStats& stats);
  void index_vnode(const InterVNode& vn);
  void reindex_as(AsIndex as);
  void cache_insert(AsIndex as, const NodeId& id, AsIndex home);

  /// True if `anc`'s customer subtree contains `des` (precomputed masks over
  /// the working topology; recomputed on demand after failures).
  [[nodiscard]] bool is_ancestor(AsIndex anc, AsIndex des) const;
  void rebuild_ancestor_masks() const;

  /// Builds the AS route from `from` via `anchor` down to the AS hosting
  /// `id`; honors the target's forced access provider (TE suffixes /
  /// multi-address multihoming) so incoming traffic descends the branch the
  /// ID joined through.
  [[nodiscard]] std::optional<AsRoute> route_to_target(AsIndex from,
                                                       AsIndex anchor,
                                                       const NodeId& id,
                                                       AsIndex home) const;

  [[nodiscard]] std::uint32_t route_hops(const AsRoute& r) const {
    return physical_hops(work_, r);
  }

  /// Best policy-usable candidate at `as` for `dest`, constrained (when
  /// `within` is set) to pointers anchored inside subtree(within).
  struct RCandidate {
    NodeId id;
    AsIndex home;
    AsRoute route;  // empty route = local/cached (charged via hop count)
  };
  [[nodiscard]] std::optional<RCandidate> best_candidate(
      AsIndex as, const NodeId& dest,
      std::optional<AsIndex> within = std::nullopt) const;

  InterRouteStats route_constrained(AsIndex src_as, const NodeId& dest,
                                    std::optional<AsIndex> within,
                                    std::vector<AsIndex>* traversed,
                                    std::uint64_t trace_id = 0);

  /// Appends one hop record (no-op without a recorder).
  void record_hop(std::uint64_t trace_id, obs::HopKind kind, AsIndex as,
                  const NodeId& chased);

  const graph::AsTopology* base_;
  graph::AsTopology base_copy_;  // failures are applied here and to work_
  graph::AsTopology work_;
  InterConfig cfg_;
  sim::Simulator sim_;
  Rng rng_;
  obs::FlightRecorder* recorder_ = nullptr;
  sim::FaultInjector* faults_ = nullptr;
  // Interdomain datapath metric ids in sim_.metrics().
  obs::MetricId routes_id_ = 0;
  obs::MetricId delivered_id_ = 0;
  obs::MetricId peer_crossings_id_ = 0;
  obs::MetricId backtracks_id_ = 0;
  obs::MetricId probes_id_ = 0;
  obs::MetricId encode_failures_id_ = 0;
  obs::MetricId codec_rejected_id_ = 0;
  /// Framing overhead charged per AS-level data hop (measured once from the
  /// encoder -- interdomain data packets carry an empty payload here).
  std::size_t data_frame_bytes_ = 0;
  std::vector<AsNode> nodes_;
  std::map<NodeId, AsIndex> directory_;
  std::map<NodeId, Identity> identities_;
  std::map<NodeId, JoinStrategy> strategies_;
  /// Customer AS -> provider currently hosting its IDs as virtual servers.
  std::map<AsIndex, AsIndex> virtual_server_host_;

  // ancestor masks: masks_[anc * stride + des/64] bit
  mutable std::vector<std::uint64_t> ancestor_masks_;
  mutable bool masks_valid_ = false;
  /// Climbs over work_ for build_route; cleared with masks_valid_ wherever
  /// work_ changes (only the failure and restore entry points change it).
  mutable ClimbMemo climbs_;
};

}  // namespace rofl::inter
