// network.hpp -- the intradomain ROFL protocol engine (sections 2.2 and 3).
//
// A Network owns one ISP's routers, the OSPF-like link-state substrate, and
// the discrete-event simulator, and executes the ROFL control plane over
// them:
//
//   * bootstrap       -- every router spawns a default virtual node holding
//                        its router-ID; the router-ID ring provides default
//                        routes and join bootstrapping (section 3.1);
//   * join_host       -- Algorithm 1: authenticate the self-certified ID,
//                        greedily locate the predecessor, splice the new
//                        virtual node into the ring, update the k-deep
//                        successor groups, and cache pointers along control
//                        paths;
//   * route           -- Algorithm 2: per-router greedy forwarding over
//                        resident virtual nodes and pointer caches.  It
//                        keeps no oracle bookkeeping: stretch callers ask
//                        shortest_hops in the oracle section;
//   * fail_host       -- session timeout; teardown messages to successors /
//                        predecessors plus the directed flood that clears
//                        cached state (section 3.2, "Host failure");
//   * fail_router     -- LSA-driven pointer invalidation, deterministic
//                        failover of resident IDs, ring repair (section 3.2,
//                        "Router failure");
//   * fail/restore_link and repair_partitions -- local successor shifting
//                        plus the zero-ID merge protocol (section 3.2,
//                        "Link failure, partition").
//
// Message accounting: every logical protocol message between routers A and B
// is charged one network-level packet per physical hop of the IGP path A->B,
// which is exactly how the paper's join/recovery overhead figures count
// packets.  Latencies sum link propagation delays; messages documented as
// parallel in the paper (the post-locate pointer installs) contribute their
// maximum rather than their sum to join latency.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/isp_topology.hpp"
#include "linkstate/link_state.hpp"
#include "obs/flight_recorder.hpp"
#include "proto/ring.hpp"
#include "rofl/router.hpp"
#include "rofl/types.hpp"
#include "rofl/zero_id.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "wire/messages.hpp"

namespace rofl::intra {

/// Forwarding loop guard: the most router steps one greedy walk may take.
inline constexpr std::uint32_t kMaxForwardingHops = 100'000;

struct Config {
  /// Successor-group depth (section 2.2 "successor-groups").
  std::size_t successor_group = 4;
  /// Pointer-cache capacity per router, in entries (figure 6a sweeps this).
  std::size_t cache_capacity = 2048;
  /// Cache destination IDs carried by control messages at routers they
  /// traverse (section 3.1).  The paper's runs fill caches only from control
  /// packets.
  bool cache_control_paths = true;
  /// Also snoop data-packet headers into caches at traversed routers -- the
  /// knob the paper explicitly leaves OFF ("we do not snoop on data packet
  /// headers for filling caches", section 6.1); provided for the ablation.
  bool cache_data_paths = false;
  /// Sybil damage control (section 2.1): an AS-level audit cap on the number
  /// of IDs any one router may host.  0 = unlimited.  Joins beyond the cap
  /// are refused at the gateway.
  std::size_t max_resident_ids_per_router = 0;
  /// Retransmission policy for control-plane exchanges (join, pointer
  /// setup, teardown walks, repair) when a FaultInjector makes the network
  /// lossy.  With no injector installed the first attempt always succeeds
  /// and the policy is never consulted.
  sim::RetryPolicy retry;
};

class Network {
 public:
  /// Builds routers (with fresh self-certified identities) over `topo` and
  /// bootstraps the router-ID ring.  `topo` must outlive the network.
  Network(const graph::IspTopology* topo, Config cfg, std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const graph::IspTopology& topology() const { return *topo_; }
  [[nodiscard]] std::size_t router_count() const { return routers_.size(); }
  [[nodiscard]] Router& router(NodeIndex i) { return *routers_[i]; }
  [[nodiscard]] const Router& router(NodeIndex i) const { return *routers_[i]; }
  [[nodiscard]] linkstate::LinkStateMap& map() { return *map_; }
  [[nodiscard]] const linkstate::LinkStateMap& map() const { return *map_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  // -- host lifecycle -------------------------------------------------------
  /// Algorithm 1.  Authenticates `ident` against a fresh nonce, spawns the
  /// virtual node at `gateway` and splices it into the ring.  Ephemeral
  /// hosts only install a backpointer at their predecessor (section 2.2).
  JoinStats join_host(const Identity& ident, NodeIndex gateway,
                      HostClass host_class = HostClass::kStable);

  /// Generates a fresh identity and joins it at a uniformly random gateway.
  JoinStats join_random_host(HostClass host_class = HostClass::kStable);

  /// Joins an ID that is not derived from a per-host key pair -- the hook
  /// behind anycast and multicast, where "an ID can be held by multiple
  /// boxes" (section 2.1).  The caller is responsible for authenticating
  /// group membership (e.g. a shared group key; see ext/anycast).  Group
  /// IDs are not rejoined automatically on router failure.
  JoinStats join_group_id(const NodeId& id, const PublicKey& pub,
                          NodeIndex gateway,
                          HostClass host_class = HostClass::kStable);

  /// Ungraceful host death: session timeout at the gateway, teardowns that
  /// relink the ring around the id, and the directed flood over the
  /// cached-state router set, all charged as teardown traffic.  The id is
  /// taken by value: the departure frees its directory entry before the
  /// teardowns that carry it go out, so a caller may pass a key read out of
  /// directory().
  RepairStats fail_host(NodeId id);

  /// Graceful leave: the same splice-out and directed cache-purge flood as
  /// fail_host, so no router is left holding a pointer to the departed ID.
  RepairStats leave_host(NodeId id);

  // -- failures -------------------------------------------------------------
  /// Router crash: floods the LSA, invalidates caches, relinks the ring
  /// around every ID the router hosted or pointed at, and rejoins the failed
  /// router's resident host IDs at their deterministic failover router
  /// (next live router in index order).
  RepairStats fail_router(NodeIndex r);

  /// Brings a crashed router back with a fresh default vnode.
  RepairStats restore_router(NodeIndex r);

  /// Link failure.  Without a partition only caches are touched; with a
  /// partition each side repairs into its own consistent ring.
  RepairStats fail_link(NodeIndex u, NodeIndex v);
  RepairStats restore_link(NodeIndex u, NodeIndex v);

  /// The zero-ID convergence pass (section 3.2): inspects current
  /// connectivity, tears down pointers that cross dead paths, repairs each
  /// component's ring locally, and -- where components have re-merged at the
  /// network layer -- merges their rings back into one.  Idempotent; returns
  /// the message cost.  fail_link/restore_link call this automatically.
  RepairStats repair_partitions();

  // -- data plane -----------------------------------------------------------
  /// Algorithm 2 forwarding from `src_router` toward flat label `dest`.
  /// Each hop makes one greedy-index descent, which also decides delivery,
  /// and one pointer-cache best match; stretch is not computed here (see
  /// shortest_hops).  With a flight recorder installed, every forwarding
  /// decision is recorded under `trace_id` (0 = allocate a fresh id); the id
  /// used lands in RouteStats::trace_id.
  RouteStats route(NodeIndex src_router, const NodeId& dest,
                   std::uint64_t trace_id = 0);

  // -- observability --------------------------------------------------------
  /// Installs (or removes, with nullptr) the per-packet hop recorder.  The
  /// recorder must outlive the network; it may be shared with other engines
  /// so trace ids stay globally unique.  Forwarding cost when absent is one
  /// null check per decision.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const {
    return recorder_;
  }

  // -- fault injection ------------------------------------------------------
  /// Installs (or removes, with nullptr) the unreliable-network model.  The
  /// injector must outlive its installation and should draw on the same
  /// metrics registry as the simulator so `faults.*` counters land in the
  /// run's snapshot.  With no injector installed every send path reduces to
  /// one null check and behaves exactly as before.
  void set_fault_injector(sim::FaultInjector* injector) { faults_ = injector; }
  [[nodiscard]] sim::FaultInjector* fault_injector() const { return faults_; }

  /// Schedules the plan's link flaps and router crash/restart windows as
  /// simulator events driving fail_link/restore_link and
  /// fail_router/restore_router.  Call once after construction; events fire
  /// as the simulator clock passes their timestamps.  Message-level
  /// conditions (loss/dup/jitter) are NOT handled here -- install the
  /// injector for those.
  void schedule_fault_plan(const sim::FaultPlan& plan);

  /// Pointer-cache effectiveness summed over live routers.
  struct CacheTotals {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;     // capacity-pressure LRU victims
    std::uint64_t stale_drops = 0;   // teardown/invalidate/clear removals
    std::uint64_t entries = 0;
  };
  [[nodiscard]] CacheTotals cache_totals() const;

  // -- oracle & verification (test/bench support; not used by the protocol) -
  /// Live host/router IDs -> hosting router.
  [[nodiscard]] const std::map<NodeId, NodeIndex>& directory() const {
    return directory_;
  }
  [[nodiscard]] std::optional<NodeIndex> hosting_router(const NodeId& id) const;
  /// The stretch oracle: IGP hop count from `src_router` to the router
  /// hosting `dest`, the denominator of RouteStats::stretch.  0 when the
  /// source is down or out of range, `dest` is not live, or no path exists.
  /// route() never asks it; callers that report stretch do.
  [[nodiscard]] std::uint32_t shortest_hops(NodeIndex src_router,
                                            const NodeId& dest) const;

  /// Checks ring invariant 1 of DESIGN.md: within every connected component,
  /// the stable vnodes form one correctly-ordered ring (successor0 of each
  /// vnode is the next live stable ID in its component).  With `strict`,
  /// additionally requires every successor group to hold exactly the next
  /// min(k, n-1) members in order and every predecessor pointer to name the
  /// previous member -- the fully canonical state joins and repair maintain.
  /// On failure, writes a diagnostic to `err`.
  [[nodiscard]] bool verify_rings(std::string* err = nullptr,
                                  bool strict = false) const;

  /// figure 6c: mean routing-state entries per live router.
  [[nodiscard]] double mean_state_entries() const;
  /// Resident-ID state in bits (128-bit IDs), the "hosting state" metric.
  [[nodiscard]] std::uint64_t resident_state_bits() const;

  void reset_traffic_counters();

 private:
  struct Transfer {
    bool ok = false;
    std::uint64_t messages = 0;
    double latency_ms = 0.0;
    /// The IGP path, inclusive endpoints; empty when none existed.
    std::vector<NodeIndex> path;
  };

  /// One control exchange's outcome: the transfer bookkeeping plus the
  /// message as the receiver decoded it off the wire.  State mutation at the
  /// receiving router reads the decoded copy, never the sender's struct --
  /// the wire format is load-bearing, not decorative.
  struct Exchange {
    Transfer t;
    std::optional<wire::msg::ControlMessage> received;
  };

  /// Carries one attempt of `frame` from router a to router b over the IGP
  /// path: the one routine by which a simulated control frame crosses the
  /// network.  Each physical hop is charged wire::hop_packets(frame) packets
  /// and the frame's bytes on `cat`.  With message faults on, the frame
  /// crosses link by link: a link may drop it (ok=false; the hops up to the
  /// drop stay charged), duplicate it (the copy is charged) or delay it, and
  /// each link adds its latency plus jitter as one term.  A frame that
  /// arrives is received through simwire::receive, so one the injector
  /// garbled is rejected (counted on rofl.codec_rejected) and comes back
  /// like a drop.  A missing path comes back with `t.path` empty.
  Exchange carry(NodeIndex a, NodeIndex b, sim::MsgCategory cat,
                 const std::vector<std::uint8_t>& frame);

  /// Encodes `m` once and carries it a->b under simwire::retry with
  /// Config::retry: each lost (or rejected) attempt costs its transmitted
  /// hops plus the current timeout in latency.  Gives up after max_attempts,
  /// at once when no path exists, or before sending when the message cannot
  /// be encoded (counted on rofl.encode_failures).  With no message faults
  /// the one attempt always arrives.
  Exchange reliable_exchange(NodeIndex a, NodeIndex b, sim::MsgCategory cat,
                             const wire::msg::ControlMessage& m);

  /// Propagation delay of the direct link u->v (0 when not adjacent): the
  /// one price of a link's latency.
  [[nodiscard]] double link_latency(NodeIndex u, NodeIndex v) const;

  /// One data packet of `frame_bytes` crossing link u->v: the step the
  /// greedy walk and the ephemeral final leg both take.
  /// Counts the hop, charges one packet per transmitted copy (a duplicate
  /// dies at the next router), and adds the link's latency and then the
  /// injector's jitter to `stats`.  Data is best effort: a returned drop is
  /// final.
  sim::FaultDecision cross_link(NodeIndex u, NodeIndex v,
                                std::size_t frame_bytes, RouteStats& stats);

  /// Administrative up/down flag of edge (u,v), ignoring endpoint node
  /// state; the fail_link/restore_link idempotence guards key off this.
  [[nodiscard]] bool edge_flag_up(NodeIndex u, NodeIndex v) const;

  struct LocateResult {
    bool ok = false;
    NodeIndex pred_router = graph::kInvalidNode;
    NodeId pred_id;
    std::uint64_t messages = 0;
    double latency_ms = 0.0;
    std::vector<NodeIndex> control_path;  // routers the walk traversed
  };

  /// Greedy control-plane walk from `from` toward `target`, terminating at
  /// the router hosting target's current predecessor vnode.
  LocateResult locate_predecessor(NodeIndex from, const NodeId& target,
                                  sim::MsgCategory cat);

  /// Post-authentication join body shared by join_host and join_group_id.
  JoinStats join_id(const NodeId& id, const PublicKey& pub, NodeIndex gateway,
                    HostClass host_class);

  /// Splices `id` (stable) after predecessor vnode `pred`; returns pointer
  /// install cost.  Handles successor-group propagation to the k-1 deeper
  /// predecessors.
  Transfer splice_in(VirtualNode& vn, NodeIndex pred_router,
                     const NodeId& pred_id, sim::MsgCategory cat);

  /// Tops a vnode's successor group back up to k by copying from its first
  /// successor; one exchange when a refresh was needed.  `exclude` filters an
  /// ID that is mid-teardown out of the copied entries.
  std::uint64_t refill_successors(VirtualNode& vn, sim::MsgCategory cat,
                                  const std::optional<NodeId>& exclude =
                                      std::nullopt);

  /// Drops every successor/predecessor pointer in the system that targets a
  /// host unreachable from the pointer owner; returns pointers torn.
  std::uint32_t tear_unreachable_pointers();

  void bootstrap_router_ring();
  /// Live stable vnodes as one canonical ring per connected component, in
  /// component order: what repair_partitions installs and verify_rings
  /// checks.
  [[nodiscard]] std::vector<proto::CanonicalRing> component_rings() const;
  [[nodiscard]] NodeIndex failover_router(NodeIndex failed) const;
  void cache_along_path(const std::vector<NodeIndex>& path, const NodeId& id,
                        NodeIndex host);

  const graph::IspTopology* topo_;
  Config cfg_;
  sim::Simulator sim_;
  obs::FlightRecorder* recorder_ = nullptr;
  sim::FaultInjector* faults_ = nullptr;
  // Protocol-level metric ids in sim_.metrics().
  obs::MetricId joins_id_ = 0;
  obs::MetricId routes_id_ = 0;
  obs::MetricId delivered_id_ = 0;
  obs::MetricId stale_ptrs_id_ = 0;
  obs::MetricId encode_failures_id_ = 0;
  obs::MetricId codec_rejected_id_ = 0;
  // Wire size of a bare data packet / teardown frame, measured from the
  // encoder once at construction; the forwarding hot loop charges bytes
  // without re-encoding per hop.
  std::size_t data_frame_bytes_ = 0;
  std::size_t teardown_frame_bytes_ = 0;
  std::unique_ptr<linkstate::LinkStateMap> map_;
  Rng rng_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::map<NodeId, NodeIndex> directory_;
  // Host identities for rejoin-after-router-failure (keyed by ID).
  std::map<NodeId, Identity> host_identities_;
  std::map<NodeId, HostClass> host_class_;
};

}  // namespace rofl::intra
