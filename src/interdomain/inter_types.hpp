// inter_types.hpp -- vocabulary of the interdomain ROFL protocol (sections
// 2.3 and 4).
//
// Following the paper's own simulation methodology, each AS is modeled as a
// single node: hosted IDs live "in an AS" and pointers carry AS-level source
// routes.  The routing state per hosted ID mirrors figure 3 -- an internal
// successor plus one external successor per level of the up-hierarchy, with
// redundant levels pruned -- plus optional proximity fingers (section 4.1).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "graph/as_topology.hpp"
#include "sim/faults.hpp"
#include "util/identity.hpp"
#include "util/node_id.hpp"

namespace rofl::inter {

using graph::AsIndex;

/// An AS-level source route: the sequence of ASes a pointer's traffic
/// traverses, climbing provider links to the anchor and descending customer
/// links to the target (valley-free by construction).  Virtual peering ASes
/// may appear inside; they are transparent (a hop through one is the peering
/// link itself).
using AsRoute = std::vector<AsIndex>;

/// One successor pointer at a given level of the hierarchy (figure 3).
struct LevelPointer {
  AsIndex anchor = graph::kInvalidAs;  // subtree root this level merges under
  unsigned level = 0;                  // anchor's level in the owner's G_X
  NodeId target;                       // the successor ID at this level
  AsIndex target_home = graph::kInvalidAs;
  AsRoute route;                       // owner's AS .. anchor .. target's AS
};

/// A proximity finger-table entry (prefix-based, section 4.1): `target`
/// matches the owner on `prefix_len` bits and differs in the next digit;
/// among all such IDs it is reachable with the fewest up-links.
struct Finger {
  unsigned prefix_len = 0;
  std::uint64_t digit = 0;
  NodeId target;
  AsIndex target_home = graph::kInvalidAs;
  AsIndex anchor = graph::kInvalidAs;  // route peak (lowest common ancestor)
  unsigned up_links = 0;  // levels climbed to reach it (proximity metric)
  AsRoute route;
};

/// Joining strategies compared in figure 8a.
enum class JoinStrategy : std::uint8_t {
  kEphemeral,            // global successor only
  kSingleHomed,          // one path toward the core
  kRecursiveMultihomed,  // all ASes in the up-hierarchy
  kPeering,              // multihomed + joins across peering links
};

/// Peering design options of section 4.2.
enum class PeeringMode : std::uint8_t {
  kVirtualAs,  // conversion rule of figure 4a
  kBloom,      // peer-subtree bloom filters with backtracking
};

/// Routing state for one ID hosted in an AS.
struct InterVNode {
  NodeId id;
  AsIndex home = graph::kInvalidAs;
  JoinStrategy strategy = JoinStrategy::kRecursiveMultihomed;
  /// For single-homed joins: the forced first-hop provider (multi-address
  /// multihoming / TE suffixes, sections 4.2 and 5.1).  Unset = default
  /// deterministic choice.
  std::optional<AsIndex> via_provider;
  /// Set while a provider hosts this ID as a virtual server for a customer
  /// outage (section 4.1): names the customer AS the ID belongs to.  The
  /// anchor set stays pinned to the customer's hierarchy so the rings never
  /// churn through the outage.
  std::optional<AsIndex> virtual_server_for;
  /// The anchor set this ID joined, ascending by level (home AS first for
  /// non-ephemeral strategies).
  std::vector<std::pair<AsIndex, unsigned>> anchors;
  /// Internal + external successors, ordered by ascending level; redundant
  /// levels (same target as a lower level) are pruned per Algorithm 3.
  std::vector<LevelPointer> successors;
  std::vector<Finger> fingers;
  /// "For correctness purposes, each ID also maintains a list of IDs that
  /// are pointing to it" (section 4.1): the finger owners to notify when
  /// this ID departs, so no stale finger survives a teardown.
  std::set<NodeId> finger_back_refs;
};

struct InterJoinStats {
  bool ok = false;
  std::uint64_t messages = 0;  // AS-level packets, as figure 8a counts them
  std::uint64_t bytes = 0;     // wire bytes of those packets (encoder-sized)
};

struct InterRouteStats {
  bool delivered = false;
  std::uint32_t as_hops = 0;       // physical AS-level hops traversed
  std::uint32_t segments = 0;      // pointer hops taken
  std::uint32_t bgp_hops = 0;      // valley-free BGP baseline for the pair
  bool isolation_held = true;      // stayed within subtree(LCA(src,dst))
  std::uint32_t peer_links_used = 0;
  std::uint32_t backtracks = 0;    // bloom false-positive reversals
  /// Flight-recorder id (0 when no recorder installed); when the caller
  /// passes the id from an intradomain RouteStats the whole flight shares
  /// one trace.
  std::uint64_t trace_id = 0;

  [[nodiscard]] double stretch() const {
    if (!delivered || bgp_hops == 0) return 0.0;
    return static_cast<double>(as_hops) / static_cast<double>(bgp_hops);
  }
};

struct InterRepairStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;  // wire bytes of those messages (encoder-sized)
  std::uint32_t pointers_torn = 0;
  std::uint32_t ids_lost = 0;
};

struct InterConfig {
  /// Proximity-finger budget per hosted ID (figure 8b sweeps 60/160/280;
  /// 0 disables fingers).
  std::size_t fingers_per_id = 0;
  /// Digit width of the prefix finger table (b of section 4.1).
  unsigned finger_digit_bits = 2;
  PeeringMode peering_mode = PeeringMode::kVirtualAs;
  /// Bloom geometry for peering mode kBloom and for subtree summaries.
  std::size_t bloom_bits = 1u << 18;
  unsigned bloom_hashes = 4;
  /// Per-AS pointer-cache capacity in entries (figure 8c; 0 = off, the
  /// paper's default outside that experiment).
  std::size_t cache_capacity_per_as = 0;
  /// Eliminate redundant per-level lookups that resolve to the same
  /// successor (the optimization called out in section 6.3).
  bool prune_redundant_lookups = true;
  /// Retransmission policy for control-plane exchanges (ring-merge join
  /// levels, re-anchor registrations) when a fault injector is installed.
  sim::RetryPolicy retry;
};

}  // namespace rofl::inter
