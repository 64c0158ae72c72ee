// ring.hpp -- pure ring-geometry decisions shared by every ROFL substrate.
//
// The paper's protocol is a handful of interval predicates over the flat
// label ring (sections 2.2 and 4): who is the predecessor of an id, whether
// a splice between two pointers is still valid, whether a notify may replace
// a predecessor pointer, what a departing node's neighbors must relink to.
// The discrete-event simulator (intra::Network), the sharded engine, and the
// live mesh (net::LiveRouter over proto::Core) all make these decisions --
// and they must make them *identically*, or the cross-substrate equivalence
// contract (same joins, same bytes, same ring) silently decays.
//
// Everything here is a pure function of NodeIds and caller-supplied state
// views: no I/O, no clocks, no RNG, no metrics.  Effects (frames, timers,
// state writes) belong to proto::Core and the drivers; decisions belong
// here.  DESIGN.md section 16 documents the layering.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/node_id.hpp"
#include "wire/messages.hpp"

namespace rofl::proto {

/// True when `pred` owns the arc ending at its successor `succ` that
/// contains `target`: target in (pred, succ] clockwise.  This single
/// predicate terminates the greedy locate walk on every substrate
/// (Algorithm 2's stopping rule) and validates a splice before it happens.
[[nodiscard]] inline bool is_predecessor_of(const NodeId& pred,
                                            const NodeId& target,
                                            const NodeId& succ) {
  return NodeId::in_interval_oc(pred, target, succ);
}

/// Chord-style notify rule: a candidate may replace `self`'s current
/// predecessor pointer only when it is strictly closer (cur_pred, candidate,
/// self) -- or when the pointer is still the fresh-seed self-loop, which
/// accepts anything.  Stale (reordered or delayed) installs therefore can
/// never regress a pointer.
[[nodiscard]] inline bool accept_notify(const NodeId& self,
                                        const NodeId& cur_pred,
                                        const NodeId& candidate) {
  return cur_pred == self || NodeId::in_interval_oo(cur_pred, candidate, self);
}

/// The locally best predecessor candidate for `target` in an ordered map
/// keyed by NodeId: the entry with the smallest nonzero clockwise distance to
/// target (an id is never its own predecessor).  On the ordered keys that is
/// the greatest key strictly below target, wrapping around to the largest
/// key -- one lower_bound, O(log n).  Returns end() when the map is empty or
/// holds only the target itself.
template <class Map>
[[nodiscard]] auto closest_predecessor(Map& ids, const NodeId& target) {
  auto it = ids.lower_bound(target);
  if (it == ids.begin()) it = ids.end();  // nothing below target: wrap
  if (it == ids.begin()) return ids.end();  // empty
  --it;
  return it->first == target ? ids.end() : it;
}

/// One ring neighbor as every substrate names it: an id plus the router
/// (owner / hosting index) it lives at.
struct RingPtr {
  NodeId id;
  std::uint32_t owner = 0;

  friend auto operator<=>(const RingPtr&, const RingPtr&) = default;
};

/// The ring every substrate must converge to: its members sorted by id, each
/// pointing at its neighbors in that order.  A lone member is its own
/// successor and predecessor -- the self-loop proto::Core::seed installs and
/// the one shape every ring rule above accepts.
class CanonicalRing {
 public:
  explicit CanonicalRing(std::vector<RingPtr> members)
      : members_(std::move(members)) {
    std::sort(members_.begin(), members_.end());
  }

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] const RingPtr& operator[](std::size_t i) const {
    return members_[i];
  }
  /// Member i's s-th successor (s >= 1).
  [[nodiscard]] const RingPtr& successor(std::size_t i,
                                         std::size_t s = 1) const {
    return members_[(i + s) % members_.size()];
  }
  [[nodiscard]] const RingPtr& predecessor(std::size_t i) const {
    return successor(i, members_.size() - 1);
  }
  /// Entries in a successor group bounded by k >= 1: the next k members, or
  /// every other member, or the self-loop alone.
  [[nodiscard]] std::size_t group_size(std::size_t k) const {
    return members_.size() == 1 ? 1 : std::min(k, members_.size() - 1);
  }

 private:
  std::vector<RingPtr> members_;
};

/// Builds the JoinReply a predecessor sends when admitting `joiner` between
/// itself and its successor group: the group minus the joiner itself, with
/// the singleton-ring fallback (the predecessor is then also the successor).
/// intra::Network::splice_in and proto::Core's join-request handler both
/// construct their replies here, so a gateway adopts the identical
/// neighborhood no matter which substrate spliced it in.
[[nodiscard]] inline wire::msg::JoinReply make_join_reply(
    const NodeId& pred_id, std::uint32_t pred_owner,
    std::span<const RingPtr> group, const NodeId& joiner) {
  wire::msg::JoinReply reply;
  reply.predecessor = pred_id;
  reply.predecessor_host = pred_owner;
  for (const RingPtr& s : group) {
    if (s.id != joiner) {
      reply.successors.push_back(wire::FingerField{s.id, s.owner});
    }
  }
  if (reply.successors.empty()) {
    reply.successors.push_back(wire::FingerField{pred_id, pred_owner});
  }
  return reply;
}

/// One surviving-boundary relink a clean departure must install: the
/// surviving successor's predecessor pointer and the surviving predecessor's
/// successor pointer both jump over the departing run.
struct LeaveRelink {
  RingPtr succ;  ///< first surviving id clockwise of the departing run
  RingPtr pred;  ///< last surviving id counter-clockwise of the run
};

/// Computes the relinks for a router departing with its whole resident id
/// set at once.  Consecutive resident ids collapse into one run: only the
/// boundaries where a pointer crosses into surviving territory produce a
/// relink.  Returns empty when no survivor exists (the departing router owns
/// the entire ring -- nothing left to repair).
///
/// `Map` is an associative NodeId -> vnode container whose mapped type
/// exposes `pred` / `pred_owner` / `succ` / `succ_owner` (proto::Vnode).
template <class Map>
[[nodiscard]] std::vector<LeaveRelink> compute_leave_relinks(const Map& vnodes) {
  std::vector<LeaveRelink> out;
  for (const auto& [id, v] : vnodes) {
    if (vnodes.contains(v.succ)) continue;  // interior of a departing run
    // `v` ends a run; walk the predecessor chain back through resident ids
    // to the run's other boundary.  Bounded by the resident count -- a fully
    // resident ring re-enters the contains() branch above and never gets
    // here.
    const auto* cur = &v;
    for (std::size_t guard = 0; guard <= vnodes.size(); ++guard) {
      const auto it = vnodes.find(cur->pred);
      if (it == vnodes.end()) break;
      cur = &it->second;
    }
    out.push_back(LeaveRelink{{v.succ, v.succ_owner}, {cur->pred, cur->pred_owner}});
  }
  return out;
}

}  // namespace rofl::proto
