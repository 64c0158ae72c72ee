// router.hpp -- a ROFL hosting router (sections 2.2, 3).
//
// Each router owns: its self-certified identity (held by a "default" virtual
// node whose successors double as default routes), a virtual node per
// resident host ID, backpointer state for ephemeral hosts, and a bounded
// pointer cache.  The router keeps a sorted index of every ID it can make
// greedy progress toward (resident IDs plus all their successors); Algorithm
// 2's VN.best_match is a lookup in that index.  Every non-ephemeral resident
// ID is in the index and flagged resident, so the same lookup answers
// "is dest hosted here?": hosts(dest, vn_best_match(dest)) equals
// hosts(dest), and reads the vnode table only on a router that holds
// ephemeral vnodes (which stay out of the index).
//
// All per-router tables are flat sorted vectors (util::FlatMap and a
// struct-of-arrays greedy index) rather than red-black trees: the
// per-packet operations -- vn_best_match(), ephemeral_gateway() -- are
// searches over contiguous keys, while the O(n) insertion
// memmove only runs on ring maintenance.  Mutating the vnode table
// (add/remove_vnode) invalidates VirtualNode pointers previously returned
// by find_vnode/add_vnode, like any vector.
#pragma once

#include <array>
#include <optional>
#include <utility>

#include "rofl/pointer_cache.hpp"
#include "rofl/types.hpp"
#include "util/flat_map.hpp"

namespace rofl::intra {

/// A candidate next pointer for greedy forwarding.
struct Candidate {
  NodeId id;                          // the ID we'd be making progress toward
  NodeIndex host = graph::kInvalidNode;  // router currently hosting it
  bool resident = false;              // true if hosted here
};

/// Algorithm 2's choice at one router: VN.best_match and the best usable
/// cached pointer, closest to the target first.  Two fixed slots, so a
/// forwarding decision allocates nothing.  On a distance tie (both name the
/// same ID) the VN candidate stays first.
class CandidatePair {
 public:
  struct Entry {
    Candidate c;
    bool from_cache = false;
  };

  CandidatePair(const NodeId& target, const std::optional<Candidate>& vn,
                const std::optional<Candidate>& cached) {
    if (vn.has_value()) slots_[size_++] = Entry{*vn, false};
    if (cached.has_value()) slots_[size_++] = Entry{*cached, true};
    if (size_ == 2 &&
        NodeId::closer_to(target, slots_[1].c.id, slots_[0].c.id)) {
      std::swap(slots_[0], slots_[1]);
    }
  }

  [[nodiscard]] const Entry* begin() const { return slots_.data(); }
  [[nodiscard]] const Entry* end() const { return slots_.data() + size_; }

 private:
  std::array<Entry, 2> slots_{};
  std::size_t size_ = 0;
};

class Router {
 public:
  using VnodeTable = util::FlatMap<NodeId, VirtualNode>;
  using EphemeralTable = util::FlatMap<NodeId, NodeIndex>;

  Router(NodeIndex index, Identity identity, std::size_t cache_capacity);

  [[nodiscard]] NodeIndex index() const { return index_; }
  [[nodiscard]] NodeId router_id() const { return identity_.id(); }
  [[nodiscard]] const Identity& identity() const { return identity_; }

  // -- virtual nodes --------------------------------------------------------
  /// Registers a vnode (Algorithm 1, register_virtual_node).  Returns the
  /// stored node.  Fails (nullptr) if the ID is already resident.
  VirtualNode* add_vnode(VirtualNode vn);
  void remove_vnode(const NodeId& id);
  [[nodiscard]] VirtualNode* find_vnode(const NodeId& id);
  [[nodiscard]] const VirtualNode* find_vnode(const NodeId& id) const;
  [[nodiscard]] const VnodeTable& vnodes() const { return vnodes_; }
  [[nodiscard]] std::size_t resident_count() const { return vnodes_.size(); }

  /// Re-indexes a vnode's successor set after the caller mutated it.
  void reindex_vnode(const NodeId& id);

  // -- ephemeral backpointers (section 2.2, "Ephemeral hosts") --------------
  /// Called on the *predecessor's* router: remembers that ephemeral `id`
  /// currently hangs off `gateway`.
  void add_ephemeral_backpointer(const NodeId& id, NodeIndex gateway);
  void remove_ephemeral_backpointer(const NodeId& id);
  [[nodiscard]] std::optional<NodeIndex> ephemeral_gateway(const NodeId& id) const;
  [[nodiscard]] const EphemeralTable& ephemeral_backpointers() const {
    return ephemerals_;
  }

  // -- Algorithm 2 ----------------------------------------------------------
  /// VN.best_match: the closest ID to `dest` (clockwise, not past it) among
  /// resident IDs and their successors.  nullopt when the router has no
  /// vnode state at all.
  [[nodiscard]] std::optional<Candidate> vn_best_match(const NodeId& dest) const;

  /// True if `dest` is a resident (non-default) ID or the router's own ID.
  [[nodiscard]] bool hosts(const NodeId& dest) const;
  /// hosts(dest) from `vn`, this router's vn_best_match(dest): the descent
  /// lands on dest itself, flagged resident, exactly when a non-ephemeral
  /// vnode holds it.  Only a router holding ephemeral vnodes also searches
  /// the vnode table.  Route() uses this, one descent per hop.
  [[nodiscard]] bool hosts(const NodeId& dest,
                           const std::optional<Candidate>& vn) const {
    if (vn.has_value() && vn->resident && vn->id == dest) return true;
    return ephemeral_vnodes_ != 0 && hosts(dest);
  }

  /// Finds the resident vnode that is `id`'s predecessor, i.e. a vnode v
  /// with id in (v.id, v.successor0.id].  Used to terminate join routing.
  [[nodiscard]] VirtualNode* predecessor_vnode_of(const NodeId& id);

  PointerCache& cache() { return cache_; }
  const PointerCache& cache() const { return cache_; }

  /// Total routing-table entries held (resident vnode pointers + cache):
  /// the figure 6c memory metric.
  [[nodiscard]] std::size_t state_entries() const;

  // -- load accounting (figure 6b) ------------------------------------------
  void count_traversal() { ++traversals_; }
  [[nodiscard]] std::uint64_t traversals() const { return traversals_; }
  void reset_traversals() { traversals_ = 0; }

 private:
  void index_ptr(const NodeId& id, NodeIndex host, bool resident);

  NodeIndex index_;
  Identity identity_;
  VnodeTable vnodes_;
  std::size_t ephemeral_vnodes_ = 0;  // resident vnodes of class kEphemeral
  EphemeralTable ephemerals_;
  PointerCache cache_;
  std::uint64_t traversals_ = 0;

  // Greedy index over {resident IDs} U {their successors}, kept sorted by
  // ID.  Struct-of-arrays: mutation edits the sorted key and value lanes;
  // vn_best_match reads only the Eytzinger mirror below.
  struct IndexedPtr {
    NodeIndex host;
    bool resident;
  };
  std::vector<NodeId> known_ids_;
  std::vector<IndexedPtr> known_ptrs_;

  // Eytzinger (BFS-order) mirror of the index, rebuilt lazily on the first
  // lookup after a mutation (a new ID, or a successor ID turning resident):
  // node k's children sit at 2k/2k+1, so each probe level shares cache lines
  // and the next level can be prefetched while the current compare retires.
  // eytz_ptrs_[k] carries node k's host and resident flag, so the descent
  // answers from the node it stopped at, with one more load, rather than
  // mapping back into the sorted lanes.  Lazy rebuild mutates these under a
  // const lookup; Router lookups are not thread-safe (routers are
  // per-simulation objects, never shared).
  void rebuild_eytzinger() const;
  void eytz_fill(std::size_t& next_sorted, std::size_t k) const;
  mutable std::vector<NodeId> eytz_ids_;       // 1-indexed; [0] unused
  mutable std::vector<IndexedPtr> eytz_ptrs_;  // parallel to eytz_ids_
  mutable std::size_t eytz_last_ = 0;          // node of the largest ID
  mutable bool eytz_dirty_ = false;
};

}  // namespace rofl::intra
