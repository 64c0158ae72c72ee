// pointer_cache.hpp -- bounded per-router cache of source-route pointers.
//
// "Whenever a source route is established, the routers along the path can
// cache the route. ... The pointer-cache of routers is limited in size, and
// precedence is given to pointers [from resident IDs]" (section 2.2).  The
// cache is the knob behind figure 6a: bigger caches shortcut greedy routing
// and cut stretch.  Eviction is LRU; ring pointers owned by virtual nodes
// never live here, so precedence is structural.
//
// Layout (flat datapath, DESIGN.md "Datapath performance"): entries live in
// a slab with stable slot numbers; recency is a doubly-linked list over slot
// numbers (O(1) touch and O(1) unlink, replacing the old tick->id /
// id->tick double-map whose halves could desynchronize); and a sorted
// {id, slot} vector provides the binary-search best_match that per-packet
// forwarding runs.  The list's prev/next links live in their own dense
// array of 8-byte records, parallel to the slab, rather than in the 56-byte
// entries: every cache hit relinks the list, rewriting the links of the hit
// slot and up to three others, and in the dense array those writes share a
// few cache lines instead of loading a slab line per neighbour.  An entry
// still costs 64 bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rofl/types.hpp"

namespace rofl::intra {

struct CacheEntry {
  NodeId id;
  NodeIndex host = graph::kInvalidNode;
  SourceRoute path;  // physical route from the caching router to `host`
  /// LinkStateMap::version() at which `path` was last found fully up, 0 for
  /// never: the memo of the stamped route_valid check.  Insert, refresh and
  /// slot reuse reset it.
  mutable std::uint64_t route_up_at = 0;
};

class PointerCache {
 public:
  explicit PointerCache(std::size_t capacity) : capacity_(capacity) {}

  /// Inserts/refreshes an entry.  Evicts the least-recently-used entry when
  /// full.  A capacity of zero disables the cache entirely.
  void insert(const NodeId& id, NodeIndex host, SourceRoute path);

  /// The cached ID closest to `dest` without overshooting it (the entry
  /// minimising clockwise distance to dest), or nullptr if empty.  Marks the
  /// returned entry as used.
  [[nodiscard]] const CacheEntry* best_match(const NodeId& dest);

  /// Exact lookup without touching LRU state.
  [[nodiscard]] const CacheEntry* find(const NodeId& id) const;

  void erase(const NodeId& id);

  /// Drops every entry whose source route traverses `router` (router
  /// failure, section 2.2 "Recovering").
  void invalidate_through_router(NodeIndex router);

  /// Drops every entry whose source route uses link (u,v) in either
  /// direction (link failure, section 3.2).
  void invalidate_through_link(NodeIndex u, NodeIndex v);

  void clear();

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void set_capacity(std::size_t capacity);

  /// Calls fn(const CacheEntry&) for every entry in ascending ID order.
  template <typename F>
  void for_each(F&& fn) const {
    for (const IndexEntry& ie : index_) fn(slots_[ie.slot]);
  }

  // -- cache-effectiveness accounting (benches) -----------------------------
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  /// Capacity-pressure evictions only (LRU victims); entries dropped by
  /// erase/invalidate/clear are not counted.
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  /// Entries removed because their pointer went stale (erase, the
  /// invalidate_through_* sweeps, clear) -- the complement of evictions().
  [[nodiscard]] std::uint64_t stale_drops() const { return stale_drops_; }

  /// Structural self-check for tests: the sorted index, the slab, and the
  /// LRU list must describe the same entry set, the index must be sorted,
  /// and the link array must be a consistent doubly-linked chain.
  [[nodiscard]] bool invariants_ok() const;

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct LruLink {
    std::uint32_t prev = kNil;  // toward most-recently-used
    std::uint32_t next = kNil;  // toward least-recently-used
  };
  struct IndexEntry {
    NodeId id;
    std::uint32_t slot;
  };

  /// Sorted position of `id` in index_ (first element with key >= id).
  [[nodiscard]] std::size_t index_lower_bound(const NodeId& id) const;
  /// index_ position holding exactly `id`, or index_.size().
  [[nodiscard]] std::size_t index_find(const NodeId& id) const;

  void lru_unlink(std::uint32_t slot);
  void lru_push_front(std::uint32_t slot);
  void touch(std::uint32_t slot);
  void evict_lru();
  void erase_at(std::size_t index_pos);

  std::size_t capacity_;
  std::vector<CacheEntry> slots_;       // slab; slot numbers are stable
  std::vector<LruLink> lru_;            // lru_[s] links slot s; parallel
  std::vector<std::uint32_t> free_slots_;
  std::vector<IndexEntry> index_;       // sorted by id
  std::uint32_t lru_head_ = kNil;       // most recently used
  std::uint32_t lru_tail_ = kNil;       // eviction candidate
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t stale_drops_ = 0;
};

}  // namespace rofl::intra
