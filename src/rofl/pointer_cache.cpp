#include "rofl/pointer_cache.hpp"

#include <algorithm>

#include "util/branchless_search.hpp"

namespace rofl::intra {

std::size_t PointerCache::index_lower_bound(const NodeId& id) const {
  return util::lower_bound_index(
      index_.data(), index_.size(), id,
      [](const IndexEntry& e, const NodeId& key) { return e.id < key; });
}

std::size_t PointerCache::index_find(const NodeId& id) const {
  const std::size_t pos = index_lower_bound(id);
  if (pos < index_.size() && index_[pos].id == id) return pos;
  return index_.size();
}

void PointerCache::lru_unlink(std::uint32_t slot) {
  LruLink& l = lru_[slot];
  if (l.prev != kNil) {
    lru_[l.prev].next = l.next;
  } else {
    lru_head_ = l.next;
  }
  if (l.next != kNil) {
    lru_[l.next].prev = l.prev;
  } else {
    lru_tail_ = l.prev;
  }
  l = LruLink{};
}

void PointerCache::lru_push_front(std::uint32_t slot) {
  lru_[slot] = LruLink{kNil, lru_head_};
  if (lru_head_ != kNil) lru_[lru_head_].prev = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNil) lru_tail_ = slot;
}

void PointerCache::touch(std::uint32_t slot) {
  if (lru_head_ == slot) return;
  lru_unlink(slot);
  lru_push_front(slot);
}

void PointerCache::insert(const NodeId& id, NodeIndex host, SourceRoute path) {
  if (capacity_ == 0) return;
  const std::size_t pos = index_lower_bound(id);
  if (pos < index_.size() && index_[pos].id == id) {
    // Refresh in place.
    const std::uint32_t slot = index_[pos].slot;
    slots_[slot].host = host;
    slots_[slot].path = std::move(path);
    slots_[slot].route_up_at = 0;
    touch(slot);
    return;
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    lru_.emplace_back();
  }
  slots_[slot] = CacheEntry{id, host, std::move(path)};
  index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(pos),
                IndexEntry{id, slot});
  lru_push_front(slot);
  if (index_.size() > capacity_) evict_lru();
}

const CacheEntry* PointerCache::best_match(const NodeId& dest) {
  if (index_.empty()) {
    ++misses_;
    return nullptr;
  }
  // Largest key <= dest in ring order == minimal clockwise distance to dest.
  std::size_t pos = index_lower_bound(dest);
  if (pos < index_.size() && index_[pos].id == dest) {
    // exact hit: dest itself
  } else if (pos == 0) {
    pos = index_.size() - 1;  // wrap to the numerically largest entry
  } else {
    --pos;
  }
  ++hits_;
  const std::uint32_t slot = index_[pos].slot;
  touch(slot);
  return &slots_[slot];
}

const CacheEntry* PointerCache::find(const NodeId& id) const {
  const std::size_t pos = index_find(id);
  if (pos == index_.size()) return nullptr;
  return &slots_[index_[pos].slot];
}

void PointerCache::erase_at(std::size_t index_pos) {
  const std::uint32_t slot = index_[index_pos].slot;
  lru_unlink(slot);
  slots_[slot] = CacheEntry{};  // release the path's heap buffer
  free_slots_.push_back(slot);
  index_.erase(index_.begin() + static_cast<std::ptrdiff_t>(index_pos));
}

void PointerCache::erase(const NodeId& id) {
  const std::size_t pos = index_find(id);
  if (pos == index_.size()) return;
  erase_at(pos);
  ++stale_drops_;  // staleness removal, never an LRU eviction
}

void PointerCache::evict_lru() {
  if (lru_tail_ == kNil) return;
  const std::uint32_t victim = lru_tail_;
  const std::size_t pos = index_find(slots_[victim].id);
  erase_at(pos);
  ++evictions_;
}

void PointerCache::invalidate_through_router(NodeIndex router) {
  std::vector<NodeId> dead;
  for (const IndexEntry& ie : index_) {
    const SourceRoute& p = slots_[ie.slot].path;
    if (std::find(p.begin(), p.end(), router) != p.end()) {
      dead.push_back(ie.id);
    }
  }
  for (const NodeId& id : dead) erase(id);
}

void PointerCache::invalidate_through_link(NodeIndex u, NodeIndex v) {
  std::vector<NodeId> dead;
  for (const IndexEntry& ie : index_) {
    const SourceRoute& p = slots_[ie.slot].path;
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      if ((p[i] == u && p[i + 1] == v) || (p[i] == v && p[i + 1] == u)) {
        dead.push_back(ie.id);
        break;
      }
    }
  }
  for (const NodeId& id : dead) erase(id);
}

void PointerCache::clear() {
  stale_drops_ += index_.size();
  slots_.clear();
  lru_.clear();
  free_slots_.clear();
  index_.clear();
  lru_head_ = kNil;
  lru_tail_ = kNil;
}

void PointerCache::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  while (index_.size() > capacity_) evict_lru();
}

bool PointerCache::invariants_ok() const {
  // Index sorted strictly ascending, slots in range, ids match slab.
  for (std::size_t i = 0; i < index_.size(); ++i) {
    if (i > 0 && !(index_[i - 1].id < index_[i].id)) return false;
    if (index_[i].slot >= slots_.size()) return false;
    if (slots_[index_[i].slot].id != index_[i].id) return false;
  }
  // LRU chain over the link array: one record per slab slot, consistent
  // back-links, visits exactly the indexed slots.
  if (lru_.size() != slots_.size()) return false;
  std::vector<bool> indexed(slots_.size(), false);
  for (const IndexEntry& ie : index_) indexed[ie.slot] = true;
  std::size_t walked = 0;
  std::uint32_t prev = kNil;
  for (std::uint32_t cur = lru_head_; cur != kNil; cur = lru_[cur].next) {
    if (cur >= lru_.size() || !indexed[cur]) return false;
    if (lru_[cur].prev != prev) return false;
    prev = cur;
    if (++walked > index_.size()) return false;  // cycle
  }
  if (walked != index_.size()) return false;
  if (lru_tail_ != prev) return false;
  // Free slots disjoint from indexed slots; everything accounted for.
  std::size_t free_count = 0;
  for (const std::uint32_t s : free_slots_) {
    if (s >= slots_.size() || indexed[s]) return false;
    ++free_count;
  }
  return index_.size() + free_count == slots_.size();
}

}  // namespace rofl::intra
