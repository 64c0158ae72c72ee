#include "rofl/router.hpp"

#include <algorithm>
#include <cassert>

#include "proto/ring.hpp"

namespace rofl::intra {

Router::Router(NodeIndex index, Identity identity, std::size_t cache_capacity)
    : index_(index), identity_(std::move(identity)), cache_(cache_capacity) {}

VirtualNode* Router::add_vnode(VirtualNode vn) {
  vn.home = index_;
  const NodeId id = vn.id;
  auto [stored, inserted] = vnodes_.try_emplace(id, std::move(vn));
  if (!inserted) return nullptr;
  // Ephemeral hosts never serve as anyone's successor or predecessor
  // (section 2.2), so they stay out of the greedy index entirely; packets
  // for them stop at the predecessor's backpointer.  The count keeps
  // hosts(dest, vn) exact for them.
  if (stored->host_class == HostClass::kEphemeral) {
    ++ephemeral_vnodes_;
  } else {
    index_ptr(id, index_, /*resident=*/true);
    for (const NeighborPtr& s : stored->successors) {
      index_ptr(s.id, s.host, /*resident=*/false);
    }
  }
  return stored;
}

void Router::remove_vnode(const NodeId& id) {
  const VirtualNode* vn = vnodes_.find(id);
  if (vn == nullptr) return;
  if (vn->host_class == HostClass::kEphemeral) --ephemeral_vnodes_;
  vnodes_.erase(id);
  // Full rebuild keeps the resident flag exact even when the removed ID was
  // also some co-resident vnode's successor.
  reindex_vnode(id);
}

VirtualNode* Router::find_vnode(const NodeId& id) { return vnodes_.find(id); }

const VirtualNode* Router::find_vnode(const NodeId& id) const {
  return vnodes_.find(id);
}

void Router::reindex_vnode(const NodeId& id) {
  // Successor sets are small (successor-group size), so rebuild the whole
  // index contribution of this vnode: drop all non-resident refs we can't
  // attribute, which requires a full rebuild of the index.  Cheaper: rebuild
  // from scratch over all vnodes -- still O(resident * group) and only done
  // on ring maintenance, not on forwarding.
  known_ids_.clear();
  known_ptrs_.clear();
  for (const auto& [vid, vn] : vnodes_) {
    if (vn.host_class == HostClass::kEphemeral) continue;
    index_ptr(vid, index_, /*resident=*/true);
    for (const NeighborPtr& s : vn.successors) {
      index_ptr(s.id, s.host, /*resident=*/false);
    }
  }
  (void)id;
}

void Router::add_ephemeral_backpointer(const NodeId& id, NodeIndex gateway) {
  ephemerals_.insert_or_assign(id, gateway);
}

void Router::remove_ephemeral_backpointer(const NodeId& id) {
  ephemerals_.erase(id);
}

std::optional<NodeIndex> Router::ephemeral_gateway(const NodeId& id) const {
  const NodeIndex* gw = ephemerals_.find(id);
  if (gw == nullptr) return std::nullopt;
  return *gw;
}

void Router::eytz_fill(std::size_t& next_sorted, std::size_t k) const {
  if (k >= eytz_ids_.size()) return;
  eytz_fill(next_sorted, 2 * k);
  eytz_ids_[k] = known_ids_[next_sorted];
  eytz_ptrs_[k] = known_ptrs_[next_sorted];
  if (++next_sorted == known_ids_.size()) eytz_last_ = k;
  eytz_fill(next_sorted, 2 * k + 1);
}

void Router::rebuild_eytzinger() const {
  eytz_ids_.resize(known_ids_.size() + 1);
  eytz_ptrs_.resize(known_ids_.size() + 1);
  std::size_t next_sorted = 0;
  eytz_fill(next_sorted, 1);
  eytz_dirty_ = false;
}

std::optional<Candidate> Router::vn_best_match(const NodeId& dest) const {
  const std::size_t n = known_ids_.size();
  if (n == 0) return std::nullopt;
  if (eytz_dirty_) rebuild_eytzinger();
  // Largest indexed ID <= dest, wrapping to the largest overall: the ID
  // with minimal clockwise distance to dest.  Branch-free Eytzinger
  // descent: remember the last node we stepped right past.
  const NodeId* t = eytz_ids_.data();
  std::size_t k = 1;
  std::size_t best = 0;  // eytz index of largest id <= dest; 0 = none yet
  while (k <= n) {
#if defined(__GNUC__) || defined(__clang__)
    // Grandchildren 4k..4k+3 are contiguous: one line of 16-byte NodeIds.
    __builtin_prefetch(t + ((4 * k < n) ? 4 * k : 0));
#endif
    const bool le = !(dest < t[k]);
    best = le ? k : best;
    k = 2 * k + static_cast<std::size_t>(le);
  }
  const std::size_t e = (best == 0) ? eytz_last_ : best;
  return Candidate{t[e], eytz_ptrs_[e].host, eytz_ptrs_[e].resident};
}

bool Router::hosts(const NodeId& dest) const { return vnodes_.contains(dest); }

VirtualNode* Router::predecessor_vnode_of(const NodeId& id) {
  for (auto& [vid, vn] : vnodes_) {
    if (vn.host_class == HostClass::kEphemeral) continue;
    const NeighborPtr* succ = vn.first_successor();
    if (succ == nullptr) continue;
    if (proto::is_predecessor_of(vid, id, succ->id)) return &vn;
  }
  return nullptr;
}

std::size_t Router::state_entries() const {
  std::size_t n = cache_.size();
  for (const auto& [id, vn] : vnodes_) {
    n += 1 + vn.successors.size() + (vn.predecessor.has_value() ? 1 : 0);
  }
  n += ephemerals_.size();
  return n;
}

void Router::index_ptr(const NodeId& id, NodeIndex host, bool resident) {
  const auto it = std::lower_bound(known_ids_.begin(), known_ids_.end(), id);
  const std::size_t pos = static_cast<std::size_t>(it - known_ids_.begin());
  if (it != known_ids_.end() && *it == id) {
    IndexedPtr& p = known_ptrs_[pos];
    if (resident) {
      p.resident = true;
      p.host = host;
      eytz_dirty_ = true;  // the mirror carries values too
    }
    return;
  }
  known_ids_.insert(it, id);
  known_ptrs_.insert(known_ptrs_.begin() + static_cast<std::ptrdiff_t>(pos),
                     IndexedPtr{host, resident});
  eytz_dirty_ = true;  // sorted positions shifted; mirror rebuilt on lookup
}

}  // namespace rofl::intra
