#include "rofl/pointer_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <vector>

namespace rofl::intra {
namespace {

NodeId id(std::uint64_t v) { return NodeId::from_u64(v); }

TEST(PointerCache, InsertAndFind) {
  PointerCache pc(4);
  pc.insert(id(10), 1, {0, 1});
  const CacheEntry* e = pc.find(id(10));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->host, 1u);
  EXPECT_EQ(pc.size(), 1u);
}

TEST(PointerCache, ZeroCapacityDisablesCaching) {
  PointerCache pc(0);
  pc.insert(id(10), 1, {});
  EXPECT_EQ(pc.size(), 0u);
  EXPECT_EQ(pc.best_match(id(10)), nullptr);
}

TEST(PointerCache, BestMatchClosestWithoutOvershoot) {
  PointerCache pc(8);
  pc.insert(id(10), 1, {});
  pc.insert(id(50), 2, {});
  pc.insert(id(90), 3, {});
  // dest 60: closest not past it is 50.
  const CacheEntry* e = pc.best_match(id(60));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->id, id(50));
  // dest 95: 90 wins.
  EXPECT_EQ(pc.best_match(id(95))->id, id(90));
  // exact hit.
  EXPECT_EQ(pc.best_match(id(50))->id, id(50));
}

TEST(PointerCache, BestMatchWrapsRing) {
  PointerCache pc(8);
  pc.insert(id(100), 1, {});
  // dest 5 is "before" all entries; the wrap-around pick is the numerically
  // largest entry (closest clockwise predecessor of 5 on the ring).
  const CacheEntry* e = pc.best_match(id(5));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->id, id(100));
}

TEST(PointerCache, LruEvictionKeepsRecentlyUsed) {
  PointerCache pc(2);
  pc.insert(id(1), 1, {});
  pc.insert(id(2), 2, {});
  // Touch id(1) so id(2) is the LRU.
  (void)pc.best_match(id(1));
  pc.insert(id(3), 3, {});
  EXPECT_NE(pc.find(id(1)), nullptr);
  EXPECT_EQ(pc.find(id(2)), nullptr);
  EXPECT_NE(pc.find(id(3)), nullptr);
}

TEST(PointerCache, ReinsertRefreshesEntry) {
  PointerCache pc(4);
  pc.insert(id(1), 1, {0, 1});
  pc.insert(id(1), 2, {0, 2});
  EXPECT_EQ(pc.size(), 1u);
  EXPECT_EQ(pc.find(id(1))->host, 2u);
}

TEST(PointerCache, RouteStampResetsOnInsertRefreshAndSlotReuse) {
  PointerCache pc(1);
  pc.insert(id(10), 1, {0, 1});
  EXPECT_EQ(pc.find(id(10))->route_up_at, 0u);  // fresh insert: never checked
  pc.find(id(10))->route_up_at = 7;
  pc.insert(id(10), 2, {0, 2});  // refresh: a new route, so a new stamp
  EXPECT_EQ(pc.find(id(10))->route_up_at, 0u);
  pc.find(id(10))->route_up_at = 7;
  pc.insert(id(20), 3, {0, 3});  // evicts 10, freeing its slot
  ASSERT_EQ(pc.find(id(10)), nullptr);
  pc.find(id(20))->route_up_at = 7;
  pc.insert(id(30), 4, {0, 4});  // takes the freed slot, evicts 20
  ASSERT_EQ(pc.find(id(20)), nullptr);
  EXPECT_EQ(pc.find(id(30))->route_up_at, 0u);
  EXPECT_TRUE(pc.invariants_ok());
}

TEST(PointerCache, EraseRemoves) {
  PointerCache pc(4);
  pc.insert(id(1), 1, {});
  pc.erase(id(1));
  EXPECT_EQ(pc.size(), 0u);
  EXPECT_EQ(pc.find(id(1)), nullptr);
  pc.erase(id(1));  // idempotent
}

TEST(PointerCache, InvalidateThroughRouter) {
  PointerCache pc(8);
  pc.insert(id(1), 5, {0, 3, 5});
  pc.insert(id(2), 6, {0, 4, 6});
  pc.invalidate_through_router(3);
  EXPECT_EQ(pc.find(id(1)), nullptr);
  EXPECT_NE(pc.find(id(2)), nullptr);
}

TEST(PointerCache, InvalidateThroughLinkEitherDirection) {
  PointerCache pc(8);
  pc.insert(id(1), 5, {0, 3, 5});
  pc.insert(id(2), 6, {5, 3, 0});  // same link, reversed
  pc.insert(id(3), 7, {0, 4, 7});
  pc.invalidate_through_link(3, 5);
  EXPECT_EQ(pc.find(id(1)), nullptr);
  EXPECT_EQ(pc.find(id(2)), nullptr);
  EXPECT_NE(pc.find(id(3)), nullptr);
}

TEST(PointerCache, ShrinkCapacityEvicts) {
  PointerCache pc(4);
  for (std::uint64_t i = 0; i < 4; ++i) pc.insert(id(i), 1, {});
  pc.set_capacity(2);
  EXPECT_EQ(pc.size(), 2u);
  EXPECT_EQ(pc.capacity(), 2u);
}

TEST(PointerCache, HitMissAccounting) {
  PointerCache pc(4);
  EXPECT_EQ(pc.best_match(id(1)), nullptr);
  EXPECT_EQ(pc.misses(), 1u);
  pc.insert(id(1), 1, {});
  (void)pc.best_match(id(1));
  EXPECT_EQ(pc.hits(), 1u);
}

/// Reference recency model for the hammer below: a std::list of ids, most
/// recently used first, beside an ordered id -> path map.  It follows the
/// cache's documented contract, not its layout.
class LruModel {
 public:
  explicit LruModel(std::size_t capacity) : capacity_(capacity) {}

  void insert(const NodeId& key, const SourceRoute& path) {
    if (capacity_ == 0) return;
    if (entries_.contains(key)) recency_.remove(key);
    entries_[key] = path;
    recency_.push_front(key);
    if (entries_.size() > capacity_) evict();
  }
  std::optional<NodeId> best_match(const NodeId& dest) {
    if (entries_.empty()) {
      ++misses_;
      return std::nullopt;
    }
    auto it = entries_.upper_bound(dest);
    it = it == entries_.begin() ? std::prev(entries_.end()) : std::prev(it);
    ++hits_;
    recency_.remove(it->first);
    recency_.push_front(it->first);
    return it->first;
  }
  void erase(const NodeId& key) {
    if (entries_.erase(key) != 0) recency_.remove(key);
  }
  template <typename Pred>
  void erase_if(Pred dead) {
    std::erase_if(entries_, [&](const auto& kv) { return dead(kv.second); });
    recency_.remove_if([&](const NodeId& k) { return !entries_.contains(k); });
  }
  void clear() {
    entries_.clear();
    recency_.clear();
  }
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (entries_.size() > capacity_) evict();
  }

  [[nodiscard]] std::vector<NodeId> ids() const {
    std::vector<NodeId> out;
    for (const auto& [k, path] : entries_) out.push_back(k);
    return out;
  }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  void evict() {
    entries_.erase(recency_.back());
    recency_.pop_back();
    ++evictions_;
  }

  std::size_t capacity_;
  std::map<NodeId, SourceRoute> entries_;
  std::list<NodeId> recency_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

TEST(PointerCache, LruChainSurvivesInsertTouchEvictHammer) {
  // Regression for the old two-map (tick->id / id->tick) bookkeeping, whose
  // halves could desynchronize: hammer every mutation the cache has and
  // check after each one that the slab, sorted index and LRU link array
  // agree (invariants_ok) and that the entry set, hit/miss counts and every
  // LRU victim match a reference recency list.
  PointerCache pc(16);
  LruModel model(16);
  std::uint64_t x = 42;
  const auto next = [&x] {  // xorshift; deterministic and seedless
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto random_path = [&next] {
    SourceRoute p;
    const std::uint64_t len = 1 + next() % 4;
    for (std::uint64_t i = 0; i < len; ++i) {
      p.push_back(static_cast<NodeIndex>(next() % 8));
    }
    return p;
  };
  const auto cache_ids = [&pc] {
    std::vector<NodeId> out;
    pc.for_each([&out](const CacheEntry& e) { out.push_back(e.id); });
    return out;
  };
  for (int iter = 0; iter < 20000; ++iter) {
    const NodeId key = id(next() % 64);
    const std::uint64_t op = next() % 32;
    if (op < 10) {
      const SourceRoute path = random_path();
      pc.insert(key, static_cast<NodeIndex>(next() % 8), path);
      model.insert(key, path);
    } else if (op < 18) {  // touch
      const CacheEntry* got = pc.best_match(key);
      const std::optional<NodeId> want = model.best_match(key);
      ASSERT_EQ(got == nullptr, !want.has_value()) << "iteration " << iter;
      if (got != nullptr) {
        ASSERT_EQ(got->id, *want) << "iteration " << iter;
      }
    } else if (op < 22) {
      pc.erase(key);
      model.erase(key);
    } else if (op < 25) {  // must not disturb LRU state
      const std::vector<NodeId> ids = model.ids();
      ASSERT_EQ(pc.find(key) != nullptr,
                std::find(ids.begin(), ids.end(), key) != ids.end());
    } else if (op < 27) {  // shrink (or regrow) under load
      const std::size_t cap = std::size_t{1} << (next() % 5);
      pc.set_capacity(cap);
      model.set_capacity(cap);
    } else if (op < 29) {
      const auto r = static_cast<NodeIndex>(next() % 8);
      pc.invalidate_through_router(r);
      model.erase_if([r](const SourceRoute& p) {
        return std::find(p.begin(), p.end(), r) != p.end();
      });
    } else if (op < 31) {
      const auto u = static_cast<NodeIndex>(next() % 8);
      const auto v = static_cast<NodeIndex>(next() % 8);
      pc.invalidate_through_link(u, v);
      model.erase_if([u, v](const SourceRoute& p) {
        for (std::size_t i = 0; i + 1 < p.size(); ++i) {
          if ((p[i] == u && p[i + 1] == v) || (p[i] == v && p[i + 1] == u)) {
            return true;
          }
        }
        return false;
      });
    } else if (next() % 8 == 0) {  // rare: an empty cache tests nothing
      pc.clear();
      model.clear();
    }
    ASSERT_TRUE(pc.invariants_ok()) << "iteration " << iter;
    ASSERT_LE(pc.size(), pc.capacity());
    ASSERT_EQ(cache_ids(), model.ids()) << "iteration " << iter;
    ASSERT_EQ(pc.hits(), model.hits()) << "iteration " << iter;
    ASSERT_EQ(pc.misses(), model.misses()) << "iteration " << iter;
    ASSERT_EQ(pc.evictions(), model.evictions()) << "iteration " << iter;
  }
  // Capacity churn exercises eviction from both full and shrunken states.
  pc.set_capacity(4);
  ASSERT_TRUE(pc.invariants_ok());
  ASSERT_LE(pc.size(), 4u);
  pc.set_capacity(16);
  for (std::uint64_t i = 0; i < 64; ++i) {
    pc.insert(id(1000 + i), 1, {0, 1});
    ASSERT_TRUE(pc.invariants_ok());
  }
  EXPECT_EQ(pc.size(), 16u);
}

TEST(PointerCache, EvictionOrderIsExactLru) {
  PointerCache pc(3);
  pc.insert(id(1), 1, {});
  pc.insert(id(2), 2, {});
  pc.insert(id(3), 3, {});
  // Recency now 3 > 2 > 1.  Touch 1 via exact best_match, then 2: 2 > 1 > 3.
  (void)pc.best_match(id(1));
  (void)pc.best_match(id(2));
  pc.insert(id(4), 4, {});  // evicts 3
  EXPECT_EQ(pc.find(id(3)), nullptr);
  pc.insert(id(5), 5, {});  // evicts 1 (oldest surviving)
  EXPECT_EQ(pc.find(id(1)), nullptr);
  EXPECT_NE(pc.find(id(2)), nullptr);
  EXPECT_NE(pc.find(id(4)), nullptr);
  EXPECT_NE(pc.find(id(5)), nullptr);
  EXPECT_TRUE(pc.invariants_ok());
}

TEST(PointerCache, RefreshDoesNotGrowOrLeakSlots) {
  PointerCache pc(4);
  for (int i = 0; i < 100; ++i) {
    pc.insert(id(7), static_cast<NodeIndex>(i), {0, 1});
    ASSERT_EQ(pc.size(), 1u);
    ASSERT_TRUE(pc.invariants_ok());
  }
  EXPECT_EQ(pc.find(id(7))->host, 99u);
}

TEST(PointerCache, ForEachVisitsAscendingIdOrder) {
  PointerCache pc(8);
  pc.insert(id(30), 1, {});
  pc.insert(id(10), 2, {});
  pc.insert(id(20), 3, {});
  std::vector<NodeId> seen;
  pc.for_each([&](const CacheEntry& e) { seen.push_back(e.id); });
  EXPECT_EQ(seen, (std::vector<NodeId>{id(10), id(20), id(30)}));
}

TEST(PointerCache, ClearEmptiesEverything) {
  PointerCache pc(4);
  pc.insert(id(1), 1, {});
  pc.insert(id(2), 2, {});
  pc.clear();
  EXPECT_EQ(pc.size(), 0u);
  pc.insert(id(3), 3, {});  // still usable
  EXPECT_EQ(pc.size(), 1u);
}

TEST(PointerCache, StaleDropsCountedSeparatelyFromEvictions) {
  // Regression for the accounting split: evictions() counts only LRU
  // capacity victims; every staleness removal (erase, the invalidate
  // sweeps, clear) lands in stale_drops() instead.
  PointerCache pc(2);
  pc.insert(id(1), 1, {0, 1});
  pc.insert(id(2), 2, {0, 2});
  pc.erase(id(1));
  EXPECT_EQ(pc.stale_drops(), 1u);
  EXPECT_EQ(pc.evictions(), 0u);
  pc.erase(id(99));  // absent: no count
  EXPECT_EQ(pc.stale_drops(), 1u);

  // Capacity pressure: pure eviction, no stale drop.
  pc.insert(id(3), 3, {0, 3});
  pc.insert(id(4), 4, {0, 4});
  EXPECT_EQ(pc.evictions(), 1u);
  EXPECT_EQ(pc.stale_drops(), 1u);

  // Invalidation sweeps route through erase and count as stale drops.
  pc.invalidate_through_router(3);  // kills id(3)'s route {0, 3}
  EXPECT_EQ(pc.stale_drops(), 2u);
  pc.invalidate_through_link(0, 4);  // kills id(4)'s route {0, 4}
  EXPECT_EQ(pc.stale_drops(), 3u);
  EXPECT_EQ(pc.evictions(), 1u);

  pc.insert(id(5), 5, {});
  pc.insert(id(6), 6, {});
  pc.clear();
  EXPECT_EQ(pc.stale_drops(), 5u);
  EXPECT_EQ(pc.evictions(), 1u);
  EXPECT_TRUE(pc.invariants_ok());
}

}  // namespace
}  // namespace rofl::intra
