// test_proto.cpp -- the sans-I/O protocol layer in isolation.
//
// Two levels.  First the pure ring decisions in proto/ring.hpp -- interval
// predicates, predecessor selection, join-reply construction, departure
// relinks -- exercised as plain functions, including the wraparound and
// degenerate-ring corners that are hard to hit reliably through a full mesh.
// Second, proto::Core driven by a test Env over an in-memory frame bus: two
// cores exchanging encoded frames on a virtual clock, with no transport, no
// threads, and no LiveRouter -- the proof that the state machine alone
// carries joins, lookups, and clean departure.

#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "net/mesh.hpp"
#include "obs/metrics.hpp"
#include "proto/core.hpp"
#include "proto/env.hpp"
#include "proto/ring.hpp"
#include "util/identity.hpp"
#include "util/rng.hpp"
#include "wire/messages.hpp"

namespace rofl::proto {
namespace {

NodeId id64(std::uint64_t v) { return NodeId::from_u64(v); }

// ---------------------------------------------------------------- ring.hpp

TEST(Ring, IsPredecessorOf) {
  // target in (pred, succ], clockwise.
  EXPECT_TRUE(is_predecessor_of(id64(10), id64(15), id64(20)));
  EXPECT_TRUE(is_predecessor_of(id64(10), id64(20), id64(20)));  // closed top
  EXPECT_FALSE(is_predecessor_of(id64(10), id64(10), id64(20)));  // open bottom
  EXPECT_FALSE(is_predecessor_of(id64(10), id64(25), id64(20)));
  // Wraparound arc.
  EXPECT_TRUE(is_predecessor_of(id64(900), id64(5), id64(10)));
  EXPECT_FALSE(is_predecessor_of(id64(900), id64(500), id64(10)));
  // Self-loop (a, a]: the one-node ring owns the whole circle.
  EXPECT_TRUE(is_predecessor_of(id64(7), id64(123), id64(7)));
}

TEST(Ring, AcceptNotify) {
  // Fresh seed self-loop accepts any candidate.
  EXPECT_TRUE(accept_notify(id64(50), id64(50), id64(10)));
  // Strictly closer in (cur_pred, self) wins...
  EXPECT_TRUE(accept_notify(id64(50), id64(10), id64(40)));
  // ...equal or farther does not: stale installs can never regress.
  EXPECT_FALSE(accept_notify(id64(50), id64(40), id64(40)));
  EXPECT_FALSE(accept_notify(id64(50), id64(40), id64(10)));
  // The candidate may not be self.
  EXPECT_FALSE(accept_notify(id64(50), id64(40), id64(50)));
}

/// Brute-force reference for closest_predecessor: scan every id for the
/// smallest nonzero clockwise distance to the target.  Returns nullopt when
/// the only id present is the target itself (or there are none).
std::optional<NodeId> brute_closest_predecessor(const std::vector<NodeId>& ids,
                                                const NodeId& target) {
  std::optional<NodeId> best;
  NodeId best_d;
  for (const NodeId& id : ids) {
    if (id == target) continue;
    const NodeId d = NodeId::distance_cw(id, target);
    if (!best.has_value() || d < best_d) {
      best = id;
      best_d = d;
    }
  }
  return best;
}

std::map<NodeId, int> as_map(const std::vector<NodeId>& ids) {
  std::map<NodeId, int> m;
  for (const NodeId& id : ids) m.emplace(id, 0);
  return m;
}

/// closest_predecessor over an ordered map, as an optional id.
std::optional<NodeId> map_closest_predecessor(const std::map<NodeId, int>& m,
                                              const NodeId& target) {
  const auto it = closest_predecessor(m, target);
  if (it == m.end()) return std::nullopt;
  return it->first;
}

TEST(Ring, ClosestPredecessor) {
  // Each case runs through the ordered-map lookup and the brute-force scan.
  struct Case {
    std::vector<NodeId> ids;
    NodeId target;
    std::optional<NodeId> want;
  };
  const std::vector<NodeId> ids = {id64(10), id64(30), id64(70)};
  const std::vector<Case> cases = {
      // Largest id at-or-below the target wins (smallest nonzero cw
      // distance).
      {ids, id64(50), id64(30)},
      // A resident target is never its own predecessor.
      {ids, id64(30), id64(10)},
      // Wraparound: below the smallest id, the largest is the predecessor.
      {ids, id64(5), id64(70)},
      // Above the largest id, the largest is the predecessor.
      {ids, id64(900), id64(70)},
      // Empty ring and only-the-target both have no predecessor.
      {{}, id64(1), std::nullopt},
      {{id64(5)}, id64(5), std::nullopt},
      // A lone id is everyone else's predecessor.
      {{id64(5)}, id64(3), id64(5)},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(map_closest_predecessor(as_map(c.ids), c.target), c.want)
        << "target " << c.target;
    EXPECT_EQ(brute_closest_predecessor(c.ids, c.target), c.want)
        << "target " << c.target;
  }
}

TEST(Ring, ClosestPredecessorMatchesBruteForce) {
  // Random rings of 1-2000 full-width ids.  Targets: every kind of random
  // point, resident ids, and the points just below the smallest and just
  // above the largest id (the wraparound edges).
  Rng rng(1729);
  const auto random_id = [&rng] {
    return NodeId(rng.next_u64(), rng.next_u64());
  };
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.index(trial < 20 ? 8 : 2000);
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) ids.push_back(random_id());
    const std::map<NodeId, int> ring = as_map(ids);
    const auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
    std::vector<NodeId> targets = {lo->minus(id64(1)), *lo, *hi,
                                   hi->plus(id64(1))};
    for (int k = 0; k < 20; ++k) {
      targets.push_back(random_id());
      targets.push_back(ids[rng.index(ids.size())]);
    }
    for (const NodeId& t : targets) {
      ASSERT_EQ(map_closest_predecessor(ring, t),
                brute_closest_predecessor(ids, t))
          << "trial " << trial << " n " << n << " target " << t;
    }
  }
}

TEST(Ring, MakeJoinReplyFiltersJoinerWithSingletonFallback) {
  const std::vector<RingPtr> group = {{id64(20), 2}, {id64(30), 3}};
  wire::msg::JoinReply r =
      make_join_reply(id64(10), 1, std::span(group.data(), group.size()),
                      id64(20));
  EXPECT_EQ(r.predecessor, id64(10));
  EXPECT_EQ(r.predecessor_host, 1u);
  ASSERT_EQ(r.successors.size(), 1u);
  EXPECT_EQ(r.successors[0].target, id64(30));
  EXPECT_EQ(r.successors[0].home_as, 3u);

  // Whole group filtered away -> the predecessor doubles as successor.
  const std::vector<RingPtr> only_joiner = {{id64(20), 2}};
  r = make_join_reply(id64(10), 1,
                      std::span(only_joiner.data(), only_joiner.size()),
                      id64(20));
  ASSERT_EQ(r.successors.size(), 1u);
  EXPECT_EQ(r.successors[0].target, id64(10));
  EXPECT_EQ(r.successors[0].home_as, 1u);
}

std::map<NodeId, Vnode> make_vnodes(
    std::initializer_list<std::tuple<std::uint64_t, std::uint64_t,
                                     std::uint32_t, std::uint64_t,
                                     std::uint32_t>>
        rows) {
  // (id, succ, succ_owner, pred, pred_owner)
  std::map<NodeId, Vnode> m;
  for (const auto& [id, s, so, p, po] : rows) {
    Vnode v;
    v.id = id64(id);
    v.succ = id64(s);
    v.succ_owner = so;
    v.pred = id64(p);
    v.pred_owner = po;
    m[v.id] = v;
  }
  return m;
}

TEST(Ring, LeaveRelinksCollapseResidentRuns) {
  // Ring 10 20 30 40 50; departing router owns the run {20, 30} and the
  // singleton {50}; ids 10 and 40 survive on router 1.
  const auto vnodes = make_vnodes({{20, 30, 9, 10, 1},
                                   {30, 40, 1, 20, 9},
                                   {50, 10, 1, 40, 1}});
  const std::vector<LeaveRelink> relinks = compute_leave_relinks(vnodes);
  ASSERT_EQ(relinks.size(), 2u);
  // One relink per run: {20,30} bridges 10 -> 40, {50} bridges 40 -> 10.
  // Map order puts the run ending at 30 first.
  EXPECT_EQ(relinks[0].succ.id, id64(40));
  EXPECT_EQ(relinks[0].succ.owner, 1u);
  EXPECT_EQ(relinks[0].pred.id, id64(10));
  EXPECT_EQ(relinks[0].pred.owner, 1u);
  EXPECT_EQ(relinks[1].succ.id, id64(10));
  EXPECT_EQ(relinks[1].pred.id, id64(40));
}

TEST(Ring, LeaveRelinksEmptyWhenWholeRingResident) {
  const auto vnodes = make_vnodes({{10, 20, 9, 20, 9}, {20, 10, 9, 10, 9}});
  EXPECT_TRUE(compute_leave_relinks(vnodes).empty());
  EXPECT_TRUE(compute_leave_relinks(std::map<NodeId, Vnode>{}).empty());
}

// --------------------------------------------------------- proto::Core bus

struct BusFrame {
  RouterId dst;
  std::vector<std::uint8_t> bytes;
};

/// The narrowest possible driver: frames go onto a shared vector, retries
/// are tallied, metrics live in a per-core registry.  No clock, no sockets.
class TestEnv final : public Env {
 public:
  explicit TestEnv(std::vector<BusFrame>* bus) : bus_(bus) {}
  void send(RouterId dst, std::vector<std::uint8_t> frame,
            double /*now_ms*/) override {
    bus_->push_back(BusFrame{dst, std::move(frame)});
  }
  obs::Registry& metrics() override { return reg_; }
  void note_retry() override { ++retries; }
  void note_retry_exhausted() override { ++exhausted; }

  obs::Registry reg_;
  std::uint64_t retries = 0;
  std::uint64_t exhausted = 0;

 private:
  std::vector<BusFrame>* bus_;
};

struct MiniMesh {
  explicit MiniMesh(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      envs.push_back(std::make_unique<TestEnv>(&bus));
      CoreConfig cc;
      cc.self = i;
      cc.bootstrap = 0;
      cc.fingers = 0;
      cores.push_back(std::make_unique<Core>(cc, *envs[i]));
    }
  }

  [[nodiscard]] bool all_quiescent() const {
    for (const auto& c : cores) {
      if (!c->quiescent()) return false;
    }
    return true;
  }

  /// Instant delivery on a 0.25 ms virtual clock, losing every frame `drop`
  /// picks (none when unset); returns true on quiescence before `limit_ms`.
  bool run(double limit_ms = 10'000.0) {
    while (now < limit_ms) {
      std::vector<BusFrame> pending;
      pending.swap(bus);
      for (BusFrame& f : pending) {
        if (drop && drop(f)) continue;
        cores[f.dst]->on_frame(f.bytes, now);
      }
      for (auto& c : cores) c->tick(now);
      if (bus.empty() && all_quiescent()) return true;
      now += 0.25;
    }
    return false;
  }

  /// Exact-ring audit over every resident vnode, by the checker the live
  /// meshes use (net::audit_ring): sorted ids must chain succ/pred pointers
  /// and owners perfectly.
  void expect_exact_ring() const {
    std::vector<std::pair<RouterId, Vnode>> collected;
    std::vector<std::pair<NodeId, RouterId>> expected;
    for (RouterId r = 0; r < cores.size(); ++r) {
      for (const auto& [id, v] : cores[r]->vnodes()) {
        collected.emplace_back(r, v);
        expected.emplace_back(id, r);
      }
    }
    ASSERT_FALSE(collected.empty());
    const net::MeshAuditReport rep =
        net::audit_ring(collected, std::move(expected));
    EXPECT_TRUE(rep.ok()) << rep.error_count << " defect(s), first: "
                          << (rep.errors.empty() ? "" : rep.errors.front());
  }

  [[nodiscard]] std::uint64_t counter(const char* name) const {
    std::uint64_t sum = 0;
    for (const auto& e : envs) {
      sum += e->reg_.counter_value(e->reg_.counter(name));
    }
    return sum;
  }

  /// Loses a frame when it returns true.
  std::function<bool(const BusFrame&)> drop;
  std::vector<BusFrame> bus;
  std::vector<std::unique_ptr<TestEnv>> envs;
  std::vector<std::unique_ptr<Core>> cores;
  double now = 0.0;
};

TEST(ProtoCore, JoinStormOverFrameBus) {
  MiniMesh mesh(2);
  Rng rng(17);
  mesh.cores[0]->seed(Identity::generate(rng));
  std::vector<NodeId> joined;
  for (int i = 0; i < 12; ++i) {
    Identity ident = Identity::generate(rng);
    joined.push_back(ident.id());
    mesh.cores[i % 2]->enqueue_join(std::move(ident));
  }
  ASSERT_TRUE(mesh.run());
  EXPECT_EQ(mesh.cores[0]->joins_completed() +
                mesh.cores[1]->joins_completed(),
            12u);
  mesh.expect_exact_ring();
  // Lossless bus: no retries, no exhaustion.
  EXPECT_EQ(mesh.envs[0]->retries + mesh.envs[1]->retries, 0u);
  EXPECT_EQ(mesh.envs[0]->exhausted + mesh.envs[1]->exhausted, 0u);
}

TEST(ProtoCore, LookupsResolveEveryJoinedId) {
  MiniMesh mesh(2);
  Rng rng(18);
  const Identity seed_ident = Identity::generate(rng);
  std::vector<NodeId> all_ids = {seed_ident.id()};
  mesh.cores[0]->seed(seed_ident);
  for (int i = 0; i < 8; ++i) {
    Identity ident = Identity::generate(rng);
    all_ids.push_back(ident.id());
    mesh.cores[i % 2]->enqueue_join(std::move(ident));
  }
  ASSERT_TRUE(mesh.run());
  for (std::size_t i = 0; i < all_ids.size(); ++i) {
    mesh.cores[i % 2]->enqueue_lookup(all_ids[i]);
  }
  ASSERT_TRUE(mesh.run(mesh.now + 10'000.0));
  const std::uint64_t completed = mesh.cores[0]->lookups_completed() +
                                  mesh.cores[1]->lookups_completed();
  const std::uint64_t hit =
      mesh.cores[0]->lookups_hit() + mesh.cores[1]->lookups_hit();
  EXPECT_EQ(completed, all_ids.size());
  EXPECT_EQ(hit, completed);
}

TEST(ProtoCore, CleanLeaveRepairsSurvivingRing) {
  MiniMesh mesh(3);
  Rng rng(19);
  mesh.cores[0]->seed(Identity::generate(rng));
  for (int i = 0; i < 12; ++i) {
    mesh.cores[i % 3]->enqueue_join(Identity::generate(rng));
  }
  ASSERT_TRUE(mesh.run());
  const std::size_t departing = mesh.cores[2]->vnodes().size();
  ASSERT_GT(departing, 0u);

  mesh.cores[2]->begin_leave(mesh.now);
  ASSERT_TRUE(mesh.run(mesh.now + 10'000.0));
  EXPECT_TRUE(mesh.cores[2]->departed());
  EXPECT_TRUE(mesh.cores[2]->vnodes().empty());
  // Survivors re-chain into an exact smaller ring.
  mesh.expect_exact_ring();
}

/// The decoded header of a bus frame (every frame on the bus decodes).
wire::Header header_of(const BusFrame& f) {
  const auto frame = wire::msg::decode_frame(f.bytes);
  EXPECT_TRUE(frame.has_value());
  return frame.has_value() ? frame->header : wire::Header{};
}

TEST(ProtoCore, JoinReplyCountsOnlyFromTheSplicer) {
  // While the gateway waits on its splicer (router 0), a redirect carrying
  // the JoinRequest's nonce arrives from router 7 -- the shape of a stale
  // reply to an earlier JoinRequest that went elsewhere.  Accepting it would
  // restart a walk the splicer has already answered.
  MiniMesh mesh(2);
  Rng rng(23);
  mesh.cores[0]->seed(Identity::generate(rng));
  mesh.cores[1]->enqueue_join(Identity::generate(rng));
  bool injected = false;
  mesh.drop = [&](const BusFrame& f) {  // injects, never drops
    const wire::Header h = header_of(f);
    if (!injected && h.type == wire::PacketType::kJoinRequest) {
      injected = true;
      wire::msg::JoinReply redirect;  // no successors: a redirect
      redirect.predecessor_host = 0;
      mesh.bus.push_back(BusFrame{
          1, wire::msg::encode_control(redirect, NodeId::from_u64(7),
                                       h.destination, h.trace_id)});
    }
    return false;
  };
  ASSERT_TRUE(mesh.run());
  ASSERT_TRUE(injected);
  EXPECT_EQ(mesh.counter("net.redirects"), 0u);
  EXPECT_EQ(mesh.cores[1]->joins_completed(), 1u);
  mesh.expect_exact_ring();
}

TEST(ProtoCore, JoinRequestNeverAbandonsItsSplicer) {
  // Every JoinReply is lost for the first 8 s.  The splicers have already
  // spliced the joiners and hold their cached replies, so each JoinRequest
  // must keep backing off against its splicer until a reply gets through.
  // A fresh walk would end at whichever vnode joined in the meantime, and
  // that router would splice the id a second time.
  MiniMesh mesh(2);
  Rng rng(9);
  mesh.cores[0]->seed(Identity::generate(rng));
  for (int i = 0; i < 4; ++i) {
    mesh.cores[i % 2]->enqueue_join(Identity::generate(rng));
  }
  mesh.drop = [&mesh](const BusFrame& f) {
    return mesh.now < 8'000.0 &&
           header_of(f).type == wire::PacketType::kJoinReply;
  };
  ASSERT_TRUE(mesh.run(30'000.0));
  EXPECT_EQ(mesh.cores[0]->joins_completed() +
                mesh.cores[1]->joins_completed(),
            4u);
  EXPECT_GT(mesh.envs[0]->retries + mesh.envs[1]->retries, 0u);
  EXPECT_EQ(mesh.envs[0]->exhausted + mesh.envs[1]->exhausted, 0u);
  mesh.expect_exact_ring();
}

TEST(ProtoCore, LeaveWithNoResidentsDepartsImmediately) {
  MiniMesh mesh(1);
  mesh.cores[0]->begin_leave(0.0);
  EXPECT_TRUE(mesh.cores[0]->departed());
  EXPECT_TRUE(mesh.cores[0]->quiescent());
}

}  // namespace
}  // namespace rofl::proto
