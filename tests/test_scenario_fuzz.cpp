// Randomized scenario fuzzing: apply long random sequences of protocol
// operations and check the system invariants (DESIGN.md section 5) after
// every step.  Each seed is an independent deterministic scenario; failures
// reproduce exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "interdomain/inter_network.hpp"
#include "obs/flight_recorder.hpp"
#include "rofl/network.hpp"
#include "sim/faults.hpp"

namespace rofl {
namespace {

// ---------------------------------------------------------------------------
// intradomain fuzz

class IntraFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntraFuzz, InvariantsHoldUnderRandomOperations) {
  const std::uint64_t seed = GetParam();
  Rng trng(seed);
  graph::IspParams params;
  params.router_count = 30 + trng.below(30);
  params.pop_count = 4 + trng.below(6);
  graph::IspTopology topo = graph::make_isp_topology(params, trng);
  intra::Config cfg;
  cfg.successor_group = 2 + trng.below(4);
  cfg.cache_capacity = trng.below(2) == 0 ? 0 : 512;
  intra::Network net(&topo, cfg, seed * 3 + 1);

  Rng op_rng(seed * 7 + 5);
  std::vector<Identity> live;
  std::set<graph::NodeIndex> downed_routers;
  std::vector<std::pair<graph::NodeIndex, graph::NodeIndex>> downed_links;

  const int ops = 160;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t pick = op_rng.below(100);
    if (pick < 40 || live.size() < 5) {
      // join (stable or ephemeral)
      Identity ident = Identity::generate(net.rng());
      const auto gw = static_cast<graph::NodeIndex>(
          op_rng.index(net.router_count()));
      const auto cls = op_rng.chance(0.2) ? intra::HostClass::kEphemeral
                                          : intra::HostClass::kStable;
      if (net.join_host(ident, gw, cls).ok) live.push_back(ident);
    } else if (pick < 60 && !live.empty()) {
      // host failure or graceful leave
      const std::size_t v = op_rng.index(live.size());
      if (op_rng.chance(0.5)) {
        (void)net.fail_host(live[v].id());
      } else {
        (void)net.leave_host(live[v].id());
      }
      live.erase(live.begin() + static_cast<long>(v));
    } else if (pick < 72) {
      // router failure (connectivity-preserving), sometimes restore later
      const auto r = static_cast<graph::NodeIndex>(
          op_rng.index(net.router_count()));
      if (downed_routers.contains(r)) {
        (void)net.restore_router(r);
        downed_routers.erase(r);
      } else if (topo.graph.node_up(r)) {
        topo.graph.set_node_up(r, false);
        const bool still = topo.graph.connected();
        topo.graph.set_node_up(r, true);
        if (still) {
          (void)net.fail_router(r);
          downed_routers.insert(r);
          // Hosts whose gateway died were rehomed by the protocol; our
          // mirror just keeps identities (directory is the truth).
        }
      }
    } else if (pick < 86) {
      // link flap (may partition; repair_partitions runs inside)
      const auto u = static_cast<graph::NodeIndex>(
          op_rng.index(net.router_count()));
      if (topo.graph.neighbors(u).empty()) continue;
      const auto& e = topo.graph.neighbors(
          u)[op_rng.index(topo.graph.neighbors(u).size())];
      if (topo.graph.link_up(u, e.to)) {
        (void)net.fail_link(u, e.to);
        downed_links.emplace_back(u, e.to);
      }
    } else if (!downed_links.empty()) {
      const auto [u, v] = downed_links.back();
      downed_links.pop_back();
      (void)net.restore_link(u, v);
    }

    // --- invariants after every operation ---
    std::string err;
    ASSERT_TRUE(net.verify_rings(&err))
        << "seed " << seed << " op " << op << ": " << err;
  }

  // End state: restore everything and require full reachability
  // (invariant (a): a path exists => ROFL delivers).
  for (const auto& [u, v] : downed_links) (void)net.restore_link(u, v);
  for (const auto r : downed_routers) (void)net.restore_router(r);
  (void)net.repair_partitions();
  std::string err;
  // After a full repair pass the state must be exactly canonical: complete
  // successor groups and predecessors, not just succ0.
  ASSERT_TRUE(net.verify_rings(&err, /*strict=*/true))
      << "seed " << seed << " final: " << err;
  graph::NodeIndex probe = 0;
  for (const auto& [id, home] : net.directory()) {
    EXPECT_TRUE(net.route(probe, id).delivered)
        << "seed " << seed << " cannot reach " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntraFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                                           377, 610, 987));

// ---------------------------------------------------------------------------
// interdomain fuzz

class InterFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Is `a` up with a live primary-provider path to a tier-1 AS?
bool attached(const graph::AsTopology& t, graph::AsIndex a) {
  if (!t.as_up(a)) return false;
  const auto up = t.up_hierarchy(a).nodes;
  return std::any_of(up.begin(), up.end(),
                     [&](graph::AsIndex x) { return t.tier(x) == 1; });
}

// Is `id` registered at the top of the hierarchy: a tier-1 AS, or the
// virtual AS standing for the tier-1 clique?  A single-homed join's one
// provider chain can stop below it, at a provider cut off from the core.
bool registered_at_top(const inter::InterNetwork& net, const NodeId& id) {
  const inter::InterVNode* vn = net.find_vnode(id);
  return vn != nullptr &&
         std::any_of(vn->anchors.begin(), vn->anchors.end(),
                     [&](const std::pair<graph::AsIndex, unsigned>& a) {
                       return net.work_topology().tier(a.first) <= 1;
                     });
}

// After a topology change: exact rings, and every identifier registered at
// the top delivered from every attached AS that hosts identifiers -- over
// the map as it now stands, not routing state derived before the change.
void expect_rerouted(inter::InterNetwork& net, std::uint64_t seed, int op,
                     const std::string& step) {
  const std::string where =
      "seed " + std::to_string(seed) + " op " + std::to_string(op) + " " +
      step;
  std::string err;
  EXPECT_TRUE(net.verify_rings(&err)) << where << ": " << err;
  std::set<graph::AsIndex> sources;
  std::vector<NodeId> targets;
  for (const auto& [id, home] : net.directory()) {
    if (attached(net.base_topology(), home)) sources.insert(home);
    if (registered_at_top(net, id)) targets.push_back(id);
  }
  for (const graph::AsIndex src : sources) {
    for (const NodeId& id : targets) {
      EXPECT_TRUE(net.route(src, id).delivered)
          << where << ": from AS " << src << " to " << id << " at AS "
          << *net.home_of(id);
    }
  }
}

TEST_P(InterFuzz, InvariantsHoldUnderRandomOperations) {
  const std::uint64_t seed = GetParam();
  Rng trng(seed + 1000);
  graph::AsGenParams gp;
  gp.tier1_count = 3;
  gp.tier2_count = 6 + trng.below(6);
  gp.tier3_count = 12 + trng.below(10);
  gp.stub_count = 30 + trng.below(30);
  gp.total_hosts = 5000;
  const graph::AsTopology topo = graph::AsTopology::make_internet_like(gp, trng);

  inter::InterConfig cfg;
  cfg.peering_mode = (seed % 2 == 0) ? inter::PeeringMode::kVirtualAs
                                     : inter::PeeringMode::kBloom;
  cfg.fingers_per_id = (seed % 3 == 0) ? 24 : 0;
  inter::InterNetwork net(&topo, cfg, seed * 11 + 3);
  const graph::AsTopology& now = net.base_topology();

  Rng op_rng(seed * 13 + 7);
  std::vector<NodeId> live;
  std::set<graph::AsIndex> downed;
  std::set<std::pair<graph::AsIndex, graph::AsIndex>> downed_links;
  const auto restore = [&](graph::AsIndex a) {
    (void)net.restore_as(a);
    downed.erase(a);
    return "restore_as(" + std::to_string(a) + ")";
  };
  const auto restore_link = [&](graph::AsIndex a, graph::AsIndex b) {
    (void)net.restore_link(a, b);
    downed_links.erase({std::min(a, b), std::max(a, b)});
    return "restore_link(" + std::to_string(a) + ", " + std::to_string(b) +
           ")";
  };

  const inter::JoinStrategy strategies[] = {
      inter::JoinStrategy::kEphemeral, inter::JoinStrategy::kSingleHomed,
      inter::JoinStrategy::kRecursiveMultihomed,
      inter::JoinStrategy::kPeering};

  // Stub and transit AS failures (tier 2 and below; the tier-1 clique stays
  // whole), inter-AS link failures, and their restores, each followed by a
  // check of the map as it now stands.
  const int ops = 90;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t pick = op_rng.below(100);
    std::string step;
    if (pick < 45 || live.size() < 5) {
      const auto before = net.directory();
      const auto js = net.join_random_host(
          strategies[op_rng.index(4)]);
      if (js.ok) {
        for (const auto& [id, home] : net.directory()) {
          if (!before.contains(id)) live.push_back(id);
        }
      }
    } else if (pick < 60 && !live.empty()) {
      const std::size_t v = op_rng.index(live.size());
      (void)net.leave_host(live[v]);
      live.erase(live.begin() + static_cast<long>(v));
    } else if (pick < 84) {
      // AS flap: a stub or transit AS fails or comes back.
      const auto a = static_cast<graph::AsIndex>(
          op_rng.index(topo.as_count()));
      if (downed.contains(a)) {
        step = restore(a);
      } else if (now.tier(a) != 1 && now.as_up(a)) {
        (void)net.fail_as(a);
        downed.insert(a);
        step = "fail_as(" + std::to_string(a) + ")";
      }
    } else if (pick < 94) {
      // Link flap on a random adjacency outside the tier-1 clique.
      const auto a = static_cast<graph::AsIndex>(
          op_rng.index(topo.as_count()));
      const auto& adj = topo.adjacencies(a);
      if (!adj.empty()) {
        const graph::AsIndex b = adj[op_rng.index(adj.size())].neighbor;
        const std::pair<graph::AsIndex, graph::AsIndex> key{std::min(a, b),
                                                            std::max(a, b)};
        if (downed_links.contains(key)) {
          step = restore_link(a, b);
        } else if (now.tier(a) != 1 || now.tier(b) != 1) {
          (void)net.fail_link(a, b);
          downed_links.insert(key);
          step = "fail_link(" + std::to_string(a) + ", " +
                 std::to_string(b) + ")";
        }
      }
    } else if (!downed.empty()) {
      step = restore(*downed.begin());
    } else if (!downed_links.empty()) {
      const auto [a, b] = *downed_links.begin();
      step = restore_link(a, b);
    }
    if (!step.empty()) {
      expect_rerouted(net, seed, op, step);
      if (::testing::Test::HasFailure()) return;
    }
  }
  for (const auto& [a, b] : downed_links) (void)net.restore_link(a, b);
  for (const auto a : downed) (void)net.restore_as(a);

  std::string err;
  ASSERT_TRUE(net.verify_rings(&err)) << "seed " << seed << ": " << err;
  // Full reachability from a live transit AS.
  graph::AsIndex probe = 0;
  std::size_t delivered = 0, total = 0;
  for (const auto& [id, home] : net.directory()) {
    ++total;
    if (net.route(probe, id).delivered) ++delivered;
  }
  EXPECT_EQ(delivered, total) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

// ---------------------------------------------------------------------------
// faulty fuzz: churn under message loss / duplication / jitter plus scheduled
// link flaps.  Two properties per seed:
//   (a) eventual consistency -- once the faults stop, one repair pass brings
//       the rings back to canonical state and every surviving ID is
//       reachable;
//   (b) bit-identical determinism -- two runs with the same seed produce the
//       same metrics snapshot and the same flight-recorder hop sequence,
//       drop-for-drop.

struct FaultyRunResult {
  bool converged = false;
  std::string err;
  std::string metrics_json;
  std::vector<obs::HopRecord> hops;
  std::uint64_t dropped = 0;
  std::uint64_t retries = 0;
};

FaultyRunResult run_faulty_intra(std::uint64_t seed) {
  FaultyRunResult out;
  Rng trng(seed);
  graph::IspParams params;
  params.router_count = 24 + trng.below(12);
  params.pop_count = 4;
  graph::IspTopology topo = graph::make_isp_topology(params, trng);
  intra::Config cfg;
  cfg.successor_group = 3;
  intra::Network net(&topo, cfg, seed * 3 + 1);
  obs::FlightRecorder rec(1 << 14);
  net.set_flight_recorder(&rec);

  // Collect the physical edges so the flap schedule hits real links.
  std::vector<std::pair<graph::NodeIndex, graph::NodeIndex>> edges;
  for (graph::NodeIndex u = 0; u < topo.graph.node_count(); ++u) {
    for (const auto& e : topo.graph.neighbors(u)) {
      if (e.to > u) edges.emplace_back(u, e.to);
    }
  }

  sim::FaultPlan plan;
  plan.defaults.loss = 0.05;
  plan.defaults.duplicate = 0.02;
  plan.defaults.jitter_ms = 0.4;
  Rng flap_rng(seed * 17 + 3);
  const auto [fu1, fv1] = edges[flap_rng.index(edges.size())];
  const auto [fu2, fv2] = edges[flap_rng.index(edges.size())];
  plan.link_flaps.push_back({fu1, fv1, /*down_at_ms=*/8.0, /*up_at_ms=*/30.0});
  plan.link_flaps.push_back({fu2, fv2, /*down_at_ms=*/20.0, /*up_at_ms=*/44.0});

  sim::FaultInjector inj(plan, seed ^ 0xF417C0DEull,
                         &net.simulator().metrics());
  net.set_fault_injector(&inj);
  net.schedule_fault_plan(plan);

  Rng op_rng(seed * 7 + 5);
  std::vector<Identity> live;
  double t = 0.0;
  for (int op = 0; op < 60; ++op) {
    t += 1.0;
    net.simulator().run_until(t);  // let scheduled flap events interleave
    const std::uint64_t pick = op_rng.below(100);
    if (pick < 50 || live.size() < 4) {
      Identity ident = Identity::generate(net.rng());
      const auto gw = static_cast<graph::NodeIndex>(
          op_rng.index(net.router_count()));
      if (net.join_host(ident, gw).ok) live.push_back(ident);
    } else if (pick < 70 && !live.empty()) {
      const std::size_t v = op_rng.index(live.size());
      if (op_rng.chance(0.5)) {
        (void)net.fail_host(live[v].id());
      } else {
        (void)net.leave_host(live[v].id());
      }
      live.erase(live.begin() + static_cast<long>(v));
    } else if (!live.empty()) {
      // data-plane traffic through the lossy network
      const auto src = static_cast<graph::NodeIndex>(
          op_rng.index(net.router_count()));
      (void)net.route(src, live[op_rng.index(live.size())].id());
    }
  }
  net.simulator().run_until(100.0);  // both flap windows closed and healed

  out.dropped = inj.dropped();
  out.retries = inj.retries();
  out.metrics_json = net.simulator().metrics().to_json();
  out.hops = rec.all();

  // Faults off: the surviving state must heal to canonical rings and full
  // reachability.  (Mid-join drops can leave dangling pointers; the repair
  // pass is exactly the machinery that must absorb them.)
  net.set_fault_injector(nullptr);
  (void)net.repair_partitions();
  std::string err;
  if (!net.verify_rings(&err, /*strict=*/true)) {
    out.err = err;
    return out;
  }
  for (const auto& [id, home] : net.directory()) {
    if (!net.route(0, id).delivered) {
      out.err = "unreachable id after repair";
      return out;
    }
  }
  out.converged = true;
  return out;
}

class FaultyIntraFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultyIntraFuzz, ConvergesAndReproducesBitIdentically) {
  const std::uint64_t seed = GetParam();
  const FaultyRunResult a = run_faulty_intra(seed);
  const FaultyRunResult b = run_faulty_intra(seed);
  ASSERT_TRUE(a.converged) << "seed " << seed << " run A: " << a.err;
  ASSERT_TRUE(b.converged) << "seed " << seed << " run B: " << b.err;
  // The plan actually bit: messages were dropped and the retry machinery ran.
  EXPECT_GT(a.dropped, 0u) << "seed " << seed;
  // Bit-identical reproduction: every counter and every recorded hop
  // (including each fault-drop annotation) matches across same-seed runs.
  EXPECT_EQ(a.metrics_json, b.metrics_json) << "seed " << seed;
  ASSERT_EQ(a.hops.size(), b.hops.size()) << "seed " << seed;
  EXPECT_TRUE(a.hops == b.hops) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultyIntraFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Interdomain variant: joins run their level registrations through the
// retry/backoff exchange; levels whose retries exhaust are left for repair().
FaultyRunResult run_faulty_inter(std::uint64_t seed) {
  FaultyRunResult out;
  Rng trng(seed + 1000);
  graph::AsGenParams gp;
  gp.tier1_count = 3;
  gp.tier2_count = 6;
  gp.tier3_count = 12;
  gp.stub_count = 30;
  gp.total_hosts = 4000;
  const graph::AsTopology topo = graph::AsTopology::make_internet_like(gp, trng);

  inter::InterConfig cfg;
  inter::InterNetwork net(&topo, cfg, seed * 11 + 3);

  sim::FaultPlan plan;
  plan.defaults.loss = 0.05;
  sim::FaultInjector inj(plan, seed ^ 0xF417C0DEull,
                         &net.simulator().metrics());
  net.set_fault_injector(&inj);

  Rng op_rng(seed * 13 + 7);
  std::vector<NodeId> live;
  const inter::JoinStrategy strategies[] = {
      inter::JoinStrategy::kEphemeral, inter::JoinStrategy::kSingleHomed,
      inter::JoinStrategy::kRecursiveMultihomed,
      inter::JoinStrategy::kPeering};
  for (int op = 0; op < 50; ++op) {
    const std::uint64_t pick = op_rng.below(100);
    if (pick < 60 || live.size() < 5) {
      const auto js = net.join_random_host(strategies[op_rng.index(4)]);
      if (js.ok) live.push_back(net.directory().rbegin()->first);
    } else if (pick < 80 && !live.empty()) {
      const std::size_t v = op_rng.index(live.size());
      (void)net.leave_host(live[v]);
      live.erase(live.begin() + static_cast<long>(v));
    } else if (!live.empty()) {
      (void)net.route(static_cast<graph::AsIndex>(
                          op_rng.index(topo.as_count())),
                      live[op_rng.index(live.size())]);
    }
  }

  out.dropped = inj.dropped();
  out.retries = inj.retries();
  out.metrics_json = net.simulator().metrics().to_json();

  // Faults off: maintenance passes must converge (no work left) and restore
  // every registration that loss prevented.
  net.set_fault_injector(nullptr);
  bool settled = false;
  for (int pass = 0; pass < 8 && !settled; ++pass) {
    settled = net.repair().messages == 0;
  }
  if (!settled) {
    out.err = "repair did not converge";
    return out;
  }
  std::string err;
  if (!net.verify_rings(&err)) {
    out.err = err;
    return out;
  }
  for (const auto& [id, home] : net.directory()) {
    if (!net.route(0, id).delivered) {
      out.err = "unreachable id after repair";
      return out;
    }
  }
  out.converged = true;
  return out;
}

class FaultyInterFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultyInterFuzz, ConvergesAndReproducesBitIdentically) {
  const std::uint64_t seed = GetParam();
  const FaultyRunResult a = run_faulty_inter(seed);
  const FaultyRunResult b = run_faulty_inter(seed);
  ASSERT_TRUE(a.converged) << "seed " << seed << " run A: " << a.err;
  ASSERT_TRUE(b.converged) << "seed " << seed << " run B: " << b.err;
  EXPECT_GT(a.dropped, 0u) << "seed " << seed;
  EXPECT_EQ(a.metrics_json, b.metrics_json) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultyInterFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Targeted join/leave race under heavy loss (regression for the splice-in
// rollback bug).  With 30% loss and a nearly-exhausted retry budget, many
// joins abort partway through the pointer-installation exchange.  An aborted
// join must leave NO trace: historically a failed join could leave the new
// ID already spliced into its neighbors' successor groups ("phantom
// successor") while never landing in the directory, and the next leave or
// repair pass would then chase a pointer to a host that does not exist.

class LossyJoinLeaveRace : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossyJoinLeaveRace, FailedJoinsLeaveNoTrace) {
  const std::uint64_t seed = GetParam();
  Rng trng(seed);
  graph::IspParams params;
  params.router_count = 24;
  params.pop_count = 4;
  graph::IspTopology topo = graph::make_isp_topology(params, trng);

  intra::Config cfg;
  cfg.successor_group = 3;
  cfg.retry.max_attempts = 2;  // loss frequently exhausts the budget
  intra::Network net(&topo, cfg, seed * 3 + 1);

  sim::FaultPlan plan;
  plan.defaults.loss = 0.30;
  sim::FaultInjector inj(plan, seed ^ 0xF417C0DEull,
                         &net.simulator().metrics());
  net.set_fault_injector(&inj);

  // Any appearance of `id` in ring state, caches, or backpointers counts.
  const auto traces_of = [&](const NodeId& id) -> std::string {
    if (net.directory().contains(id)) return "directory";
    for (graph::NodeIndex i = 0; i < net.router_count(); ++i) {
      const intra::Router& r = net.router(i);
      if (r.find_vnode(id) != nullptr) return "vnode@" + std::to_string(i);
      for (const auto& [vid, vn] : r.vnodes()) {
        for (const intra::NeighborPtr& s : vn.successors) {
          if (s.id == id) return "successor@" + std::to_string(i);
        }
        if (vn.predecessor.has_value() && vn.predecessor->id == id) {
          return "predecessor@" + std::to_string(i);
        }
      }
      if (r.cache().find(id) != nullptr) return "cache@" + std::to_string(i);
      if (r.ephemeral_gateway(id).has_value()) {
        return "backpointer@" + std::to_string(i);
      }
    }
    return "";
  };

  Rng op_rng(seed * 7 + 5);
  std::vector<Identity> live;
  std::size_t failed_joins = 0;
  for (int op = 0; op < 120; ++op) {
    if (op_rng.chance(0.6) || live.size() < 4) {
      Identity ident = Identity::generate(net.rng());
      const auto gw = static_cast<graph::NodeIndex>(
          op_rng.index(net.router_count()));
      const auto js = net.join_host(ident, gw);
      if (js.ok) {
        live.push_back(ident);
      } else {
        ++failed_joins;
        // The rollback contract: a failed join is a no-op.
        const std::string trace = traces_of(ident.id());
        ASSERT_EQ(trace, "") << "seed " << seed << " op " << op
                             << ": aborted join left a " << trace;
      }
    } else {
      const std::size_t v = op_rng.index(live.size());
      (void)net.leave_host(live[v].id());
      live.erase(live.begin() + static_cast<long>(v));
    }
  }
  // The scenario only bites if the retry budget actually ran out sometimes.
  EXPECT_GT(failed_joins, 0u) << "seed " << seed;

  // Once the loss stops, the survivors repair to a canonical ring.
  net.set_fault_injector(nullptr);
  (void)net.repair_partitions();
  std::string err;
  ASSERT_TRUE(net.verify_rings(&err, /*strict=*/true))
      << "seed " << seed << ": " << err;
  for (const auto& [id, home] : net.directory()) {
    EXPECT_TRUE(net.route(0, id).delivered) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyJoinLeaveRace,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace rofl
