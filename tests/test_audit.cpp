// Tests for the cross-layer invariant auditor (src/audit): detection of
// injected corruption, cleanliness on healthy and churning networks,
// deterministic churn replays, and the ddmin schedule shrinker.
#include "audit/auditor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "audit/churn.hpp"
#include "audit/shrink.hpp"
#include "obs/flight_recorder.hpp"
#include "rofl/session.hpp"

namespace rofl::audit {
namespace {

struct AuditNet {
  graph::IspTopology topo;
  std::unique_ptr<intra::Network> net;
  obs::FlightRecorder recorder{1 << 14};
  std::vector<Identity> hosts;

  explicit AuditNet(std::size_t routers = 30, std::size_t pops = 5,
                    intra::Config cfg = {}, std::uint64_t seed = 1234) {
    Rng trng(seed);
    graph::IspParams p;
    p.router_count = routers;
    p.pop_count = pops;
    topo = graph::make_isp_topology(p, trng);
    net = std::make_unique<intra::Network>(&topo, cfg, seed + 1);
    net->set_flight_recorder(&recorder);
  }

  NodeId join(graph::NodeIndex gw,
              intra::HostClass cls = intra::HostClass::kStable) {
    Identity ident = Identity::generate(net->rng());
    EXPECT_TRUE(net->join_host(ident, gw, cls).ok);
    hosts.push_back(ident);
    return ident.id();
  }

  void join_many(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      join(static_cast<graph::NodeIndex>(net->rng().index(net->router_count())));
    }
  }
};

bool has_check(const AuditReport& rep, std::string_view check,
               Severity severity, bool require_trace) {
  return std::any_of(rep.violations.begin(), rep.violations.end(),
                     [&](const Violation& v) {
                       return v.check == check && v.severity == severity &&
                              (!require_trace || v.trace_id != 0);
                     });
}

TEST(Auditor, HealthyNetworkAuditsClean) {
  AuditNet t;
  t.join_many(40);
  Auditor auditor(t.net.get());
  const AuditReport rep = auditor.run();
  EXPECT_GT(rep.checks, 0u);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(auditor.total_hard(), 0u);
  EXPECT_EQ(auditor.total_soft(), 0u);
}

TEST(Auditor, InjectedStaleCachePointerDetectedWithTraceId) {
  AuditNet t;
  t.join_many(30);
  // A well-formed cache entry (valid route shape, live links) whose ID never
  // joined: exactly what a departed host leaves behind on routers off its
  // teardown path.  Expected verdict: soft staleness, stamped with a trace.
  const graph::NodeIndex i = 4;
  const graph::NodeIndex j = t.topo.graph.neighbors(i).front().to;
  const NodeId ghost(0xAAAAAAAAAAAAAAAAull, 0x1ull);
  ASSERT_FALSE(t.net->directory().contains(ghost));
  t.net->router(i).cache().insert(ghost, j, {i, j});

  Auditor auditor(t.net.get());
  const AuditReport rep = auditor.run();
  EXPECT_TRUE(has_check(rep, "intra.cache.stale-id", Severity::kSoft,
                        /*require_trace=*/true))
      << rep.to_string();
  EXPECT_EQ(rep.hard_count(), 0u) << rep.to_string();

  // The trace id resolves in the recorder to a kAuditViolation record naming
  // the ghost ID.
  const auto vit = std::find_if(
      rep.violations.begin(), rep.violations.end(),
      [](const Violation& v) { return v.check == "intra.cache.stale-id"; });
  ASSERT_NE(vit, rep.violations.end());
  const Violation& v = *vit;
  const auto hops = t.recorder.trace(v.trace_id);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops.front().kind, obs::HopKind::kAuditViolation);
  EXPECT_EQ(hops.front().chased, ghost);
}

TEST(Auditor, StructurallyBadCacheEntryIsHard) {
  AuditNet t;
  t.join_many(20);
  // Route shape violation: the cached source route does not start at the
  // caching router.  No protocol path ever writes this.
  const graph::NodeIndex i = 2;
  const graph::NodeIndex j = t.topo.graph.neighbors(i).front().to;
  const NodeId ghost(0xBBBBBBBBBBBBBBBBull, 0x2ull);
  t.net->router(i).cache().insert(ghost, j, {j});

  Auditor auditor(t.net.get());
  const AuditReport rep = auditor.run();
  EXPECT_TRUE(has_check(rep, "intra.cache.route-shape", Severity::kHard,
                        /*require_trace=*/true))
      << rep.to_string();
}

TEST(Auditor, BrokenSuccessorLinkDetectedWithTraceId) {
  AuditNet t;
  t.join_many(30);
  // Corrupt a live vnode's first successor to a never-joined ID -- the
  // "broken successor link" the repair machinery must never produce.
  const auto& [vid, home] = *t.net->directory().begin();
  intra::VirtualNode* vn = t.net->router(home).find_vnode(vid);
  ASSERT_NE(vn, nullptr);
  ASSERT_FALSE(vn->successors.empty());
  const NodeId bogus(0xCCCCCCCCCCCCCCCCull, 0x3ull);
  vn->successors.front().id = bogus;

  Auditor auditor(t.net.get());
  const AuditReport rep = auditor.run();
  EXPECT_GT(rep.hard_count(), 0u) << rep.to_string();
  EXPECT_TRUE(has_check(rep, "intra.ring.dangling", Severity::kHard,
                        /*require_trace=*/true))
      << rep.to_string();
}

TEST(Auditor, CleanAtEveryStepOfFaultFreeChurn) {
  // The severity model's core claim: fault-free, no operation sequence may
  // leave even transiently hard-violating state between operations.  (Soft
  // staleness -- e.g. cache entries for departed IDs off the teardown path --
  // is allowed and expected.)
  AuditNet t(25, 4, {}, 77);
  Auditor auditor(t.net.get());
  Rng op_rng(4001);
  std::vector<NodeId> live;
  std::set<graph::NodeIndex> downed;
  for (int op = 0; op < 80; ++op) {
    const std::uint64_t pick = op_rng.below(100);
    if (pick < 45 || live.size() < 5) {
      Identity ident = Identity::generate(t.net->rng());
      const auto gw = static_cast<graph::NodeIndex>(
          op_rng.index(t.net->router_count()));
      const auto cls = op_rng.chance(0.25) ? intra::HostClass::kEphemeral
                                           : intra::HostClass::kStable;
      if (t.net->join_host(ident, gw, cls).ok) live.push_back(ident.id());
    } else if (pick < 65 && !live.empty()) {
      const std::size_t v = op_rng.index(live.size());
      if (op_rng.chance(0.5)) {
        (void)t.net->fail_host(live[v]);
      } else {
        (void)t.net->leave_host(live[v]);
      }
      live.erase(live.begin() + static_cast<long>(v));
    } else if (pick < 80) {
      const auto r = static_cast<graph::NodeIndex>(
          op_rng.index(t.net->router_count()));
      if (downed.contains(r)) {
        (void)t.net->restore_router(r);
        downed.erase(r);
      } else if (t.topo.graph.node_up(r)) {
        t.topo.graph.set_node_up(r, false);
        const bool still = t.topo.graph.connected();
        t.topo.graph.set_node_up(r, true);
        if (still) {
          (void)t.net->fail_router(r);
          downed.insert(r);
        }
      }
    } else if (!live.empty()) {
      (void)t.net->route(static_cast<graph::NodeIndex>(
                             op_rng.index(t.net->router_count())),
                         live[op_rng.index(live.size())]);
    }
    const AuditReport rep = auditor.run();
    ASSERT_EQ(rep.hard_count(), 0u)
        << "op " << op << ":\n" << rep.to_string();
  }
}

TEST(Auditor, SessionChecksFlagOrphans) {
  AuditNet t(25, 4, {}, 31);
  t.join_many(10);
  intra::SessionManager sessions(*t.net, {});
  const NodeId tracked = t.hosts.front().id();
  sessions.track(tracked, [] { return true; });
  t.net->simulator().run_until(1500.0);  // at least one keepalive tick

  Auditor auditor(t.net.get(), nullptr, &sessions);
  EXPECT_EQ(auditor.run().hard_count(), 0u);

  // The host leaves the ring without detaching its session: the next audit
  // must flag the orphan as soft staleness (it retires on the next tick).
  (void)t.net->leave_host(tracked);
  const AuditReport rep = auditor.run();
  EXPECT_TRUE(has_check(rep, "session.orphan", Severity::kSoft,
                        /*require_trace=*/true))
      << rep.to_string();
  EXPECT_EQ(rep.hard_count(), 0u) << rep.to_string();
}

TEST(Auditor, ScheduledAuditsRideTheSimulatorClock) {
  AuditNet t(20, 4, {}, 5);
  t.join_many(10);
  Auditor auditor(t.net.get());
  auditor.schedule_every(10.0, 100.0);
  t.net->simulator().run_until(200.0);
  EXPECT_EQ(auditor.audits_run(), 10u);
  EXPECT_EQ(auditor.total_hard(), 0u);
  // The registry mirrors the run count.
  obs::Registry& reg = t.net->simulator().metrics();
  EXPECT_EQ(reg.counter_value(reg.counter("audit.runs")), 10u);
}

TEST(Auditor, NonPositiveIntervalSchedulesNothing) {
  // interval * k never passes the horizon for a zero or negative step, so
  // scheduling must refuse it instead of filling the queue without end.
  AuditNet t(20, 4, {}, 5);
  Auditor auditor(t.net.get());
  auditor.schedule_every(0.0, 100.0);
  auditor.schedule_every(-5.0, 100.0);
  t.net->simulator().run_until(200.0);
  EXPECT_EQ(auditor.audits_run(), 0u);
}

TEST(Auditor, InterdomainCleanAcrossChurnAndAsFlaps) {
  Rng trng(2001);
  graph::AsGenParams gp;
  gp.tier1_count = 3;
  gp.tier2_count = 6;
  gp.tier3_count = 12;
  gp.stub_count = 25;
  gp.total_hosts = 3000;
  const graph::AsTopology topo =
      graph::AsTopology::make_internet_like(gp, trng);
  inter::InterConfig cfg;
  cfg.fingers_per_id = 16;
  inter::InterNetwork net(&topo, cfg, 99);

  Auditor auditor(nullptr, &net);
  Rng op_rng(606);
  std::vector<NodeId> live;
  std::set<graph::AsIndex> downed;
  const inter::JoinStrategy strategies[] = {
      inter::JoinStrategy::kEphemeral, inter::JoinStrategy::kSingleHomed,
      inter::JoinStrategy::kRecursiveMultihomed,
      inter::JoinStrategy::kPeering};
  for (int op = 0; op < 60; ++op) {
    const std::uint64_t pick = op_rng.below(100);
    if (pick < 55 || live.size() < 5) {
      if (net.join_random_host(strategies[op_rng.index(4)]).ok) {
        live.push_back(net.directory().rbegin()->first);
      }
    } else if (pick < 75 && !live.empty()) {
      const std::size_t v = op_rng.index(live.size());
      (void)net.leave_host(live[v]);
      live.erase(live.begin() + static_cast<long>(v));
    } else if (pick < 90) {
      const auto a = static_cast<graph::AsIndex>(op_rng.index(topo.as_count()));
      if (downed.contains(a)) {
        (void)net.restore_as(a);
        downed.erase(a);
      } else if (net.base_topology().is_stub(a) && net.base_topology().as_up(a)) {
        (void)net.fail_as(a);
        downed.insert(a);
      }
    } else if (!downed.empty()) {
      const auto a = *downed.begin();
      (void)net.restore_as(a);
      downed.erase(a);
    }
    const AuditReport rep = auditor.run();
    ASSERT_EQ(rep.hard_count(), 0u)
        << "op " << op << ":\n" << rep.to_string();
  }
  for (const auto a : downed) (void)net.restore_as(a);
  const AuditReport final_rep = auditor.run();
  EXPECT_EQ(final_rep.hard_count(), 0u) << final_rep.to_string();
}

// ---------------------------------------------------------------------------
// churn harness

TEST(Churn, ScheduleIsDeterministicAndSorted) {
  ChurnConfig cfg;
  cfg.events = 150;
  const auto a = make_churn_schedule(cfg, 42);
  const auto b = make_churn_schedule(cfg, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_ms, b[i].t_ms);
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].pick, b[i].pick);
    EXPECT_EQ(a[i].ident.has_value(), b[i].ident.has_value());
    if (a[i].ident.has_value()) {
      EXPECT_EQ(a[i].ident->id(), b[i].ident->id());
    }
    if (i > 0) {
      EXPECT_GE(a[i].t_ms, a[i - 1].t_ms);
    }
  }
  // A different seed actually changes the schedule.
  const auto c = make_churn_schedule(cfg, 43);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].t_ms != c[i].t_ms || a[i].pick != c[i].pick;
  }
  EXPECT_TRUE(differs);
}

TEST(Churn, FaultFreeRunConvergesWithZeroHardViolations) {
  ChurnConfig cc;
  cc.events = 120;
  ChurnRunParams params;
  params.router_count = 30;
  params.pop_count = 5;
  params.initial_hosts = 30;
  params.seed = 7;
  const auto schedule = make_churn_schedule(cc, 7);
  const ChurnRunResult r = run_churn(params, schedule);
  EXPECT_TRUE(r.converged) << r.err;
  EXPECT_EQ(r.hard, 0u) << r.digest;
  EXPECT_GT(r.audits, 10u);
  EXPECT_GT(r.joins, 0u);
  EXPECT_GT(r.routes, 0u);
}

TEST(Churn, SameSeedRunsAreBitIdentical) {
  ChurnConfig cc;
  cc.events = 100;
  ChurnRunParams params;
  params.router_count = 28;
  params.pop_count = 4;
  params.initial_hosts = 24;
  params.seed = 11;
  const auto schedule = make_churn_schedule(cc, 11);
  const ChurnRunResult a = run_churn(params, schedule);
  const ChurnRunResult b = run_churn(params, schedule);
  ASSERT_TRUE(a.converged) << a.err;
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.audits, b.audits);
  EXPECT_EQ(a.hard, b.hard);
  EXPECT_EQ(a.soft, b.soft);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.delivered, b.delivered);
}

TEST(Churn, LossyRunConvergesAndReproduces) {
  ChurnConfig cc;
  cc.events = 100;
  ChurnRunParams params;
  params.router_count = 28;
  params.pop_count = 4;
  params.initial_hosts = 24;
  params.seed = 13;
  params.use_faults = true;
  params.faults.defaults.loss = 0.03;
  params.faults.defaults.duplicate = 0.01;
  const auto schedule = make_churn_schedule(cc, 13);
  const ChurnRunResult a = run_churn(params, schedule);
  const ChurnRunResult b = run_churn(params, schedule);
  EXPECT_TRUE(a.converged) << a.err;
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  // Message faults downgrade the churn-racy checks; structural invariants
  // (ring order fault classes the repair machinery owns) must stay at zero
  // hard even mid-loss.
  EXPECT_EQ(a.hard, 0u) << a.digest;
}

// ---------------------------------------------------------------------------
// shrinker

TEST(Shrink, FindsTheMinimalFailingSubset) {
  // Synthetic failure: the run "fails" iff events with pick 3 AND pick 7 are
  // both present.  ddmin must strip the other ten and report 1-minimality.
  std::vector<ChurnEvent> events;
  for (std::uint64_t i = 0; i < 12; ++i) {
    ChurnEvent e;
    e.t_ms = static_cast<double>(i);
    e.op = ChurnOp::kRoute;
    e.pick = i;
    events.push_back(e);
  }
  const auto fails = [](const std::vector<ChurnEvent>& s) {
    bool has3 = false;
    bool has7 = false;
    for (const ChurnEvent& e : s) {
      has3 |= e.pick == 3;
      has7 |= e.pick == 7;
    }
    return has3 && has7;
  };
  const ShrinkResult r = shrink_schedule(events, fails);
  EXPECT_TRUE(r.minimal);
  ASSERT_EQ(r.events.size(), 2u);
  EXPECT_EQ(r.events[0].pick, 3u);
  EXPECT_EQ(r.events[1].pick, 7u);
  EXPECT_GT(r.probes, 1u);
}

TEST(Shrink, NonFailingScheduleReturnsUnchanged) {
  std::vector<ChurnEvent> events(5);
  const ShrinkResult r =
      shrink_schedule(events, [](const std::vector<ChurnEvent>&) {
        return false;
      });
  EXPECT_FALSE(r.minimal);
  EXPECT_EQ(r.events.size(), 5u);
  EXPECT_EQ(r.probes, 1u);
}

TEST(Shrink, RespectsTheProbeBudget) {
  std::vector<ChurnEvent> events(64);
  for (std::uint64_t i = 0; i < events.size(); ++i) events[i].pick = i;
  std::size_t calls = 0;
  const ShrinkResult r = shrink_schedule(
      events,
      [&calls](const std::vector<ChurnEvent>& s) {
        ++calls;
        return s.size() >= 2;  // keeps failing until nearly empty
      },
      /*max_probes=*/10);
  EXPECT_EQ(r.probes, 10u);
  EXPECT_EQ(calls, 10u);
  EXPECT_FALSE(r.minimal);
}

}  // namespace
}  // namespace rofl::audit
