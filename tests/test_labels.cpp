// Label-switched fast path (DESIGN.md section 15): table mechanics, the
// install -> hit -> teardown lifecycle under churn, auditor cleanliness at
// every step, and the headline equivalence contract -- labels change per-hop
// cost, never route outcomes, so labels-on and labels-off runs produce
// bit-identical RouteStats and digests.
#include "rofl/label_table.hpp"

#include <gtest/gtest.h>

#include "audit/auditor.hpp"
#include "audit/churn.hpp"
#include "rofl/network.hpp"

namespace rofl::intra {
namespace {

NodeId id(std::uint64_t v) { return NodeId::from_u64(v); }

TEST(LabelTable, InstallLookupRemove) {
  LabelTable t;
  const std::uint32_t a = t.install(id(1), 7, kNoLabel);
  const std::uint32_t b = t.install(id(2), 8, a);
  EXPECT_EQ(t.live(), 2u);
  const LabelEntry* ea = t.lookup(a);
  ASSERT_NE(ea, nullptr);
  EXPECT_EQ(ea->dest, id(1));
  EXPECT_EQ(ea->out, 7u);
  EXPECT_EQ(ea->next_label, kNoLabel);
  const LabelEntry* eb = t.lookup(b);
  ASSERT_NE(eb, nullptr);
  EXPECT_EQ(eb->next_label, a);
  t.remove(a);
  EXPECT_EQ(t.lookup(a), nullptr);
  EXPECT_EQ(t.live(), 1u);
  // Out-of-range and double-remove are harmless no-ops.
  EXPECT_EQ(t.lookup(12345), nullptr);
  t.remove(a);
  EXPECT_EQ(t.live(), 1u);
}

TEST(LabelTable, RetiredLabelsReuseLifo) {
  LabelTable t;
  const std::uint32_t a = t.install(id(1), 1, kNoLabel);
  const std::uint32_t b = t.install(id(2), 2, kNoLabel);
  t.remove(a);
  t.remove(b);
  // LIFO reuse: the most recently retired label comes back first, so a
  // same-seed rerun allocates the identical label sequence.
  EXPECT_EQ(t.install(id(3), 3, kNoLabel), b);
  EXPECT_EQ(t.install(id(4), 4, kNoLabel), a);
  std::size_t seen = 0;
  t.for_each([&](std::uint32_t label, const LabelEntry& e) {
    ++seen;
    EXPECT_TRUE(label == a || label == b);
    EXPECT_TRUE(e.in_use);
  });
  EXPECT_EQ(seen, 2u);
}

struct TestNet {
  graph::IspTopology topo;
  std::unique_ptr<Network> net;

  explicit TestNet(Config cfg = {}, std::uint64_t seed = 4242,
                   std::size_t routers = 30, std::size_t pops = 5) {
    Rng trng(seed);
    graph::IspParams p;
    p.router_count = routers;
    p.pop_count = pops;
    topo = graph::make_isp_topology(p, trng);
    net = std::make_unique<Network>(&topo, cfg, seed + 1);
  }

  NodeId join(NodeIndex gw, HostClass cls = HostClass::kStable) {
    Identity ident = Identity::generate(net->rng());
    const JoinStats js = net->join_host(ident, gw, cls);
    EXPECT_TRUE(js.ok);
    return ident.id();
  }

  std::uint64_t counter(const char* name) {
    obs::Registry& m = net->simulator().metrics();
    return m.counter_value(m.counter(name));
  }
};

void expect_rs_eq(const RouteStats& a, const RouteStats& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.physical_hops, b.physical_hops);
  EXPECT_EQ(a.ring_hops, b.ring_hops);
  EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
}

TEST(Labels, SecondPacketServedOffLabels) {
  Config cfg;
  cfg.enable_labels = true;
  TestNet t(cfg);
  const NodeId dest = t.join(4);
  const NodeIndex src = 17;
  ASSERT_FALSE(t.net->router(src).hosts(dest));

  // First packet: greedy walk, miss, install.
  const RouteStats first = t.net->route(src, dest);
  ASSERT_TRUE(first.delivered);
  EXPECT_EQ(t.counter("labels.misses"), 1u);
  EXPECT_EQ(t.net->label_totals().flows, 1u);
  EXPECT_EQ(t.net->label_totals().entries, first.physical_hops + 1);
  EXPECT_GT(t.counter("bytes.label_install"), 0u);

  // Second packet: label replay, identical outcome.
  const RouteStats second = t.net->route(src, dest);
  EXPECT_EQ(t.counter("labels.hits"), 1u);
  EXPECT_GT(t.counter("labels.bytes_saved"), 0u);
  expect_rs_eq(first, second);
}

TEST(Labels, EquivalenceAcrossModesOverManyFlows) {
  Config on;
  on.enable_labels = true;
  TestNet a(on, 777);
  TestNet b(Config{}, 777);
  std::vector<NodeId> ids_a, ids_b;
  for (std::size_t i = 0; i < 24; ++i) {
    const auto gw = static_cast<NodeIndex>(i % a.net->router_count());
    ids_a.push_back(a.join(gw));
    ids_b.push_back(b.join(gw));
  }
  ASSERT_EQ(ids_a, ids_b);
  // Every flow routed twice: packet 1 compares greedy-vs-greedy, packet 2
  // compares labeled replay vs a second greedy walk.
  for (std::size_t i = 0; i < ids_a.size(); ++i) {
    const auto src =
        static_cast<NodeIndex>((i * 7 + 3) % a.net->router_count());
    for (int pkt = 0; pkt < 2; ++pkt) {
      const RouteStats ra = a.net->route(src, ids_a[i]);
      const RouteStats rb = b.net->route(src, ids_b[i]);
      expect_rs_eq(ra, rb);
      EXPECT_EQ(a.net->shortest_hops(src, ids_a[i]),
                b.net->shortest_hops(src, ids_b[i]));
    }
  }
  EXPECT_GT(a.counter("labels.hits"), 0u);
}

TEST(Labels, LifecycleUnderChurnStaysAuditorClean) {
  Config cfg;
  cfg.enable_labels = true;
  TestNet t(cfg);
  audit::Auditor auditor(t.net.get());
  const auto clean = [&](const char* when) {
    const audit::AuditReport rep = auditor.run();
    EXPECT_EQ(rep.hard_count(), 0u) << when << ": " << rep.to_string();
  };

  const NodeId d1 = t.join(4);
  const NodeId d2 = t.join(9);
  (void)t.join(21);
  clean("after joins");

  // Install two flows and replay one.
  (void)t.net->route(17, d1);
  (void)t.net->route(17, d1);
  (void)t.net->route(2, d2);
  EXPECT_EQ(t.net->label_totals().flows, 2u);
  EXPECT_EQ(t.counter("labels.hits"), 1u);
  clean("flows installed");

  // Graceful leave of a destination flushes every flow (labels die with
  // their pointer path -- any ring mutation invalidates wholesale).
  (void)t.net->leave_host(d1);
  EXPECT_EQ(t.net->label_totals().flows, 0u);
  EXPECT_EQ(t.net->label_totals().entries, 0u);
  EXPECT_GT(t.counter("labels.teardowns"), 0u);
  clean("after leave");

  // Next packet reinstalls; a router crash flushes again.
  (void)t.net->route(2, d2);
  (void)t.net->route(2, d2);
  ASSERT_GE(t.net->label_totals().flows, 1u);
  (void)t.net->fail_router(5);
  EXPECT_EQ(t.net->label_totals().flows, 0u);
  clean("after router crash");
  t.net->restore_router(5);
  clean("after restore");

  // Ungraceful host death (session-timeout path) also flushes.
  (void)t.net->route(11, d2);
  ASSERT_GE(t.net->label_totals().flows, 1u);
  (void)t.net->fail_host(d2);
  EXPECT_EQ(t.net->label_totals().flows, 0u);
  clean("after host crash");
}

TEST(Labels, LinkFailureFlushesFlows) {
  Config cfg;
  cfg.enable_labels = true;
  TestNet t(cfg);
  const NodeId dest = t.join(4);
  (void)t.net->route(17, dest);
  ASSERT_EQ(t.net->label_totals().flows, 1u);
  const NodeIndex u = 10;
  const NodeIndex v = t.topo.graph.neighbors(u).front().to;
  (void)t.net->fail_link(u, v);
  EXPECT_EQ(t.net->label_totals().flows, 0u);
  (void)t.net->restore_link(u, v);
  // Reinstallable afterwards.
  (void)t.net->route(17, dest);
  (void)t.net->route(17, dest);
  EXPECT_EQ(t.net->label_totals().flows, 1u);
  EXPECT_GT(t.counter("labels.hits"), 0u);
}

TEST(Labels, ChurnHarnessDigestsMatchAcrossModesAndRuns) {
  audit::ChurnConfig cc;
  cc.events = 120;
  audit::ChurnRunParams params;
  params.router_count = 40;
  params.pop_count = 6;
  params.initial_hosts = 24;
  params.seed = 31;
  const auto schedule = audit::make_churn_schedule(cc, params.seed);

  params.net_cfg.enable_labels = true;
  const audit::ChurnRunResult on1 = audit::run_churn(params, schedule);
  const audit::ChurnRunResult on2 = audit::run_churn(params, schedule);
  params.net_cfg.enable_labels = false;
  const audit::ChurnRunResult off = audit::run_churn(params, schedule);

  EXPECT_TRUE(on1.converged) << on1.err;
  EXPECT_EQ(on1.hard, 0u);
  // Same-seed labels-on double run: bit-identical everything.
  EXPECT_EQ(on1.digest, on2.digest);
  EXPECT_EQ(on1.routes_digest, on2.routes_digest);
  EXPECT_EQ(on1.metrics_json, on2.metrics_json);
  // Across modes only the routes digest is comparable (label audit checks
  // change check counts; labeled frames change byte counters).
  EXPECT_EQ(on1.routes_digest, off.routes_digest);
}

}  // namespace
}  // namespace rofl::intra
