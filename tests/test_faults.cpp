// Tests for the fault-injection layer (sim/faults) and its wiring into the
// intradomain engine: deterministic decision streams, faults.* accounting,
// retry-with-backoff on the control plane, data-plane drops, and the
// idempotence of fail_link/restore_link under redundant flap events.
#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include "audit/churn.hpp"
#include "obs/flight_recorder.hpp"
#include "rofl/network.hpp"
#include "rofl/sim_wire.hpp"

namespace rofl {
namespace {

using intra::Config;
using intra::Network;

sim::FaultPlan lossy_plan(double loss, double dup = 0.0, double jitter = 0.0) {
  sim::FaultPlan plan;
  plan.defaults.loss = loss;
  plan.defaults.duplicate = dup;
  plan.defaults.jitter_ms = jitter;
  return plan;
}

TEST(FaultPlan, MessageFaultsPossible) {
  const auto message_faults_possible = [](const sim::FaultPlan& plan) {
    obs::Registry reg;
    return sim::FaultInjector(plan, 1, &reg).message_faults_enabled();
  };
  sim::FaultPlan plan;
  EXPECT_FALSE(message_faults_possible(plan));
  plan.link_flaps.push_back(sim::LinkFlap{0, 1, 10.0, 20.0});
  plan.crash_windows.push_back(sim::CrashWindow{2, 10.0, 20.0});
  // Schedules alone need no per-transmission branch.
  EXPECT_FALSE(message_faults_possible(plan));
  sim::FaultPlan plan2;
  plan2.defaults.jitter_ms = 1.0;
  EXPECT_TRUE(message_faults_possible(plan2));
}

TEST(FaultInjector, SameSeedReproducesEveryDecision) {
  obs::Registry reg_a;
  obs::Registry reg_b;
  sim::FaultInjector a(lossy_plan(0.2, 0.1, 2.0), 99, &reg_a);
  sim::FaultInjector b(lossy_plan(0.2, 0.1, 2.0), 99, &reg_b);
  for (int i = 0; i < 2000; ++i) {
    const sim::FaultDecision da = a.on_link();
    const sim::FaultDecision db = b.on_link();
    ASSERT_EQ(da.dropped, db.dropped) << i;
    ASSERT_EQ(da.copies, db.copies) << i;
    ASSERT_DOUBLE_EQ(da.extra_latency_ms, db.extra_latency_ms) << i;
  }
  EXPECT_EQ(a.dropped(), b.dropped());
  EXPECT_EQ(a.duplicated(), b.duplicated());
  EXPECT_EQ(a.delayed(), b.delayed());
  EXPECT_GT(a.dropped(), 0u);
  EXPECT_GT(a.duplicated(), 0u);
  EXPECT_GT(a.delayed(), 0u);
}

TEST(FaultInjector, ExtremeKnobsBehaveAsSpecified) {
  obs::Registry reg;
  sim::FaultInjector always_drop(lossy_plan(1.0), 1, &reg);
  for (int i = 0; i < 10; ++i) {
    const sim::FaultDecision d = always_drop.on_link();
    EXPECT_TRUE(d.dropped);
    EXPECT_EQ(d.copies, 1u);  // the lost copy was still transmitted once
  }
  obs::Registry reg2;
  sim::FaultInjector always_dup(lossy_plan(0.0, 1.0), 1, &reg2);
  for (int i = 0; i < 10; ++i) {
    const sim::FaultDecision d = always_dup.on_link();
    EXPECT_FALSE(d.dropped);
    EXPECT_EQ(d.copies, 2u);
  }
}

TEST(FaultInjector, OnPathStopsAtFirstDrop) {
  obs::Registry reg;
  sim::FaultInjector inj(lossy_plan(1.0), 5, &reg);
  const sim::PathDecision p = inj.on_path(10);
  EXPECT_TRUE(p.dropped);
  EXPECT_EQ(p.transmissions, 1u);  // legs past the drop are never sent
  obs::Registry reg2;
  sim::FaultInjector reliable(lossy_plan(0.0, 0.0, 0.5), 5, &reg2);
  const sim::PathDecision q = reliable.on_path(10);
  EXPECT_FALSE(q.dropped);
  EXPECT_EQ(q.transmissions, 10u);
  EXPECT_GT(q.extra_latency_ms, 0.0);
}

TEST(SimWireRetry, BacksOffUntilDeliveredOrExhausted) {
  obs::Registry reg;
  sim::FaultInjector inj(lossy_plan(0.5), 5, &reg);
  const sim::RetryPolicy policy{/*max_attempts=*/4, /*timeout_ms=*/10.0,
                                /*backoff=*/3.0, /*max_timeout_ms=*/50.0};
  // Lost twice, then delivered: two timeouts waited, in order.
  int calls = 0;
  simwire::Retried r = simwire::retry(policy, inj, [&] {
    return ++calls < 3 ? simwire::Delivery::kLost
                       : simwire::Delivery::kDelivered;
  });
  EXPECT_EQ(r.outcome, simwire::Delivery::kDelivered);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(r.waited_ms, 10.0 + 30.0);
  EXPECT_EQ(inj.retries(), 2u);
  EXPECT_EQ(inj.retries_exhausted(), 0u);
  // Never delivered: every attempt spent, the timeout capped, one
  // exhaustion counted.
  calls = 0;
  r = simwire::retry(policy, inj, [&] {
    ++calls;
    return simwire::Delivery::kLost;
  });
  EXPECT_EQ(r.outcome, simwire::Delivery::kLost);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(r.waited_ms, 10.0 + 30.0 + 50.0 + 50.0);
  EXPECT_EQ(inj.retries(), 5u);
  EXPECT_EQ(inj.retries_exhausted(), 1u);
  // No path: resending cannot help, so the first attempt is the last.
  calls = 0;
  r = simwire::retry(policy, inj, [&] {
    ++calls;
    return simwire::Delivery::kNoPath;
  });
  EXPECT_EQ(r.outcome, simwire::Delivery::kNoPath);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(r.waited_ms, 0.0);
  EXPECT_EQ(inj.retries_exhausted(), 1u);
}

TEST(SimWireReceive, GarbledFramesAreRejectedAndCleanOnesDecode) {
  const std::vector<std::uint8_t> frame = wire::msg::encode_control(
      wire::msg::Teardown{.id = NodeId(7, 9), .reason = 2}, NodeId(1, 1),
      NodeId(2, 2));
  ASSERT_FALSE(frame.empty());
  // No injector: the receiver decodes the frame as sent.
  const auto clean = simwire::receive(frame, nullptr);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(std::get<wire::msg::Teardown>(*clean).id, NodeId(7, 9));
  // Every frame garbled: each one is rejected, and each flip is counted.
  obs::Registry reg;
  sim::FaultPlan plan;
  plan.defaults.corrupt = 1.0;
  sim::FaultInjector inj(plan, 5, &reg);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(simwire::receive(frame, &inj).has_value());
  }
  EXPECT_EQ(inj.corrupted(), 50u);
}

// -- intradomain wiring ------------------------------------------------------

struct Fix {
  graph::IspTopology topo;
  std::unique_ptr<Network> net;

  explicit Fix(std::uint64_t seed = 17, Config cfg = {}) {
    Rng trng(seed);
    graph::IspParams p;
    p.router_count = 24;
    p.pop_count = 4;
    topo = graph::make_isp_topology(p, trng);
    net = std::make_unique<Network>(&topo, cfg, seed + 1);
  }

  // A real backbone edge to flap.
  [[nodiscard]] std::pair<graph::NodeIndex, graph::NodeIndex> some_edge()
      const {
    for (graph::NodeIndex u = 0; u < topo.graph.node_count(); ++u) {
      for (const graph::Edge& e : topo.graph.neighbors(u)) {
        if (e.to > u) return {u, e.to};
      }
    }
    return {0, 1};
  }
};

TEST(NetworkFaults, InertInjectorIsZeroCost) {
  // An installed injector whose plan has no message faults must leave the
  // run byte-identical to a run with no injector at all (acceptance
  // criterion: one branch on the send path when off).
  Fix plain(21);
  Fix inert(21);
  obs::Registry side_reg;  // NOT the simulator registry: ids must not shift
  sim::FaultInjector inj(sim::FaultPlan{}, 5, &side_reg);
  ASSERT_FALSE(inj.message_faults_enabled());
  inert.net->set_fault_injector(&inj);

  for (int i = 0; i < 25; ++i) {
    (void)plain.net->join_random_host();
    (void)inert.net->join_random_host();
  }
  for (graph::NodeIndex r = 0; r < 24; ++r) {
    for (const auto& [id, host] : plain.net->directory()) {
      EXPECT_EQ(plain.net->route(r, id).delivered,
                inert.net->route(r, id).delivered);
      break;
    }
  }
  EXPECT_EQ(plain.net->simulator().counters().total(),
            inert.net->simulator().counters().total());
  EXPECT_EQ(plain.net->simulator().metrics().to_json(),
            inert.net->simulator().metrics().to_json());
}

TEST(NetworkFaults, LossyControlPlaneRetriesAndConverges) {
  Fix f(31);
  sim::FaultInjector inj(lossy_plan(0.15), 404,
                         &f.net->simulator().metrics());
  f.net->set_fault_injector(&inj);
  int ok = 0;
  for (int i = 0; i < 30; ++i) ok += f.net->join_random_host().ok ? 1 : 0;
  // Retransmission made most joins land despite 15% per-hop loss.
  EXPECT_GT(ok, 20);
  EXPECT_GT(inj.dropped(), 0u);
  EXPECT_GT(inj.retries(), 0u);
  // A retry costs messages and latency: joins are strictly pricier than the
  // fault-free baseline of the same seed.
  Fix base(31);
  EXPECT_GT(f.net->simulator().counters().total(),
            [&] {
              for (int i = 0; i < 30; ++i) (void)base.net->join_random_host();
              return base.net->simulator().counters().total();
            }());
  // Once the loss clears, one repair pass restores the strict ring
  // invariants regardless of what the losses mangled.
  f.net->set_fault_injector(nullptr);
  (void)f.net->repair_partitions();
  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err, /*strict=*/true)) << err;
}

TEST(NetworkFaults, DataPlaneDropsAreChargedAndRecorded) {
  Fix f(41);
  for (int i = 0; i < 20; ++i) (void)f.net->join_random_host();
  obs::FlightRecorder rec(1 << 12);
  f.net->set_flight_recorder(&rec);
  sim::FaultInjector inj(lossy_plan(0.3), 777, &f.net->simulator().metrics());
  f.net->set_fault_injector(&inj);

  int delivered = 0;
  int attempts = 0;
  for (const auto& [id, host] : f.net->directory()) {
    for (graph::NodeIndex r = 0; r < 24; r += 3) {
      ++attempts;
      delivered += f.net->route(r, id).delivered ? 1 : 0;
    }
  }
  // 30% per-hop loss must lose some packets and deliver others.
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, attempts);
  EXPECT_GT(inj.dropped(), 0u);
  bool saw_fault_drop = false;
  for (const obs::HopRecord& h : rec.all()) {
    if (h.kind == obs::HopKind::kFaultDrop) saw_fault_drop = true;
  }
  EXPECT_TRUE(saw_fault_drop);
}

TEST(NetworkFaults, RedundantLinkFailAndRestoreAreNoOps) {
  // Regression: a scheduled flap and a manual call (or overlapping flap
  // windows) failing the same link twice used to re-flood the LSA and
  // re-invalidate every pointer cache; the second call must now be free.
  Fix f(51);
  for (int i = 0; i < 10; ++i) (void)f.net->join_random_host();
  const auto [u, v] = f.some_edge();

  (void)f.net->fail_link(u, v);
  const std::uint64_t after_first =
      f.net->simulator().counters().get(sim::MsgCategory::kLinkState);
  const auto redundant = f.net->fail_link(u, v);
  EXPECT_EQ(redundant.messages, 0u);
  EXPECT_EQ(redundant.pointers_torn, 0u);
  EXPECT_EQ(f.net->simulator().counters().get(sim::MsgCategory::kLinkState),
            after_first);

  (void)f.net->restore_link(u, v);
  const std::uint64_t after_restore =
      f.net->simulator().counters().get(sim::MsgCategory::kLinkState);
  const auto redundant_up = f.net->restore_link(u, v);
  EXPECT_EQ(redundant_up.messages, 0u);
  EXPECT_EQ(f.net->simulator().counters().get(sim::MsgCategory::kLinkState),
            after_restore);

  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err, /*strict=*/true)) << err;
}

TEST(NetworkFaults, ScheduledFlapsFireOnceAndHeal) {
  Fix f(61);
  for (int i = 0; i < 15; ++i) (void)f.net->join_random_host();
  const auto [u, v] = f.some_edge();

  sim::FaultPlan plan;  // schedule only; no message faults
  plan.link_flaps.push_back(sim::LinkFlap{u, v, 10.0, 50.0});
  // A second overlapping window for the same link: its down event finds the
  // link already down and must do nothing.
  plan.link_flaps.push_back(sim::LinkFlap{u, v, 20.0, 50.0});
  sim::FaultInjector inj(plan, 9, &f.net->simulator().metrics());
  f.net->set_fault_injector(&inj);
  f.net->schedule_fault_plan(plan);

  f.net->simulator().run_until(30.0);
  EXPECT_FALSE(f.topo.graph.link_up(u, v));
  EXPECT_EQ(inj.flaps(), 1u);  // the overlapping window was a no-op
  f.net->simulator().run_until(100.0);
  EXPECT_TRUE(f.topo.graph.link_up(u, v));

  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err, /*strict=*/true)) << err;
  for (const auto& [id, host] : f.net->directory()) {
    EXPECT_TRUE(f.net->route(u, id).delivered);
  }
}

TEST(NetworkFaults, CorruptionConvergesAndCountsRejections) {
  // Frame corruption behaves as loss: the CRC check rejects every mangled
  // frame, retry/backoff re-drives the exchange, and the ring converges once
  // faults clear.
  Fix f(83);
  sim::FaultPlan plan = lossy_plan(0.05);
  plan.defaults.corrupt = 0.02;
  sim::FaultInjector inj(plan, 607, &f.net->simulator().metrics());
  ASSERT_TRUE(inj.corruption_enabled());
  f.net->set_fault_injector(&inj);
  int ok = 0;
  for (int i = 0; i < 40; ++i) ok += f.net->join_random_host().ok ? 1 : 0;
  EXPECT_GT(ok, 25);
  EXPECT_GT(inj.corrupted(), 0u);
  f.net->set_fault_injector(nullptr);
  (void)f.net->repair_partitions();
  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err, /*strict=*/true)) << err;
}

TEST(NetworkFaults, ChurnUnderCorruptionIsDeterministicAndConverges) {
  // The acceptance gate for the wire-first refactor: 5% loss plus 1e-3
  // frame corruption, full churn schedule, and two same-seed runs must
  // produce byte-identical digests and metrics snapshots.
  audit::ChurnConfig cc;
  cc.events = 120;
  cc.end_ms = 240.0;
  audit::ChurnRunParams params;
  params.router_count = 40;
  params.pop_count = 6;
  params.initial_hosts = 32;
  params.seed = 11;
  params.use_faults = true;
  params.faults.defaults.loss = 0.05;
  params.faults.defaults.corrupt = 1e-3;
  const auto schedule = audit::make_churn_schedule(cc, params.seed);
  const audit::ChurnRunResult a = audit::run_churn(params, schedule);
  const audit::ChurnRunResult b = audit::run_churn(params, schedule);
  EXPECT_TRUE(a.converged) << a.err;
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.hard, 0u);
}

TEST(NetworkFaults, CrashWindowRunsFailAndRestore) {
  Fix f(71);
  for (int i = 0; i < 15; ++i) (void)f.net->join_random_host();

  sim::FaultPlan plan;
  plan.crash_windows.push_back(sim::CrashWindow{3, 5.0, 40.0});
  sim::FaultInjector inj(plan, 9, &f.net->simulator().metrics());
  f.net->set_fault_injector(&inj);
  f.net->schedule_fault_plan(plan);

  f.net->simulator().run_until(20.0);
  EXPECT_FALSE(f.topo.graph.node_up(3));
  EXPECT_EQ(inj.crashes(), 1u);
  f.net->simulator().run_until(60.0);
  EXPECT_TRUE(f.topo.graph.node_up(3));
  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err, /*strict=*/true)) << err;
}

}  // namespace
}  // namespace rofl
