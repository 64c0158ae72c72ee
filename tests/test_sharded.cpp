#include "sim/sharded.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "audit/shard_audit.hpp"
#include "interdomain/shard_model.hpp"
#include "sim/profiler.hpp"
#include "util/spsc_queue.hpp"

namespace rofl {
namespace {

TEST(SpscQueue, FifoAndBounds) {
  util::SpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(q.pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_FALSE(q.push(99));  // full
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.pop(out));
  // Wraparound: the free-running indices must keep masking correctly.
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(q.push(round));
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, round);
  }
}

TEST(BalancedShardMap, CoversAndBalances) {
  const std::vector<std::uint64_t> weights = {100, 1, 1, 1, 50, 49, 1, 1};
  const auto map = sim::balanced_shard_map(weights, 2);
  ASSERT_EQ(map.size(), weights.size());
  std::vector<std::uint64_t> load(2, 0);
  for (std::size_t e = 0; e < map.size(); ++e) {
    ASSERT_LT(map[e], 2u);
    load[map[e]] += weights[e];
  }
  // Greedy largest-first keeps the heavy entity alone-ish: both shards get
  // close to half the total weight (204/2 = 102).
  EXPECT_LE(load[0] > load[1] ? load[0] - load[1] : load[1] - load[0], 10u);
  // Deterministic: same inputs, same map.
  EXPECT_EQ(sim::balanced_shard_map(weights, 2), map);
}

TEST(ShardedSimulator, MergedResultsIndependentOfShardCount) {
  // A toy model exercising the engine directly: every entity forwards a hop
  // counter to an rng-chosen peer until a TTL runs out, counting hops and
  // observing per-hop timestamps.  Any shard-count dependence in ordering or
  // rng-stream assignment shows up as diverging metrics.
  constexpr sim::EntityId kEntities = 17;
  struct Snapshot {
    std::string metrics;
    std::uint64_t processed = 0;
    std::uint64_t entity_msgs = 0;
  };
  const auto run_with = [&](std::uint32_t shards) {
    sim::ShardedSimulator::Config cfg;
    cfg.shards = shards;
    cfg.lookahead_ms = 0.5;
    cfg.seed = 42;
    std::vector<std::uint32_t> map(kEntities);
    for (sim::EntityId e = 0; e < kEntities; ++e) map[e] = e % shards;
    sim::ShardedSimulator eng(map, cfg);
    obs::MetricId hops{}, times{};
    eng.set_registry_init([&](obs::Registry& r) {
      hops = r.counter("toy.hops");
      times = r.histogram("toy.when",
                          obs::Histogram::linear_bounds(0.0, 4.0, 16));
    });
    eng.set_handler([&](sim::ShardContext& ctx, const sim::ShardEvent& ev) {
      std::uint32_t ttl = 0;
      std::memcpy(&ttl, ev.payload.data(), sizeof ttl);
      ctx.metrics().add(hops, 1);
      ctx.metrics().observe(times, ev.when);  // integral-ish sample: exact sum
      if (ttl == 0) return;
      const std::uint32_t next_ttl = ttl - 1;
      const auto dst = static_cast<sim::EntityId>(
          ctx.rng().below(kEntities));
      const double delay =
          0.5 * (1.0 + static_cast<double>(ctx.rng().below(4)));
      ctx.send(dst, delay, 1, &next_ttl, sizeof next_ttl);
    });
    for (sim::EntityId e = 0; e < kEntities; ++e) {
      const std::uint32_t ttl = 12;
      eng.seed_event(0.25 * e, e, 1, &ttl, sizeof ttl);
    }
    const auto stats = eng.run();
    return Snapshot{eng.merged_metrics().to_json(2), stats.processed,
                    stats.entity_msgs};
  };

  const Snapshot one = run_with(1);
  for (const std::uint32_t shards : {2u, 3u, 5u}) {
    const Snapshot s = run_with(shards);
    EXPECT_EQ(s.metrics, one.metrics) << "shards=" << shards;
    EXPECT_EQ(s.processed, one.processed) << "shards=" << shards;
    EXPECT_EQ(s.entity_msgs, one.entity_msgs) << "shards=" << shards;
  }
}

TEST(ShardedSimulator, FullChannelsDoNotDeadlock) {
  // Regression: two shards that each flood the other through a tiny channel
  // both end up blocked in ShardContext::send.  A sender that did not drain
  // its own inbound channels while it waited hung forever here; ctest's
  // timeout on this test turns a relapse into a failure, not a hang.
  struct Snapshot {
    std::string metrics;
    std::uint64_t processed = 0;
  };
  const auto run_with = [](std::uint32_t shards) {
    sim::ShardedSimulator::Config cfg;
    cfg.shards = shards;
    cfg.lookahead_ms = 1.0;
    cfg.channel_capacity = 4;
    sim::ShardedSimulator eng({0, shards - 1}, cfg);
    obs::MetricId received{}, times{};
    eng.set_registry_init([&](obs::Registry& r) {
      received = r.counter("toy.received");
      times = r.histogram("toy.when",
                          obs::Histogram::linear_bounds(0.0, 1.0, 8));
    });
    eng.set_handler([&](sim::ShardContext& ctx, const sim::ShardEvent& ev) {
      if (ev.kind == 0) {  // seed: flood the other entity
        for (std::uint32_t i = 0; i < 100; ++i) {
          ctx.send(1 - ctx.self(), 1.0 + i % 4, 1);
        }
        return;
      }
      ctx.metrics().add(received, 1);
      ctx.metrics().observe(times, ev.when);
    });
    eng.seed_event(0.0, 0, 0);
    eng.seed_event(0.0, 1, 0);
    const auto stats = eng.run();
    return Snapshot{eng.merged_metrics().to_json(2), stats.processed};
  };
  const Snapshot one = run_with(1);
  EXPECT_EQ(one.processed, 202u);
  const Snapshot two = run_with(2);
  EXPECT_EQ(two.processed, one.processed);
  EXPECT_EQ(two.metrics, one.metrics);
}

inter::ScaleParams small_params(std::uint32_t shards) {
  inter::ScaleParams p;
  p.topo.tier1_count = 4;
  p.topo.tier2_count = 10;
  p.topo.tier3_count = 30;
  p.topo.stub_count = 160;
  p.hosts = 2'000;
  p.duration_ms = 300.0;
  p.shards = shards;
  p.seed = 7;
  p.trace_sample = 4;  // small enough that traces actually fire
  return p;
}

// The acceptance gate from ISSUE 6, as a ctest: same seed at shard counts
// {1, 2, 3} must produce bit-identical merged metrics, flight-recorder
// digests, and shard-audit reports -- and the audit must be clean.
TEST(ShardScaleModel, ShardCountInvarianceAndCleanAudit) {
  struct Snapshot {
    std::string metrics;
    std::uint64_t flight = 0;
    std::string audit;
    bool clean = false;
    std::uint64_t events = 0;
  };
  const auto run_with = [](std::uint32_t shards) {
    inter::ShardScaleModel model(small_params(shards));
    const auto stats = model.run();
    const audit::ShardAuditReport rep = audit::audit_scale_run(model);
    return Snapshot{model.merged_metrics().to_json(2), model.flight_digest(),
                    rep.digest(), rep.clean(), stats.processed};
  };

  const Snapshot one = run_with(1);
  EXPECT_TRUE(one.clean) << "1-shard audit not clean";
  EXPECT_NE(one.flight, 0u) << "trace sampling never fired";
  EXPECT_GT(one.events, 1'000u);
  for (const std::uint32_t shards : {2u, 3u}) {
    const Snapshot s = run_with(shards);
    EXPECT_TRUE(s.clean) << "shards=" << shards;
    EXPECT_EQ(s.metrics, one.metrics) << "shards=" << shards;
    EXPECT_EQ(s.flight, one.flight) << "shards=" << shards;
    EXPECT_EQ(s.audit, one.audit) << "shards=" << shards;
    EXPECT_EQ(s.events, one.events) << "shards=" << shards;
  }
}

// The engine self-profile reads the wall clock around every handler and
// never feeds it back (DESIGN.md section 14): a profiled run must produce the
// unprofiled run's merged metrics and flight digest bit for bit, and the
// per-shard event counts must account for every dispatched event.
TEST(ShardScaleModel, ProfiledRunMatchesUnprofiledAndCountsEveryEvent) {
  for (const std::uint32_t shards : {1u, 2u}) {
    inter::ShardScaleModel plain(small_params(shards));
    (void)plain.run();
    EXPECT_EQ(plain.profiler(), nullptr);

    inter::ScaleParams p = small_params(shards);
    p.profile = true;
    inter::ShardScaleModel profiled(p);
    const auto stats = profiled.run();
    EXPECT_EQ(profiled.merged_metrics().to_json(2),
              plain.merged_metrics().to_json(2))
        << "shards=" << shards;
    EXPECT_EQ(profiled.flight_digest(), plain.flight_digest())
        << "shards=" << shards;

    ASSERT_NE(profiled.profiler(), nullptr);
    const auto& profiles = profiled.profiler()->shards();
    ASSERT_EQ(profiles.size(), shards);
    std::uint64_t events = 0;
    for (const sim::EngineProfiler::ShardProfile& sp : profiles) {
      std::uint64_t by_kind = 0;
      for (const sim::EngineProfiler::KindStats& k : sp.kinds) {
        by_kind += k.events;
      }
      EXPECT_EQ(by_kind, sp.events) << "shards=" << shards;
      events += sp.events;
    }
    EXPECT_GT(stats.processed, 1'000u);
    EXPECT_EQ(events, stats.processed) << "shards=" << shards;
  }
}

// Lookahead violations must be caught, not silently reordered: a cross-
// entity send below the conservative bound dies in debug builds and the
// run stats expose the observed minimum for the auditor in release.
TEST(ShardScaleModel, RunStatsExposeLookaheadBound) {
  inter::ShardScaleModel model(small_params(2));
  (void)model.run();
  const auto& stats = model.engine().stats();
  EXPECT_TRUE(stats.monotone);
  EXPECT_GE(stats.min_cross_delay_ms,
            model.params().lookahead_ms - 1e-9);
}

}  // namespace
}  // namespace rofl
