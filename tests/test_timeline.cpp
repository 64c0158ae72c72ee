// Unit tests for obs::Timeline (windowed metric sampling) and the engine
// profiler hook: window-delta attribution on the sim clock, ring-capacity
// eviction, commutative merging, shard-count independence of the merged
// timeline, and live counter-track emission into the trace exporter.
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "interdomain/shard_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"

namespace rofl::obs {
namespace {

TEST(Timeline, DegenerateConfigIsSanitizedToDefaults) {
  // Regression: "--timeline-window 0" used to reach the constructor
  // unchecked; a zero-width window makes advance_to close windows forever
  // (and the guarding asserts vanish in Release).  The constructor now
  // repairs non-finite/non-positive widths and a zero capacity back to the
  // documented defaults.
  Registry reg;
  const MetricId c = reg.counter("ops");
  const Timeline::Config defaults;
  for (const double bad :
       {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    Timeline tl(&reg, Timeline::Config{bad, 8});
    EXPECT_EQ(tl.window_ms(), defaults.window_ms);
    reg.add(c, 1);
    tl.flush(10.0);  // must terminate and attribute normally
    ASSERT_GE(tl.size(), 1u);
  }
  Timeline zero_cap(&reg, Timeline::Config{10.0, 0});
  EXPECT_EQ(zero_cap.capacity(), defaults.capacity);
}

TEST(Timeline, DeltasLandInTheWindowContainingTheActivity) {
  Registry reg;
  const MetricId c = reg.counter("ops");
  Timeline tl(&reg, Timeline::Config{10.0, 64});

  reg.add(c, 3);       // before any close: belongs to window 0
  tl.advance_to(25.0); // closes windows 0 and 1
  reg.add(c, 5);       // belongs to window 2
  tl.flush(25.0);      // closes window 2

  ASSERT_EQ(tl.size(), 3u);
  EXPECT_EQ(tl.window(0).counters[c], 3u);
  EXPECT_EQ(tl.window(1).counters[c], 0u);
  EXPECT_EQ(tl.window(2).counters[c], 5u);
  EXPECT_EQ(tl.counter_series("ops"), (std::vector<std::uint64_t>{3, 0, 5}));
}

TEST(Timeline, BaselineSnapshotExcludesPreCreationActivity) {
  Registry reg;
  const MetricId c = reg.counter("ops");
  reg.add(c, 100);  // setup burst before the timeline attaches

  Timeline tl(&reg, Timeline::Config{10.0, 64});
  reg.add(c, 7);
  tl.flush(0.0);

  ASSERT_EQ(tl.size(), 1u);
  EXPECT_EQ(tl.window(0).counters[c], 7u);  // not 107
}

TEST(Timeline, SimulatorAdvancesWindowsOnTheSimClock) {
  sim::Simulator sim;
  const MetricId c = sim.metrics().counter("work");
  Timeline tl(&sim.metrics(), Timeline::Config{10.0, 64});
  sim.set_timeline(&tl);

  Registry* reg = &sim.metrics();
  sim.schedule_at(5.0, [reg, c] { reg->add(c, 1); });
  sim.schedule_at(15.0, [reg, c] { reg->add(c, 2); });
  sim.schedule_at(35.0, [reg, c] { reg->add(c, 4); });
  sim.run();
  tl.flush(sim.now_ms());

  // Window 0 holds the t=5 add, window 1 the t=15 add, window 3 the t=35
  // add; window 2 closed empty in between.
  ASSERT_EQ(tl.size(), 4u);
  EXPECT_EQ(tl.counter_series("work"),
            (std::vector<std::uint64_t>{1, 2, 0, 4}));
  // The engine's own dispatch counter is windowed the same way.
  EXPECT_EQ(tl.counter_series("sim.events"),
            (std::vector<std::uint64_t>{1, 1, 0, 1}));
  sim.set_timeline(nullptr);
}

TEST(Timeline, RingCapacityEvictsOldestWindows) {
  Registry reg;
  const MetricId c = reg.counter("ops");
  Timeline tl(&reg, Timeline::Config{10.0, 4});

  for (int w = 0; w < 10; ++w) {
    reg.add(c, static_cast<std::uint64_t>(w + 1));
    tl.advance_to((w + 1) * 10.0);  // closes window w
  }

  EXPECT_EQ(tl.size(), 4u);
  EXPECT_EQ(tl.dropped(), 6u);
  EXPECT_EQ(tl.first_index(), 6u);
  EXPECT_EQ(tl.counter_series("ops"),
            (std::vector<std::uint64_t>{7, 8, 9, 10}));
}

TEST(Timeline, GaugesReportValueAtWindowClose) {
  Registry reg;
  const MetricId g = reg.gauge("depth");
  Timeline tl(&reg, Timeline::Config{10.0, 64});

  reg.set(g, 3.0);
  tl.advance_to(10.0);
  reg.set(g, 1.5);
  tl.flush(10.0);

  ASSERT_EQ(tl.size(), 2u);
  EXPECT_DOUBLE_EQ(tl.window(0).gauges[g], 3.0);
  EXPECT_DOUBLE_EQ(tl.window(1).gauges[g], 1.5);
}

TEST(Timeline, HistogramWindowsCarryBucketDeltasAndPercentiles) {
  Registry reg;
  const MetricId h = reg.histogram("hops", std::vector<double>{1.0, 2.0, 4.0});
  Timeline tl(&reg, Timeline::Config{10.0, 64});

  reg.observe(h, 1.0);
  reg.observe(h, 3.0);
  tl.advance_to(10.0);
  reg.observe(h, 99.0);  // overflow bucket
  tl.flush(10.0);

  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl.window(0).hists[h].count, 2u);
  EXPECT_EQ(tl.window(0).hists[h].buckets,
            (std::vector<std::uint64_t>{1, 0, 1, 0}));
  EXPECT_EQ(tl.window(1).hists[h].count, 1u);
  EXPECT_EQ(tl.window(1).hists[h].buckets,
            (std::vector<std::uint64_t>{0, 0, 0, 1}));

  const std::string jsonl = tl.to_jsonl();
  EXPECT_NE(jsonl.find("\"hops\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"p99\""), std::string::npos);
}

TEST(Timeline, MergeIsCommutativeAndGaugesTakeTheMax) {
  Registry r1, r2;
  const MetricId c1 = r1.counter("ops");
  const MetricId g1 = r1.gauge("depth");
  const MetricId c2 = r2.counter("ops");
  const MetricId g2 = r2.gauge("depth");

  Timeline a(&r1, Timeline::Config{10.0, 64});
  Timeline b(&r2, Timeline::Config{10.0, 64});
  r1.add(c1, 3);
  r1.set(g1, 5.0);
  a.flush(0.0);
  r2.add(c2, 4);
  r2.set(g2, 2.0);
  b.flush(15.0);  // b closes windows 0 and 1; a only window 0

  Timeline ab(Timeline::Config{10.0, 64});
  ab.merge_from(a);
  ab.merge_from(b);
  Timeline ba(Timeline::Config{10.0, 64});
  ba.merge_from(b);
  ba.merge_from(a);

  EXPECT_EQ(ab.to_jsonl(), ba.to_jsonl());
  ASSERT_EQ(ab.size(), 2u);
  EXPECT_EQ(ab.window(0).counters[0], 7u);
  EXPECT_DOUBLE_EQ(ab.window(0).gauges[0], 5.0);  // max, not sum
}

TEST(Timeline, MergedTimelineIsShardCountIndependent) {
  const auto run = [](std::uint32_t shards) {
    inter::ScaleParams p;
    p.hosts = 2'000;
    p.duration_ms = 200.0;
    p.shards = shards;
    p.seed = 7;
    p.timeline_window_ms = 20.0;
    p.topo.tier2_count = 6;
    p.topo.tier3_count = 25;
    p.topo.stub_count = 120;
    inter::ShardScaleModel model(p);
    (void)model.run();
    return model.merged_timeline().to_jsonl();
  };

  const std::string one = run(1);
  const std::string two = run(2);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  // The canonical events/sec series is present.
  EXPECT_NE(one.find("\"sim.events\""), std::string::npos);
}

TEST(Timeline, TraceSinkEmitsCounterEventsAtWindowClose) {
  Registry reg;
  const MetricId c = reg.counter("ops");
  (void)reg.counter("quiet");  // zero delta: must not emit a track
  Tracer tracer;
  Timeline tl(&reg, Timeline::Config{10.0, 64});
  tl.set_trace_sink(&tracer, 2);

  reg.add(c, 9);
  tl.flush(0.0);

  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ops\""), std::string::npos);
  EXPECT_EQ(json.find("\"quiet\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 9"), std::string::npos);
}

TEST(EngineProfiler, AttributesBusyTimePerKindAndExportsJson) {
  sim::EngineProfiler prof(1);
  prof.set_kind_names({"", "tick", "lookup"});
  sim::EngineProfiler::ShardProfile& p = prof.shard(0);
  p.add_event(1, 0.25);
  p.add_event(2, 0.5);
  p.add_event(2, 0.5);
  p.busy_s = 1.25;
  p.stall_s = 0.5;
  p.idle_s = 0.75;

  EXPECT_EQ(p.events, 3u);
  EXPECT_DOUBLE_EQ(p.busy_frac(), 0.5);
  EXPECT_DOUBLE_EQ(p.stall_frac(), 0.2);

  const std::string json = prof.to_json();
  EXPECT_NE(json.find("\"busy_frac\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"lookup\""), std::string::npos);
  EXPECT_NE(json.find("\"spsc_hwm\""), std::string::npos);
}

}  // namespace
}  // namespace rofl::obs
