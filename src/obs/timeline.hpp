// timeline.hpp -- windowed time-series sampling over an obs::Registry.
//
// The paper's evaluation is trajectory-shaped: convergence traffic after a
// partition (figure 7), join overhead over time (figure 5 / section 6.3),
// stretch under churn (figure 8).  End-of-run Registry snapshots flatten all
// of that into one number, so every transient -- churn spikes, retry storms,
// lookahead stalls -- is invisible.  A Timeline fixes it: the engine drives
// it on the *simulation* clock, and at every fixed-width window boundary it
// records the per-window *delta* of every registry counter, the gauge values
// at window close, and the per-window histogram bucket deltas, into a
// bounded ring of window samples.
//
// Determinism contract (the same one Registry::merge_from obeys, DESIGN.md
// section 13/14): window membership is decided purely by event timestamps,
// deltas add, gauges take the max, histogram buckets add.  merge_from is
// therefore commutative and associative, and per-shard timelines fold into a
// merged timeline that is bit-identical for every shard count -- provided
// every shard closes the same window range, which the sharded engine
// guarantees by flushing all shards to the global end time at quiescence.
// Nothing here reads the wall clock; wall-time provenance belongs in the
// trailer lines the exporters append, never in window records.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace rofl::obs {

class Tracer;

class Timeline {
 public:
  struct Config {
    /// Window width on the simulation clock.  Non-finite or non-positive
    /// widths (and a zero capacity) are replaced by these defaults at
    /// construction -- a zero-width window would close windows forever.
    double window_ms = 50.0;
    /// Windows retained; when a run closes more, the oldest are dropped.
    /// Shard-count independence of the retained range holds as long as every
    /// per-shard timeline uses the same capacity (they drop identically).
    std::size_t capacity = 4096;
  };

  /// Per-window histogram activity: count/sum deltas plus per-bucket count
  /// deltas (overflow last), from which windowed percentiles are computed at
  /// export time -- after merging, so percentiles are taken over the merged
  /// distribution, never averaged across shards.
  struct HistWindow {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<std::uint64_t> buckets;
  };

  /// One closed window.  Vectors are indexed by MetricId at close time; a
  /// metric registered after a window closed simply has no entry there
  /// (treated as zero by exports and merges).
  struct Window {
    std::uint64_t index = 0;  // covers [index*W, (index+1)*W) sim-ms
    std::vector<std::uint64_t> counters;  // per-counter deltas
    std::vector<double> gauges;           // values at window close
    std::vector<HistWindow> hists;
  };

  /// Sampling timeline: reads `registry` (not owned; must outlive this) at
  /// every window close.
  Timeline(const Registry* registry, Config cfg);
  /// Merge-only timeline (no registry): the accumulator merged_timeline()
  /// folds per-shard timelines into.
  explicit Timeline(Config cfg) : Timeline(nullptr, cfg) {}

  // -- engine hooks (sampling timelines only) -------------------------------
  /// Closes every window that ends at or before `t_ms`.  The engine calls
  /// this with the event timestamp *before* dispatching each event, so all
  /// registry activity since the previous call belongs to the earliest open
  /// window -- which is exactly where the delta is recorded.
  void advance_to(double t_ms);
  /// advance_to plus closing the window containing `t_ms` itself: the
  /// end-of-run call.  Idempotent for the same `t_ms`.
  void flush(double t_ms);

  // -- reads ----------------------------------------------------------------
  [[nodiscard]] double window_ms() const { return cfg_.window_ms; }
  [[nodiscard]] std::size_t capacity() const { return cfg_.capacity; }
  /// Retained windows (<= capacity).
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Absolute index of the oldest retained window.
  [[nodiscard]] std::uint64_t first_index() const { return first_index_; }
  /// Windows closed and then evicted by the capacity bound.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const Window& window(std::size_t i) const { return ring_[i]; }

  /// Per-window deltas of the named counter over the retained range
  /// (zero where the window predates the counter's registration).
  [[nodiscard]] std::vector<std::uint64_t> counter_series(
      std::string_view name) const;

  // -- merge ----------------------------------------------------------------
  /// Folds another timeline in by absolute window index: counter and
  /// histogram deltas add, gauges take the max.  Requires identical
  /// window_ms and identical metric registration order where names overlap
  /// (the sharded engine's registry-init discipline).  Commutative under the
  /// integral-sample rule, like Registry::merge_from.
  void merge_from(const Timeline& other);

  // -- export ---------------------------------------------------------------
  /// One JSON object per line, one line per retained window:
  ///   {"window": N, "t_ms": END, "counters": {...}, "gauges": {...},
  ///    "histograms": {name: {count, sum, p50, p90, p99}}}
  /// Zero-delta metrics are omitted per window.
  /// Contains no wall-clock fields, so two deterministic runs byte-compare.
  [[nodiscard]] std::string to_jsonl() const;

  /// Installs a live Chrome-trace counter sink: every window close emits one
  /// "ph":"C" event per nonzero counter delta at the window's end time, so
  /// the series render as graphs in Perfetto alongside the spans.  Emission
  /// happens inside advance_to/flush, i.e. in simulation-clock order, which
  /// keeps the trace file's timestamps monotone.
  void set_trace_sink(Tracer* tracer, std::uint32_t track = 0);

 private:
  void close_through(std::uint64_t target_closed);
  void close_one();
  void refresh_names();

  const Registry* registry_;
  Config cfg_;
  std::uint64_t closed_ = 0;  // windows closed so far == next window index

  // Snapshot of cumulative values at the last window close.
  std::vector<std::uint64_t> prev_counters_;
  struct PrevHist {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<std::uint64_t> buckets;
  };
  std::vector<PrevHist> prev_hists_;

  // Metric name tables captured from the registry (or adopted on merge) so
  // exports survive the registry they sampled from.
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  std::vector<std::vector<double>> hist_bounds_;

  std::deque<Window> ring_;
  std::uint64_t first_index_ = 0;
  std::uint64_t dropped_ = 0;

  Tracer* trace_sink_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

}  // namespace rofl::obs
