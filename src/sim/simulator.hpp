// simulator.hpp -- discrete-event engine driving the protocol simulations.
//
// All ROFL protocol activity (joins, teardowns, repairs, data forwarding) is
// executed as events on a virtual clock measured in milliseconds.  Message
// transmissions are accounted per category so each bench can report exactly
// the packet counts the paper's figures plot.  Event ordering is
// deterministic: ties on the timestamp are broken by insertion sequence, so
// a fixed seed reproduces a run exactly.
//
// Hot-path layout: event callables live in a slab of recycled slots, with
// captures up to kActionBufferBytes embedded inline (util::InlineFunction);
// the 4-ary heap orders 24-byte {when, seq, slot} records only.  Scheduling
// and dispatching an event therefore performs no heap allocation in the
// common case, and heap sifts move small PODs instead of payloads.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "sim/event_queue.hpp"
#include "util/inline_function.hpp"

namespace rofl::obs {
class Timeline;
}  // namespace rofl::obs

namespace rofl::sim {

/// Categories of network-level messages, for the paper's overhead metrics.
enum class MsgCategory : std::uint8_t {
  kJoin,        // join requests/replies and pointer setup (figures 5a/5b, 8a)
  kTeardown,    // pointer teardown on host/router failure
  kRepair,      // partition repair / zero-ID convergence traffic (figure 7)
  kLinkState,   // OSPF-like substrate flooding
  kData,        // data packets
  kControl,     // other control (probes, finger maintenance, capability setup)
};
inline constexpr std::size_t kMsgCategoryCount = 6;

[[nodiscard]] std::string_view to_string(MsgCategory c);

/// Per-category message counters.  A "message" here is one network-level
/// transmission (one hop), matching how the paper counts join overhead in
/// packets.
///
/// Since the observability refactor this is a thin client of the
/// obs::Registry owned by the enclosing Simulator: each category is a named
/// registry counter ("msgs.join", ...), so metric exports and the legacy
/// add/get/total/reset API read the same cells.  add() stays one indexed
/// increment -- the ids are registered once at construction.
class Counters {
 public:
  explicit Counters(obs::Registry* registry);

  void add(MsgCategory c, std::uint64_t n = 1) {
    registry_->add(ids_[static_cast<std::size_t>(c)], n);
  }
  [[nodiscard]] std::uint64_t get(MsgCategory c) const {
    return registry_->counter_value(ids_[static_cast<std::size_t>(c)]);
  }
  /// Wire bytes per category ("bytes.join", ...), parallel to the packet
  /// counts above.  Frames come out of the real wire::Packet encoder, so
  /// these are the section 6.3 byte figures, not estimates.
  void add_bytes(MsgCategory c, std::uint64_t n) {
    registry_->add(byte_ids_[static_cast<std::size_t>(c)], n);
  }
  [[nodiscard]] std::uint64_t bytes(MsgCategory c) const {
    return registry_->counter_value(byte_ids_[static_cast<std::size_t>(c)]);
  }
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  void reset();

 private:
  obs::Registry* registry_;
  std::array<obs::MetricId, kMsgCategoryCount> ids_{};
  std::array<obs::MetricId, kMsgCategoryCount> byte_ids_{};
};

/// Captures up to this size are stored inline in the event slab; larger
/// closures fall back to one heap cell each.
inline constexpr std::size_t kActionBufferBytes = 48;

class Simulator {
 public:
  using Action = util::InlineFunction<void(), kActionBufferBytes>;

  Simulator() = default;
  // Counters (and any layer-held MetricId user) points into this simulator's
  // registry, so the simulator must stay put for its lifetime.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  Simulator(Simulator&&) = delete;
  Simulator& operator=(Simulator&&) = delete;

  [[nodiscard]] double now_ms() const { return now_ms_; }

  /// Schedules `action` to run `delay_ms` from now (>= 0).
  void schedule_in(double delay_ms, Action action);
  void schedule_at(double when_ms, Action action);

  /// Executes the next pending event; returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains (or max_events is hit); returns the number
  /// of events executed.
  std::size_t run(std::size_t max_events =
                      std::numeric_limits<std::size_t>::max());

  /// Runs all events scheduled at or before `t_ms`.
  std::size_t run_until(double t_ms);

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  /// The simulation-wide metrics registry.  The Counters above are backed by
  /// it; protocol layers register their own counters/gauges/histograms here.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

  /// Installs (or removes, with nullptr) a timeline sink.  The tracer is not
  /// owned and must outlive its installation.  With no sink installed every
  /// instrumentation site reduces to one null-pointer check.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Installs (or removes) a timeline sampler over this simulator's
  /// registry.  The engine advances it to each event's timestamp *before*
  /// dispatch, so window membership is decided purely on the sim clock; the
  /// caller flushes it at end of run (Timeline::flush(now_ms())).  Not owned.
  void set_timeline(obs::Timeline* timeline) { timeline_ = timeline; }
  [[nodiscard]] obs::Timeline* timeline() const { return timeline_; }

  /// Events dispatched over this simulator's lifetime (the "sim.events"
  /// registry counter).
  [[nodiscard]] std::uint64_t events_dispatched() const {
    return metrics_.counter_value(events_id_);
  }

 private:
  struct HeapItem {
    double when;
    std::uint64_t seq;
    std::uint32_t slot;  // payload position in slab_
  };

  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventQueue<HeapItem> queue_;
  std::vector<Action> slab_;              // callables; slots are recycled
  std::vector<std::uint32_t> free_slots_;
  obs::Registry metrics_;                  // must precede counters_
  obs::MetricId events_id_ = metrics_.counter("sim.events");
  Counters counters_{&metrics_};
  obs::Tracer* tracer_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
};

}  // namespace rofl::sim
