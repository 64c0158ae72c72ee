// profiler.hpp -- wall-clock self-profile of the sharded simulation engine.
//
// The sharded engine (DESIGN.md section 13) can lose time three ways: doing
// work (busy), spinning on the conservative horizon while events are queued
// but not yet safe (stall -- the lookahead tax), or having genuinely nothing
// to do (idle).  End-of-run wall seconds cannot distinguish them; this
// profiler can, and also attributes busy time per event kind and records the
// high-water mark of each shard's inbound SPSC channel, so "why is 8 shards
// not 8x" has a measured answer instead of a guess.
//
// Every field here is WALL time measured with std::chrono::steady_clock.
// None of it may ever enter a determinism digest, a byte-compared metrics
// file, or a timeline window record -- it varies run to run by construction.
// The engine only reads the wall clock when a profiler is installed
// (ShardedSimulator::set_profiler), so unprofiled runs pay one predictable
// branch per loop iteration.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rofl::sim {

class EngineProfiler {
 public:
  /// Busy-time attribution for one event kind (ShardEvent::kind).
  struct KindStats {
    std::uint64_t events = 0;
    double busy_s = 0.0;
  };

  struct ShardProfile {
    double busy_s = 0.0;   // loop iterations that executed >= 1 event
    double stall_s = 0.0;  // events queued but none below the horizon
    double idle_s = 0.0;   // local queue empty
    std::uint64_t events = 0;
    // Max occupancy seen across this shard's INBOUND channels, sampled by
    // the consumer (drain) side only -- SpscQueue::size_approx is undefined
    // from a third thread (see util/spsc_queue.hpp).
    std::uint64_t spsc_hwm = 0;
    std::vector<KindStats> kinds;  // indexed by event kind

    void add_event(std::uint32_t kind, double dt_s) {
      if (kind >= kinds.size()) kinds.resize(kind + 1);
      ++kinds[kind].events;
      kinds[kind].busy_s += dt_s;
      ++events;
    }
    [[nodiscard]] double total_s() const { return busy_s + stall_s + idle_s; }
    [[nodiscard]] double busy_frac() const {
      return total_s() > 0.0 ? busy_s / total_s() : 0.0;
    }
    [[nodiscard]] double stall_frac() const {
      return total_s() > 0.0 ? stall_s / total_s() : 0.0;
    }
    [[nodiscard]] double idle_frac() const {
      return total_s() > 0.0 ? idle_s / total_s() : 0.0;
    }
  };

  explicit EngineProfiler(std::uint32_t shards) : shards_(shards) {}

  [[nodiscard]] ShardProfile& shard(std::uint32_t s) { return shards_[s]; }
  [[nodiscard]] const std::vector<ShardProfile>& shards() const {
    return shards_;
  }

  /// Optional display names for event kinds (index == kind); pretty-prints
  /// tables and JSON.  Unnamed kinds print as their number.
  void set_kind_names(std::vector<std::string> names) {
    kind_names_ = std::move(names);
  }

  /// {"shards": [{"shard", "busy_s", "stall_s", "idle_s", "busy_frac",
  /// "stall_frac", "idle_frac", "events", "spsc_hwm", "kinds": [...]}]}.
  /// Wall-time provenance only: embed in BENCH_*.json "profile" fields or
  /// stdout, never in determinism-gated artifacts.
  [[nodiscard]] std::string to_json(int indent = 0) const;

  /// One row per shard: busy/stall/idle percentages, events, channel hwm.
  void print_table(std::ostream& os) const;

 private:
  std::vector<ShardProfile> shards_;
  std::vector<std::string> kind_names_;
};

}  // namespace rofl::sim
