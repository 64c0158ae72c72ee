// churn.hpp -- deterministic seeded churn workload for the invariant auditor.
//
// The paper's central robustness claim is that ROFL keeps routing under
// continuous arrivals and departures (sections 3.2, 6.2).  This module turns
// that into a repeatable stress harness: a seeded generator materializes a
// join/leave/crash/route event schedule *upfront* (every event carries its
// own identity and selector draws, so dropping an event never re-rolls the
// others -- the property the ddmin shrinker in shrink.hpp relies on), the
// runner executes the schedule on the simulator clock with the Auditor
// sampling invariants every K simulated milliseconds, and the whole run is
// reproducible bit-for-bit from (seed, schedule): two same-seed runs produce
// identical audit digests and metrics snapshots.
//
// Router- and link-level faults are not generated here: compose a
// sim::FaultPlan (message loss, link flaps, crash windows) via
// ChurnRunParams::faults and the runner schedules it alongside the host
// churn, exactly as PR 3's fault machinery does.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "audit/auditor.hpp"
#include "sim/faults.hpp"
#include "util/identity.hpp"

namespace rofl::audit {

enum class ChurnOp : std::uint8_t {
  kJoinStable,     // stable host joins at a seeded gateway
  kJoinEphemeral,  // ephemeral host joins (backpointer at its predecessor)
  kLeave,          // graceful leave of a seeded live host
  kCrash,          // ungraceful host death (session-timeout path)
  kRoute,          // data packet from a seeded router to a seeded live host
};

[[nodiscard]] std::string_view to_string(ChurnOp op);

/// One scheduled churn event.  All randomness is drawn at generation time:
/// `ident` is the joining identity (join ops only) and `pick` seeds the
/// runtime selection of gateway/victim/source against the then-current
/// state.  Events are immutable once generated, which is what makes
/// subset-replay (shrinking) deterministic.
struct ChurnEvent {
  double t_ms = 0.0;
  ChurnOp op = ChurnOp::kJoinStable;
  std::optional<Identity> ident;
  std::uint64_t pick = 0;
};

struct ChurnConfig {
  std::size_t events = 200;
  double start_ms = 10.0;
  double end_ms = 400.0;
  // Relative op mix (weights, not probabilities).
  unsigned join_weight = 3;
  unsigned join_ephemeral_weight = 1;
  unsigned leave_weight = 2;
  unsigned crash_weight = 1;
  unsigned route_weight = 3;
};

/// Materializes the full event schedule from one sequential RNG stream,
/// sorted by timestamp.  Same (cfg, seed) -> identical schedule.
[[nodiscard]] std::vector<ChurnEvent> make_churn_schedule(
    const ChurnConfig& cfg, std::uint64_t seed);

struct ChurnRunParams {
  std::size_t router_count = 60;
  std::size_t pop_count = 8;
  intra::Config net_cfg;
  /// Message/link/crash faults to run the churn under (schedule_fault_plan +
  /// FaultInjector).  Ignored unless `use_faults`.
  sim::FaultPlan faults;
  bool use_faults = false;
  double audit_interval_ms = 25.0;
  /// Quiet time after the last scheduled event (and after every fault
  /// window closes) before the final repair + strict verification.
  double settle_ms = 300.0;
  /// Hosts joined before the clock starts, from a schedule-independent RNG
  /// stream -- shrinking the schedule never changes the starting state.
  std::size_t initial_hosts = 64;
  std::uint64_t seed = 1;
  /// Timeline sampling window on the sim clock; 0 disables the timeline.
  /// The sampler attaches after the initial population, so the series cover
  /// the churn phase itself, not the setup burst.
  double timeline_window_ms = 0.0;
  std::size_t timeline_capacity = 4096;
};

struct ChurnRunResult {
  /// Strict ring verification after the post-run quiescence repair.
  bool converged = false;
  std::string err;
  // Executed-op counts (events can no-op when the roster is empty).
  std::uint64_t joins = 0;
  std::uint64_t joins_failed = 0;
  std::uint64_t leaves = 0;
  std::uint64_t crashes = 0;
  std::uint64_t routes = 0;
  std::uint64_t delivered = 0;
  /// Simulator events dispatched over the whole run (run-summary reporting).
  std::uint64_t events_dispatched = 0;
  // Audit outcome: every scheduled audit plus one final post-repair audit.
  std::uint64_t audits = 0;
  std::uint64_t hard = 0;
  std::uint64_t soft = 0;
  std::string digest;  // Auditor::reports_digest() over all audits
  /// FNV digest over every executed route's RouteStats (delivered flag,
  /// physical/ring/shortest hops, latency bits), in schedule order.  CI pins
  /// it, so a forwarding change that moves any route outcome fails there.
  std::string routes_digest;
  std::vector<AuditReport> reports;
  /// Registry snapshot taken before the faults-off repair.  The registry
  /// holds no wall-clock cell, so two same-seed runs compare byte-for-byte.
  std::string metrics_json;
  /// Timeline export (one JSON object per window; empty when the timeline
  /// was disabled).  Deterministic: contains no wall-clock fields.
  std::string timeline_jsonl;
  double timeline_window_ms = 0.0;
  /// Per-window delta series of the convergence-relevant counters
  /// (sim.events, msgs.join, msgs.repair, msgs.teardown, msgs.data), for
  /// embedding in BENCH_churn.json.
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>>
      timeline_series;
};

/// Executes `schedule` (plus params.faults) over a fresh seeded network with
/// periodic audits.  Deterministic: byte-identical results for identical
/// inputs.
[[nodiscard]] ChurnRunResult run_churn(const ChurnRunParams& params,
                                       const std::vector<ChurnEvent>& schedule);

}  // namespace rofl::audit
