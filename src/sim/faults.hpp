// faults.hpp -- the unreliable-network model for the simulator.
//
// By default the discrete-event engine delivers every message exactly once
// with deterministic latency, so none of ROFL's loss-recovery machinery is
// ever exercised.  This module makes the network lie: a FaultPlan describes
// probabilistic message loss, duplication, corruption and latency jitter,
// the same on every link, plus scheduled link flaps and router crash/restart
// windows; a FaultInjector turns the plan into per-transmission decisions.
//
// Determinism contract: every stochastic decision flows through the
// injector's own dedicated Rng stream, seeded explicitly and consulted in
// transmission order.  The protocol layers' RNGs are never touched, so a
// fixed (scenario seed, fault seed) pair reproduces a faulty run bit-for-bit
// -- including every drop, duplicate and jitter draw.  Knobs that are zero
// skip their draw entirely; the stream only advances for decisions that can
// actually happen, which keeps runs with the same plan comparable.
//
// Accounting: drop/duplicate/delay/retry decisions are exported through the
// obs::Registry as `faults.*` counters, so metric snapshots (and the
// check.sh determinism gate) see exactly what the network did to the run.
//
// The injector is attached to a protocol engine as a nullable pointer, the
// same pattern as the flight recorder and tracer: with no injector installed
// the send path costs one null check and behaves exactly as before.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace rofl::sim {

/// Message-level misbehavior of the network.  Probabilities apply
/// independently to every physical transmission on every link.
struct NetworkConditions {
  double loss = 0.0;       // P(transmission dropped)
  double duplicate = 0.0;  // P(one spurious extra copy transmitted)
  double jitter_ms = 0.0;  // extra propagation delay, uniform in [0, jitter]
  double corrupt = 0.0;    // P(bit flips in the encoded frame)

  [[nodiscard]] bool active() const {
    return loss > 0.0 || duplicate > 0.0 || jitter_ms > 0.0 || corrupt > 0.0;
  }
};

/// Scheduled link outage: down at `down_at_ms`, back up at `up_at_ms`.
struct LinkFlap {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  double down_at_ms = 0.0;
  double up_at_ms = 0.0;
};

/// Scheduled router (or AS) crash/restart window.
struct CrashWindow {
  std::uint32_t node = 0;
  double down_at_ms = 0.0;
  double up_at_ms = 0.0;
};

/// A complete description of what the network does to a run.  The
/// message-level conditions are interpreted by the FaultInjector; the flap
/// and crash schedules are interpreted by the protocol engine
/// (e.g. intra::Network::schedule_fault_plan), which owns the fail/restore
/// machinery the events must drive.
struct FaultPlan {
  NetworkConditions defaults;  // applies to every link
  std::vector<LinkFlap> link_flaps;
  std::vector<CrashWindow> crash_windows;
};

/// Retransmission policy for control-plane exchanges over an unreliable
/// network: up to `max_attempts` tries, waiting a timeout that starts at
/// `timeout_ms` and multiplies by `backoff` after every loss, capped at
/// `max_timeout_ms`.  The timeout is the latency price of discovering a
/// loss; with a reliable network the first attempt succeeds and the policy
/// costs nothing.
struct RetryPolicy {
  unsigned max_attempts = 5;
  double timeout_ms = 50.0;
  double backoff = 2.0;
  double max_timeout_ms = 1'000.0;

  [[nodiscard]] double next_timeout(double current_ms) const {
    return std::min(current_ms * backoff, max_timeout_ms);
  }
};

/// Outcome of one transmission attempt across one link.
struct FaultDecision {
  bool dropped = false;
  std::uint32_t copies = 1;      // transmissions made, including the original
  double extra_latency_ms = 0.0; // jitter added to the link's latency
};

/// Outcome of one logical exchange spanning several transmissions (used by
/// layers that account whole multi-hop exchanges at once, e.g. the
/// interdomain engine's simulated lookups).
struct PathDecision {
  bool dropped = false;            // some leg lost the message
  std::uint64_t transmissions = 0; // legs actually transmitted (incl. dups)
  double extra_latency_ms = 0.0;
};

class FaultInjector {
 public:
  /// `registry` must outlive the injector; the `faults.*` counters are
  /// registered at construction so metric ids stay identical across
  /// same-seed runs.
  FaultInjector(FaultPlan plan, std::uint64_t seed, obs::Registry* registry);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// One branch on the hot path: false means no link can misbehave and the
  /// caller should take its original (fault-free) code path.  Flap and
  /// crash schedules do not count: they run through the normal failure APIs
  /// and need no per-transmission branch.
  [[nodiscard]] bool message_faults_enabled() const { return message_faults_; }

  /// Decides the fate of one transmission crossing a router-to-router link;
  /// every link has the default conditions.
  FaultDecision on_link() { return decide(plan_.defaults); }

  /// Decides the fate of one transmission on a host access link (the
  /// host<->gateway leg keepalives ride); default conditions apply.
  FaultDecision on_access_link() { return decide(plan_.defaults); }

  /// Decides one logical exchange of `transmissions` legs under the default
  /// conditions: legs are decided in order and the exchange stops at the
  /// first drop (later legs are never transmitted).
  PathDecision on_path(std::uint64_t transmissions);

  /// Byte-corruption mode: with probability `defaults.corrupt`, flips 1-3
  /// bits of `frame` at random positions and returns true.  The receiver's
  /// CRC-32 check then rejects the frame, converting corruption into loss
  /// that feeds the normal retry/backoff machinery.  With the knob at zero no
  /// randomness is consumed (same determinism contract as decide()).
  bool maybe_corrupt_frame(std::vector<std::uint8_t>& frame);

  /// True when the corruption knob is set; senders use this to skip the
  /// per-attempt frame copy on corruption-free runs.
  [[nodiscard]] bool corruption_enabled() const { return corruption_; }

  // Bookkeeping hooks for the layers that own retry loops and schedules.
  void note_retry() { registry_->add(retries_id_); }
  void note_retry_exhausted() { registry_->add(exhausted_id_); }
  void note_flap() { registry_->add(flaps_id_); }
  void note_crash() { registry_->add(crashes_id_); }

  // Counter reads (mirrors of the faults.* registry cells), for tests and
  // report tables.
  [[nodiscard]] std::uint64_t dropped() const {
    return registry_->counter_value(dropped_id_);
  }
  [[nodiscard]] std::uint64_t duplicated() const {
    return registry_->counter_value(duplicated_id_);
  }
  [[nodiscard]] std::uint64_t delayed() const {
    return registry_->counter_value(delayed_id_);
  }
  [[nodiscard]] std::uint64_t corrupted() const {
    return registry_->counter_value(corrupted_id_);
  }
  [[nodiscard]] std::uint64_t retries() const {
    return registry_->counter_value(retries_id_);
  }
  [[nodiscard]] std::uint64_t retries_exhausted() const {
    return registry_->counter_value(exhausted_id_);
  }
  [[nodiscard]] std::uint64_t flaps() const {
    return registry_->counter_value(flaps_id_);
  }
  [[nodiscard]] std::uint64_t crashes() const {
    return registry_->counter_value(crashes_id_);
  }

 private:
  FaultDecision decide(const NetworkConditions& c);

  FaultPlan plan_;
  bool message_faults_ = false;
  bool corruption_ = false;
  Rng rng_;  // dedicated stream: protocol RNGs never see fault decisions
  obs::Registry* registry_;
  obs::MetricId dropped_id_ = 0;
  obs::MetricId duplicated_id_ = 0;
  obs::MetricId delayed_id_ = 0;
  obs::MetricId corrupted_id_ = 0;
  obs::MetricId retries_id_ = 0;
  obs::MetricId exhausted_id_ = 0;
  obs::MetricId flaps_id_ = 0;
  obs::MetricId crashes_id_ = 0;
};

}  // namespace rofl::sim
