// auditor.hpp -- cross-layer invariant auditor (DESIGN.md section 10).
//
// The paper's correctness claim is that greedy ring routing stays consistent
// under continuous churn (sections 3.2-3.4, 6.2).  The fuzz suites only
// check eventual consistency at quiescence; this module asserts the
// cross-layer invariants *mid-run*, on demand or every K simulated
// milliseconds:
//
//   1. successor/predecessor ring integrity and bidirectional agreement per
//      intra::Network (section 2.2);
//   2. every pointer-cache entry and ephemeral backpointer resolves to a
//      live, reachable host via a valid source route (sections 2.2, 3.2);
//   3. interdomain merge-point registrations are consistent with the rings
//      they summarize (section 4.1);
//   4. session-table entries reference live gateways (section 3.2);
//   5. Bloom subtree summaries are sound -- no false negatives (section 4.2).
//
// Violations are graded.  kHard marks state no protocol rule permits at any
// instant: a broken ring order, a cache entry whose source route is
// structurally invalid (LSA purges make route validity synchronous), a bloom
// false negative, a registry entry naming a dead ID.  kSoft marks staleness
// the protocol explicitly tolerates and repairs lazily: a cached pointer to
// an ID that has since departed (reverse-path caching at join makes this
// unavoidable even fault-free -- the directed flood only covers the control
// path of the *joining* side), an ephemeral backpointer whose vnode was
// rehomed (torn down on first use), a session that has not yet noticed its
// ID moved (self-heals on the next tick).  Under an active fault injector
// with message faults enabled, ring agreement and interdomain registration
// checks are additionally downgraded to kSoft: a join reply dropped
// mid-exchange legitimately leaves dangling state that the repair machinery
// absorbs (section 3.2), so only staleness-independent invariants stay hard.
//
// Each violation is stamped with a fresh flight-recorder trace id (when a
// recorder is installed) carrying one kAuditViolation hop record, so a
// failing run can be located on the same timeline as the packets that
// produced it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interdomain/inter_network.hpp"
#include "rofl/network.hpp"
#include "rofl/session.hpp"

namespace rofl::audit {

enum class Severity : std::uint8_t { kHard, kSoft };

[[nodiscard]] std::string_view to_string(Severity s);

struct Violation {
  Severity severity = Severity::kHard;
  /// Dotted check name, e.g. "intra.ring.order" or "inter.bloom.negative".
  std::string check;
  std::string detail;
  /// Flight-recorder trace id carrying the kAuditViolation record (0 when no
  /// recorder is installed).
  std::uint64_t trace_id = 0;
};

struct AuditReport {
  double t_ms = 0.0;
  std::uint64_t audit_index = 0;  // 0-based count of audits this auditor ran
  std::uint64_t checks = 0;       // individual assertions evaluated
  std::vector<Violation> violations;

  [[nodiscard]] bool clean() const { return violations.empty(); }
  [[nodiscard]] std::size_t hard_count() const;
  [[nodiscard]] std::size_t soft_count() const;
  /// Multi-line human rendering (one line per violation).
  [[nodiscard]] std::string to_string() const;
};

/// Walks the attached engines and reports every invariant violation.  All
/// traversals iterate deterministically ordered state (router indices,
/// sorted maps), so two same-seed runs produce identical reports.
class Auditor {
 public:
  /// Any subset of engines may be attached; null members are skipped.  At
  /// least one of `net`/`inter` must be non-null.  All attached objects must
  /// outlive the auditor.
  explicit Auditor(intra::Network* net,
                   inter::InterNetwork* inter = nullptr,
                   intra::SessionManager* sessions = nullptr);

  /// Runs one full audit now; the report is appended to reports() and
  /// returned.
  AuditReport run();

  /// Schedules an audit every `interval_ms` of simulated time, from
  /// `interval_ms` up to and including `until_ms`.  Events ride the engine's
  /// own simulator, so audits interleave deterministically with scheduled
  /// faults and churn.  A non-positive interval schedules nothing.
  void schedule_every(double interval_ms, double until_ms);

  [[nodiscard]] const std::vector<AuditReport>& reports() const {
    return reports_;
  }
  [[nodiscard]] std::uint64_t audits_run() const { return audits_run_; }
  [[nodiscard]] std::uint64_t total_hard() const { return total_hard_; }
  [[nodiscard]] std::uint64_t total_soft() const { return total_soft_; }

  /// Deterministic digest of every accumulated report (used by the
  /// determinism gates: two same-seed runs must produce identical digests).
  [[nodiscard]] std::string reports_digest() const;

 private:
  /// True while a fault injector with message faults is active on any
  /// attached engine: churn-racy checks downgrade to kSoft.
  [[nodiscard]] bool lossy() const;

  void add(AuditReport& report, Severity severity, std::string check,
           std::string detail, obs::HopDomain domain, std::uint32_t node,
           const NodeId& subject);

  void check_intra(AuditReport& report);
  void check_intra_ring(AuditReport& report);
  void check_intra_directory(AuditReport& report);
  void check_intra_caches(AuditReport& report);
  void check_intra_ephemerals(AuditReport& report);
  void check_sessions(AuditReport& report);
  void check_inter(AuditReport& report);

  intra::Network* net_;
  inter::InterNetwork* inter_;
  intra::SessionManager* sessions_;
  std::vector<AuditReport> reports_;
  std::uint64_t audits_run_ = 0;
  std::uint64_t total_hard_ = 0;
  std::uint64_t total_soft_ = 0;
  // Registry counters (registered on the driving simulator's registry).
  obs::MetricId runs_id_ = 0;
  obs::MetricId hard_id_ = 0;
  obs::MetricId soft_id_ = 0;
};

}  // namespace rofl::audit
