// mesh.hpp -- drive a live mesh of LiveRouters through a join storm.
//
// A mesh run is the experiment the simulator's scenario commands script, but
// executed by real routers over a real (or in-process) transport: generate
// `hosts` self-certifying identities from the seed, home host h on gateway
// router h % routers, seed host 0's identity at the bootstrap router, and let
// every gateway join its hosts concurrently.  The run converges when every
// gateway's queue is drained and every pointer install is acked; the audit
// then collects all virtual nodes and checks the assembled ring against the
// globally sorted id order -- successor/predecessor pointers AND owner
// routers must all be exact.
//
// Three execution modes:
//   * loopback  -- all routers on one thread, virtual clock, in-process hub.
//     Deterministic; the byte-parity gate runs here.
//   * udp       -- one thread + one real UDP socket per router, wall clock.
//     Best-effort timing; convergence and audit exactness still hold.
//   * spawn     -- one *process* per router over UDP on a fixed port range;
//     the driver forks workers, collects their vnode tables through the
//     pump's harness ops (kDone/kStop/kStateChunk/kStateAck), audits, and
//     reaps.  Workers rebuild the identical identity assignment from the
//     shared seed, so nothing but the port base needs distributing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/router.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/faults.hpp"
#include "util/identity.hpp"

namespace rofl::net {

enum class MeshBackend { kLoopback, kUdp };

struct MeshConfig {
  std::uint32_t routers = 8;
  std::uint32_t hosts = 400;
  std::uint32_t fingers = 256;  ///< section 6.3 sizing: 256 -> 1638-byte joins
  std::uint64_t seed = 1;
  MeshBackend backend = MeshBackend::kUdp;
  double rate_pps = 0.0;  ///< per-router token-bucket send cap (0 = off)
  sim::NetworkConditions conditions;  ///< socket-boundary impairment
  /// Convergence deadline: wall ms for udp/spawn, virtual ms for loopback.
  double deadline_ms = 60'000.0;
  double timeline_window_ms = 0.0;  ///< 0 disables per-router timelines
  std::uint32_t max_outstanding = 8;
  std::uint16_t base_port = 47100;  ///< spawn mode: worker k binds base+k
  /// Data-plane lookups served over the converged mesh: after the join storm
  /// settles, each gateway (round-robin) probes ids drawn from the joined
  /// set with purpose-2 Locates.  0 disables the phase.
  std::uint32_t lookups = 0;
  /// Router to depart cleanly after convergence (and after the lookup
  /// phase); -1 disables.  Must not be the bootstrap router 0.
  std::int32_t leave_router = -1;
};

struct MeshAuditReport {
  std::uint64_t population = 0;
  std::uint64_t expected = 0;
  std::vector<std::string> errors;  // capped; first few defects verbatim
  std::uint64_t error_count = 0;    // total defects, including capped ones

  [[nodiscard]] bool ok() const {
    return error_count == 0 && population == expected;
  }
};

struct MeshResult {
  bool converged = false;
  MeshAuditReport audit;
  std::uint64_t joins_completed = 0;
  std::uint64_t lookups_completed = 0;
  std::uint64_t lookups_hit = 0;
  /// True when no departure was requested, or the departing router drained
  /// every relink ack and dropped its vnodes.
  bool leave_completed = true;
  double elapsed_ms = 0.0;  ///< virtual (loopback) or wall (udp)
  obs::Registry metrics;    ///< all routers merged
  std::unique_ptr<obs::Timeline> timeline;  ///< merged; null when disabled
};

/// Deterministic identity set shared by driver and workers: identity h is
/// the h-th draw from Rng(seed); its gateway is router h % routers.
std::vector<Identity> make_identities(std::uint64_t seed, std::uint32_t hosts);

/// Ring exactness check over the collected (owner, vnode) pairs.
/// `expected` maps every id to its owning router; each id's expected
/// neighbors come from proto::CanonicalRing over that set.
MeshAuditReport audit_ring(
    const std::vector<std::pair<RouterId, Vnode>>& collected,
    std::vector<std::pair<NodeId, RouterId>> expected);

/// Runs a loopback or in-process-UDP mesh to convergence (or the deadline).
MeshResult run_mesh(const MeshConfig& cfg);

/// Spawn mode driver: forks `cfg.routers` worker processes of `exe` (each
/// re-invoked as `roflsim net --worker k ...`), waits for the storm, collects
/// and audits state, reaps children.  Prints a report to `out`; returns a
/// process exit code (0 = converged + clean audit).
int run_mesh_spawn(const MeshConfig& cfg, const std::string& exe,
                   std::ostream& out);

/// Spawn mode worker body for router `self` (below `cfg.routers`); returns a
/// process exit code.
int run_mesh_worker(const MeshConfig& cfg, RouterId self);

}  // namespace rofl::net
