// router.hpp -- the live driver over the sans-I/O protocol core.
//
// LiveRouter no longer contains protocol logic.  The greedy locate walk,
// join/splice with idempotent re-reply, retried pointer installs, data-plane
// lookups, and clean departure all live in proto::Core (src/proto/core.hpp),
// the same state machine every substrate drives.  What remains here is the
// driver's half of the proto::Env contract:
//
//   * own a Transport and a sim::FaultInjector, pump delayed sends, drain
//     received datagrams, and feed kData frames to Core::on_frame (harness
//     frames -- the multi-process mesh's lifecycle signaling -- are split
//     off for the mesh driver to consume);
//   * pass the clock in: the loopback mesh steps on virtual milliseconds,
//     the UDP mesh on wall milliseconds, and the core cannot tell the
//     difference;
//   * surface the transport pump's internals (dedup drops, receive-queue
//     overflow, token-bucket stalls...) as net.* counters in the registry,
//     sampled every step so live timelines and metrics dumps see them while
//     the run is still in flight, not only at finish();
//   * forward the core's retry telemetry to the fault injector so fault
//     accounting matches the simulator's.
//
// A LiveRouter is single-threaded: all calls come from one driver thread.
// step(now_ms) runs pump/drain/tick passes.  While the core has work in
// flight and the transport can block, it waits on the transport between
// passes -- until a frame lands, a delayed send comes due, or the slice
// ends -- so a reply is handled as soon as it arrives, for at most one
// kSliceMs slice.  A quiescent core, or a transport that cannot block
// (loopback), gets one pass per step.  Retry deadlines need no hook from the
// core: each pass calls Core::tick, and a slice is far shorter than the
// shortest retry timeout.  DESIGN.md section 16 documents the layering.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <ostream>

#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "proto/core.hpp"
#include "sim/faults.hpp"
#include "util/identity.hpp"
#include "util/node_id.hpp"

namespace rofl::net {

/// One ring-resident virtual node homed on this router (the core's own).
using Vnode = proto::Vnode;

/// The core's protocol settings plus what only the live driver needs.
struct LiveRouterConfig : proto::CoreConfig {
  /// Netem-style impairment applied at this router's socket boundary.
  sim::NetworkConditions conditions;
  std::uint64_t fault_seed = 1;
  /// Timeline window width in ms; 0 disables the timeline.
  double timeline_window_ms = 0.0;
};

class LiveRouter final : private proto::Env {
 public:
  /// `transport` must outlive the router; the router installs its own
  /// FaultInjector (built from cfg.conditions) on it.
  LiveRouter(LiveRouterConfig cfg, Transport* transport);

  /// Installs the bootstrap identity with self-looped pointers -- the one-node
  /// ring every walk can terminate against.  Call on exactly one router.
  void seed(const Identity& first) { core_->seed(first); }

  /// Queues one host identity this gateway will join into the ring.
  void enqueue_join(Identity ident) { core_->enqueue_join(std::move(ident)); }

  /// Queues one data-plane lookup: a Locate probe walked over the live ring.
  void enqueue_lookup(const NodeId& target) { core_->enqueue_lookup(target); }

  /// Starts a clean departure (see proto::Core::begin_leave).  Call only
  /// after the mesh has converged.
  void begin_leave(double now_ms) { core_->begin_leave(now_ms); }

  /// Longest a step keeps a busy router's thread: about 2 ms, so a retry
  /// fires at most that late against CoreConfig::retry's 40 ms minimum.
  static constexpr double kSliceMs = 2.0;

  /// Event-loop passes: flush delayed sends, drain received frames, feed the
  /// core's tick (queued work + retry timers), sample transport stats.  One
  /// pass when the core is quiescent or the transport cannot block;
  /// otherwise passes on the clock Transport::wait wakes at, until the core
  /// is quiescent or kSliceMs has passed since `now_ms`.
  void step(double now_ms);

  /// True when no queued or in-flight protocol work remains.
  [[nodiscard]] bool quiescent() const { return core_->quiescent(); }

  /// True once begin_leave() finished: every relink acked, vnodes dropped.
  [[nodiscard]] bool departed() const { return core_->departed(); }

  [[nodiscard]] std::uint64_t joins_completed() const {
    return core_->joins_completed();
  }
  [[nodiscard]] std::uint64_t lookups_completed() const {
    return core_->lookups_completed();
  }
  [[nodiscard]] std::uint64_t lookups_hit() const {
    return core_->lookups_hit();
  }

  /// Harness (non-kData) frames received, for the mesh driver to consume.
  bool poll_harness(RxFrame& out);

  [[nodiscard]] const std::map<NodeId, Vnode>& vnodes() const {
    return core_->vnodes();
  }
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] obs::Timeline* timeline() { return timeline_.get(); }
  [[nodiscard]] Transport& transport() { return *transport_; }

  /// End-of-run: final transport-stats fold and timeline flush.  Call once,
  /// after traffic has stopped.
  void finish(double now_ms);

  /// Diagnostic snapshot of everything that keeps quiescent() false.  The
  /// mesh drivers print this when a run misses its deadline and
  /// ROFL_NET_DEBUG=1 is set.
  void debug_dump(std::ostream& os) const { core_->debug_dump(os); }

 private:
  // proto::Env -- the driver's half of the sans-I/O seam.
  void send(RouterId dst, std::vector<std::uint8_t> frame,
            double now_ms) override {
    transport_->send(dst, PumpOp::kData, 0, frame, now_ms);
  }
  obs::Registry& metrics() override { return registry_; }
  void note_retry() override { injector_->note_retry(); }
  void note_retry_exhausted() override { injector_->note_retry_exhausted(); }

  /// Copies the transport pump's counters into the registry (live view).
  void sample_transport_stats();

  /// One pump/drain/tick pass at `now_ms`, receiving into `rx`.
  void pass(double now_ms, RxFrame& rx);

  LiveRouterConfig cfg_;
  Transport* transport_;
  obs::Registry registry_;
  /// The protocol state machine; optional only because the transport
  /// counters must register before the core registers its own (registration
  /// order is the cross-router merge contract).
  std::optional<proto::Core> core_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::unique_ptr<obs::Timeline> timeline_;

  std::deque<RxFrame> harness_rx_;

  // Transport counters, registered ahead of the core's protocol counters.
  obs::MetricId tx_frames_ = 0, tx_bytes_ = 0, rx_frames_ = 0, rx_bytes_ = 0;
  obs::MetricId dedup_dropped_ = 0, ring_dropped_ = 0;
  obs::MetricId malformed_ = 0, throttle_waits_ = 0;
};

}  // namespace rofl::net
