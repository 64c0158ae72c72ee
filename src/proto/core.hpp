// core.hpp -- the sans-I/O intradomain protocol state machine.
//
// One router's worth of ROFL control-plane behavior -- the greedy
// predecessor-locate walk, join/splice with idempotent re-reply, pointer
// installs retried until acked, data-plane lookups, and clean departure --
// as a pure message-driven core.  The core consumes decoded
// wire::ControlMessage frames plus the clock value its driver passes in,
// and emits every effect (encoded frames, retry telemetry, metrics)
// through the narrow proto::Env interface.  It opens no sockets, spawns no
// threads, reads no clock, and draws no randomness.
//
// net::LiveRouter is a thin driver over this core: transport pump in,
// on_frame()/tick() through, frames back out.  The loopback mesh drives it
// on a virtual clock, the UDP and spawn meshes on wall clocks -- the same
// object code runs in all three, which is what makes the section 6.3
// byte-parity gate and the cross-substrate equivalence test meaningful.
// The ring *decisions* the handlers make (predecessor tests, splice
// validity, the notify rule, join-reply construction, leave relinks) live
// one layer down in proto/ring.hpp, shared verbatim with intra::Network on
// the simulators.  DESIGN.md section 16 has the full layering.
//
// Wire conventions (identical to the pre-refactor LiveRouter):
//   Locate           purpose 0 = join walk, 2 = data-plane lookup probe;
//                    the requester's router id rides in the packet source
//                    label (NodeId::from_u64(router)).
//   PointerInstall   op=2 answers a locate (join or lookup, matched to its
//                    task by the trace nonce); op=1 is the set-predecessor
//                    install a splicer retries until acked.
//   JoinRequest /    the splice exchange; an empty successor set in the
//   JoinReply        reply is a redirect (the ring moved under the walk).
//   Repair           clean departure: op=1 re-points the surviving
//                    successor's predecessor, op=0 the surviving
//                    predecessor's successor; retried until acked.
//   Keepalive        seq echoes an install/relink nonce: the ack.
//
// Retries: all pending work backs off on one CoreConfig::retry schedule.  A
// walk (join or lookup) resends its current frame to the router it went to;
// while still locating it restarts from the bootstrap after max_attempts,
// but a JoinRequest keeps backing off against its splicer, the one router
// that can re-reply from its cache.  An outbox entry (install or relink) is
// resent to its destination until a Keepalive acks its nonce.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <span>
#include <unordered_map>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "proto/env.hpp"
#include "proto/ring.hpp"
#include "sim/faults.hpp"
#include "util/identity.hpp"
#include "util/node_id.hpp"
#include "wire/messages.hpp"

namespace rofl::proto {

/// One ring-resident virtual node homed on this router.
struct Vnode {
  NodeId id;
  NodeId succ;
  RouterId succ_owner = 0;
  NodeId pred;
  RouterId pred_owner = 0;
};

struct CoreConfig {
  RouterId self = 0;
  RouterId bootstrap = 0;          ///< where fresh locate walks start
  std::uint32_t fingers = 256;     ///< CompactFingers per JoinRequest (6.3)
  std::uint32_t max_outstanding = 8;  ///< concurrent joins (and lookups)
  sim::RetryPolicy retry{/*max_attempts=*/10, /*timeout_ms=*/40.0,
                         /*backoff=*/1.6, /*max_timeout_ms=*/500.0};
};

class Core {
 public:
  /// Registers this core's metrics in env.metrics() (identical names and
  /// order on every router -- the registry merge contract).
  Core(CoreConfig cfg, Env& env);

  /// Installs the bootstrap identity with self-looped pointers -- the
  /// one-node ring every walk can terminate against.  Call on exactly one
  /// router.
  void seed(const Identity& first);

  /// Queues one host identity this gateway will join into the ring.
  void enqueue_join(Identity ident);

  /// Queues one data-plane lookup: a Locate probe (purpose 2) walked over
  /// the live ring; the answer resolves the target id to its owning router.
  void enqueue_lookup(const NodeId& target);

  /// Starts a clean departure: computes the surviving-boundary relinks
  /// (proto::compute_leave_relinks), installs them with retried-until-acked
  /// Repair messages, and drops every resident vnode once all are acked.
  /// Serialize against joins: call only after the mesh has converged.
  void begin_leave(double now_ms);

  /// Decodes one received control frame (one pass: msg::decode_frame) and
  /// dispatches it.  Undecodable frames (CRC-rejected corruption) count as
  /// loss; retries recover.
  void on_frame(std::span<const std::uint8_t> frame, double now_ms);

  /// Timer pass: start queued joins/lookups up to the outstanding cap, fire
  /// retry deadlines.  Poll-driven drivers call this every step.
  void tick(double now_ms);

  /// True when no queued or in-flight work remains (joins, lookups,
  /// installs, leave relinks).
  [[nodiscard]] bool quiescent() const {
    return queued_.empty() && joins_.empty() && queued_lookups_.empty() &&
           lookups_.empty() && outbox_.empty();
  }

  /// True once begin_leave() finished: every relink acked, vnodes dropped.
  [[nodiscard]] bool departed() const { return departed_; }

  [[nodiscard]] std::uint64_t joins_completed() const {
    return joins_completed_;
  }
  [[nodiscard]] std::uint64_t lookups_completed() const {
    return lookups_completed_;
  }
  [[nodiscard]] std::uint64_t lookups_hit() const { return lookups_hit_; }

  [[nodiscard]] const std::map<NodeId, Vnode>& vnodes() const {
    return vnodes_;
  }

  /// Diagnostic snapshot of everything that keeps quiescent() false.
  void debug_dump(std::ostream& os) const;

 private:
  /// Backoff state of one retried exchange; `attempt` counts resends since
  /// the exchange (re)started.
  struct Retry {
    unsigned attempt = 0;
    double timeout_ms = 0.0;
    double deadline_ms = 0.0;
  };

  /// A join (purpose 0) or lookup (purpose 2) Locate walk, matched to its
  /// answers by `nonce`.  `at` is where its current frame went: once a join's
  /// walk is answered, the JoinRequest to the predecessor's owner.
  struct Walk {
    NodeId target;
    std::uint64_t nonce = 0;
    RouterId at = 0;
    std::uint8_t purpose = 0;
    bool joining = false;
    Retry retry{};
    double started_ms = 0.0;
    PublicKey key{};  ///< the joiner's; join walks only
  };

  /// A set-predecessor install (PointerInstall op=1) or a departure relink
  /// (Repair), resent to `dst` until a Keepalive acks its nonce.
  struct Outbound {
    RouterId dst = 0;
    std::variant<wire::msg::PointerInstall, wire::msg::Repair> msg;
    Retry retry{};
  };

  void send_control(RouterId dst, const wire::msg::ControlMessage& m,
                    const NodeId& src, const NodeId& dst_id,
                    std::uint64_t trace_id, double now_ms);
  /// Per-type message and byte accounting for one frame sent (inline: it
  /// runs on every send).
  void count(wire::PacketType type, std::size_t bytes) {
    const auto it = per_type_.find(static_cast<std::uint8_t>(type));
    if (it == per_type_.end()) return;
    obs::Registry& reg = env_.metrics();
    reg.add(it->second.msgs);
    reg.add(it->second.bytes, bytes);
  }
  [[nodiscard]] Retry fresh_retry(double now_ms) const {
    return Retry{0, cfg_.retry.timeout_ms, now_ms + cfg_.retry.timeout_ms};
  }
  /// The one backoff step: counts the caller's resend, moves the deadline.
  void backoff(Retry& r, double now_ms);
  void start_walk(Walk& w, RouterId at, double now_ms);  ///< (re)locate
  void send_walk(const Walk& w, double now_ms);  ///< Locate or JoinRequest
  void retry_walk(Walk& w, double now_ms);
  /// Sends `m` to `dst` and keeps it in the outbox until acked.
  void post(RouterId dst, decltype(Outbound::msg) m, double now_ms);
  void send_outbound(std::uint64_t nonce, const Outbound& o, double now_ms);
  /// Keepalive echoing the nonce of the install or relink in `hdr`.
  void ack(const wire::Header& hdr, const NodeId& subject, double now_ms);
  void on_locate(const wire::Header& hdr, const wire::msg::Locate& m,
                 double now_ms);
  void on_join_request(const wire::Header& hdr,
                       const wire::msg::JoinRequest& m, double now_ms);
  void on_join_reply(const wire::Header& hdr, const wire::msg::JoinReply& m,
                     double now_ms);
  void on_pointer_install(const wire::Header& hdr,
                          const wire::msg::PointerInstall& m, double now_ms);
  void on_repair(const wire::Header& hdr, const wire::msg::Repair& m,
                 double now_ms);
  void on_keepalive(const wire::msg::Keepalive& m);
  void answer_locate(RouterId requester, const NodeId& target,
                     const NodeId& neighbor, RouterId neighbor_owner,
                     std::uint64_t trace_id, double now_ms);
  /// Local vnode with the smallest nonzero clockwise distance to `target`
  /// (proto::closest_predecessor, O(log n) on the ordered resident map);
  /// nullptr when none.
  Vnode* best_predecessor(const NodeId& target);
  std::uint64_t next_nonce() {
    return (static_cast<std::uint64_t>(cfg_.self) << 40) | ++nonce_counter_;
  }

  CoreConfig cfg_;
  Env& env_;

  std::map<NodeId, Vnode> vnodes_;
  std::deque<Identity> queued_;
  std::vector<Walk> joins_;
  std::deque<NodeId> queued_lookups_;
  std::vector<Walk> lookups_;
  /// Installs and relinks awaiting their Keepalive, by nonce.
  std::unordered_map<std::uint64_t, Outbound> outbox_;
  /// Encoded JoinReply per spliced id: the idempotent re-reply for
  /// retransmitted JoinRequests.
  std::unordered_map<NodeId, std::vector<std::uint8_t>> join_cache_;

  bool leaving_ = false;
  bool departed_ = false;

  std::uint64_t nonce_counter_ = 0;
  std::uint64_t joins_completed_ = 0;
  std::uint64_t lookups_completed_ = 0;
  std::uint64_t lookups_hit_ = 0;

  // MetricIds, registered in constructor order (identical across routers so
  // registries and timelines merge by dense id).
  obs::MetricId decode_failed_ = 0;
  obs::MetricId retrans_ = 0, acks_ = 0, redirects_ = 0, locate_steps_ = 0;
  obs::MetricId joins_done_id_ = 0, joins_rejected_ = 0;
  struct PerType {
    obs::MetricId msgs = 0;
    obs::MetricId bytes = 0;
  };
  std::unordered_map<std::uint8_t, PerType> per_type_;  // by PacketType
  obs::MetricId lookups_done_id_ = 0, lookups_hit_id_ = 0;
  obs::MetricId leave_relinks_ = 0;
  obs::MetricId join_latency_ = 0;    // histogram
  obs::MetricId lookup_latency_ = 0;  // histogram
};

}  // namespace rofl::proto
