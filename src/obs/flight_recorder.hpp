// flight_recorder.hpp -- a bounded ring buffer of per-packet hop records.
//
// Answers "why did this packet take 14 hops": every forwarding decision the
// routing layers make (chase a ring pointer, hit the pointer cache, cross a
// peering link, discover a stale entry, deliver) appends one HopRecord keyed
// by a trace id.  The trace id is allocated when a packet enters the system
// and carried across layers -- including the intradomain -> interdomain
// handoff -- so one id names the packet's whole flight.  Recording is a ring
// write (no allocation after construction); when the ring wraps, the oldest
// hops are overwritten, flight-recorder style.
//
// The recorder is deliberately shared: one instance can serve several
// Network / InterNetwork engines (the hybrid two-level setup), which is what
// makes cross-layer trace ids globally unique.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/node_id.hpp"

namespace rofl::obs {

/// What the router decided at this hop.
enum class HopKind : std::uint8_t {
  kStart,                 // packet enters the system at this node
  kRingPointer,           // committed to a resident-vnode/successor pointer
  kCachePointer,          // committed to a pointer-cache entry
  kEphemeralGateway,      // followed an ephemeral backpointer to its gateway
  kForward,               // one physical hop toward the committed pointer
  // 5 is unassigned.  Values are explicit from here on: the recorder's
  // content digest hashes the kind byte, so renumbering moves every digest.
  kStalePointer = 6,      // chased pointer found dead; torn down and restarted
  kLevelEscalate = 7,     // interdomain: escalated to a higher-level ring
  kPeeringCross = 8,      // interdomain: crossed a peering link (section 4.2)
  kBootstrap = 9,         // interdomain: handed to the ring's zero node
  kDeliver = 10,          // destination reached
  kDrop = 11,             // no way to make progress
  kFaultDrop = 12,        // lost in flight by the fault injector
  kAuditViolation = 13,   // invariant auditor flagged broken state here
};

[[nodiscard]] std::string_view to_string(HopKind k);

/// Which layer recorded the hop; `node` is a router index for kIntra and an
/// AS index for kInter.
enum class HopDomain : std::uint8_t { kIntra = 0, kInter = 1 };

/// Message categories mirror sim::MsgCategory (obs sits below sim in the
/// dependency order, so the numeric values travel as-is; simulator.cpp
/// static_asserts the correspondence).
[[nodiscard]] constexpr std::string_view category_name(std::uint8_t category) {
  constexpr std::string_view kNames[] = {"join",      "teardown", "repair",
                                         "linkstate", "data",     "control"};
  if (category < 6) return kNames[category];
  return "?";
}

struct HopRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t seq = 0;     // recorder-global monotonic order
  double t_ms = 0.0;         // virtual time at the hop
  HopDomain domain = HopDomain::kIntra;
  std::uint32_t node = 0;    // router or AS index
  std::uint8_t category = 0; // sim::MsgCategory value
  HopKind kind = HopKind::kStart;
  std::uint32_t frame_bytes = 0;  // encoded wire-frame size (0 = not framed)
  NodeId chased;             // pointer target driving the decision (or dest)

  friend bool operator==(const HopRecord&, const HopRecord&) = default;
};

class FlightRecorder {
 public:
  /// `capacity` > 0: the number of hop records retained.
  explicit FlightRecorder(std::size_t capacity);

  /// Allocates the next trace id (monotonic from 1; 0 means "untraced").
  [[nodiscard]] std::uint64_t new_trace() { return next_trace_id_++; }

  /// Appends a record (seq is assigned here), overwriting the oldest when
  /// the ring is full.
  void record(HopRecord r);

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::size_t size() const { return full_ ? ring_.size() : head_; }
  [[nodiscard]] bool wrapped() const { return full_; }
  [[nodiscard]] std::uint64_t records_seen() const { return next_seq_; }

  /// Commutative digest over every record ever written (not just the ones
  /// still retained): per-record FNV-style hashes combined by wrapping
  /// addition, excluding the recorder-assigned seq.  Because the combination
  /// is order-independent, the digests of N per-shard recorders sum to the
  /// digest one recorder would have produced for the same records in any
  /// interleaving -- the property the sharded determinism gate compares.
  [[nodiscard]] std::uint64_t content_digest() const { return content_digest_; }

  /// All retained records, oldest first.
  [[nodiscard]] std::vector<HopRecord> all() const;

  /// Retained records for one trace id, in hop order.
  [[nodiscard]] std::vector<HopRecord> trace(std::uint64_t trace_id) const;

  /// Traceroute-style dump of one flight:
  ///
  ///   trace 17 (6 hops):
  ///     0  [intra]  router 12  start          dest=3f9a..
  ///     1  [intra]  router 12  ring-pointer   via=4a11..
  ///     ...
  [[nodiscard]] std::string format_trace(std::uint64_t trace_id) const;

  /// Empties the ring; trace-id and seq allocation keep counting.
  void clear();

 private:
  std::vector<HopRecord> ring_;
  std::size_t head_ = 0;  // next write position
  bool full_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t content_digest_ = 0;
};

}  // namespace rofl::obs
