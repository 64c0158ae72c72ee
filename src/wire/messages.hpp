// messages.hpp -- typed control-plane messages and their wire codecs.
//
// Every control exchange in the stack (intradomain join walks, pointer
// installs, teardowns, repairs, keepalives, link-state floods, interdomain
// ring merges) constructs one of these structs, encodes it into a
// wire::Packet payload, and the receiver decodes it CRC-verified before any
// state mutation.  Byte counts therefore come out of the real encoder, which
// is what lets the section 6.3 regression pin 1638 bytes / 258 packets for a
// 256-finger single-homed join instead of trusting a formula.
#pragma once

#include <optional>
#include <variant>
#include <vector>

#include "util/node_id.hpp"
#include "util/sha256.hpp"
#include "wire/packet.hpp"

namespace rofl::wire::msg {

/// A compressed finger entry as the paper's section 6.3 byte analysis
/// assumes: a 32-bit ID prefix plus the 16-bit home AS, 6 bytes on the wire.
/// (The uncompressed 20-byte FingerField stays available on Packet itself for
/// exchanges that need full IDs.)
struct CompactFinger {
  std::uint32_t target_prefix = 0;
  std::uint16_t home_as = 0;

  friend bool operator==(const CompactFinger&, const CompactFinger&) = default;
};

/// PacketType::kJoinRequest.  Fixed payload part is exactly 48 bytes, so with
/// the 54-byte packet framing and 256 compact fingers the frame is
/// 54 + 48 + 256*6 = 1638 bytes -- the paper's section 6.3 figure.
struct JoinRequest {
  std::uint64_t nonce = 0;
  std::uint32_t gateway = 0;     ///< router the host attaches through
  std::uint8_t host_class = 0;   ///< HostClass of the joiner
  std::uint8_t strategy = 0;     ///< join strategy / flags
  Sha256::Digest public_key{};   ///< self-certifying label preimage
  std::vector<CompactFinger> fingers;

  friend bool operator==(const JoinRequest&, const JoinRequest&) = default;
};

/// PacketType::kJoinReply: the predecessor's answer carrying the successor
/// set the joiner adopts and any ephemeral IDs migrating to it.
struct JoinReply {
  NodeId predecessor;
  std::uint32_t predecessor_host = 0;
  std::vector<FingerField> successors;
  std::vector<NodeId> migrated_ephemerals;

  friend bool operator==(const JoinReply&, const JoinReply&) = default;
};

/// PacketType::kLocate: one step of the greedy predecessor-locate walk.
struct Locate {
  NodeId target;
  std::uint8_t purpose = 0;  ///< 0 join walk, 1 repair re-anchor, 2 probe

  friend bool operator==(const Locate&, const Locate&) = default;
};

/// PacketType::kPointerInstall: install or update a ring pointer on the
/// receiver (successor adoption, predecessor update, refill request).
struct PointerInstall {
  NodeId subject;   ///< the virtual node whose pointer changes
  NodeId neighbor;  ///< the new pointer value
  std::uint32_t neighbor_host = 0;
  std::uint8_t op = 0;  ///< 0 adopt-successor, 1 set-predecessor, 2 refill

  friend bool operator==(const PointerInstall&, const PointerInstall&) =
      default;
};

/// PacketType::kTeardown: explicit removal of an ID from the ring.
struct Teardown {
  NodeId id;
  std::uint8_t reason = 0;  ///< 0 host-fail, 1 leave, 2 stale, 3 ephemeral

  friend bool operator==(const Teardown&, const Teardown&) = default;
};

/// PacketType::kRepair: post-failure pointer surgery.
struct Repair {
  NodeId subject;
  NodeId neighbor;
  std::uint32_t neighbor_host = 0;
  std::uint8_t op = 0;  ///< 0 successor-set, 1 predecessor-set, 2 re-anchor

  friend bool operator==(const Repair&, const Repair&) = default;
};

/// PacketType::kKeepalive: session liveness probe (section 5.3 soft state).
struct Keepalive {
  std::uint64_t seq = 0;

  friend bool operator==(const Keepalive&, const Keepalive&) = default;
};

/// PacketType::kLsa: one link-state advertisement as flooded on a topology
/// event (OSPF-substrate analogue the intradomain design assumes).
struct Lsa {
  std::uint32_t origin = 0;
  std::uint64_t version = 0;
  std::uint8_t event = 0;  ///< TopologyEvent kind; 255 = piggybacked/other
  std::uint32_t a = 0;
  std::uint32_t b = 0;

  friend bool operator==(const Lsa&, const Lsa&) = default;
};

/// PacketType::kRingMerge: interdomain Canon-style merge traffic -- register
/// or deregister an ID at an anchor AS for a given merge level.
struct RingMerge {
  NodeId id;
  std::uint32_t home_as = 0;
  std::uint32_t anchor_as = 0;
  std::uint16_t level = 0;
  std::uint8_t op = 0;  ///< 0 register, 1 deregister, 2 lookup

  friend bool operator==(const RingMerge&, const RingMerge&) = default;
};

using ControlMessage = std::variant<JoinRequest, JoinReply, Locate,
                                    PointerInstall, Teardown, Repair,
                                    Keepalive, Lsa, RingMerge>;

/// The PacketType a given message encodes under.
[[nodiscard]] PacketType type_of(const ControlMessage& m);

/// Encodes `m` into a complete wire frame (packet header + typed payload +
/// CRC-32 trailer), written once into a buffer sized by control_wire_size.
/// Returns an empty vector when any count exceeds its u16 wire limit -- the
/// same explicit-failure contract as Packet::encode(); callers must check
/// and never transmit a zero-byte frame.
[[nodiscard]] std::vector<std::uint8_t> encode_control(
    const ControlMessage& m, const NodeId& src, const NodeId& dst,
    std::uint64_t trace_id = 0);

/// A decoded control frame: the CRC-verified header and its typed message.
struct Frame {
  Header header;
  ControlMessage message;
};

/// Decodes a frame produced by encode_control in one pass: one CRC check and
/// one header parse (wire::parse_frame, shared with Packet::decode), then
/// the per-type payload codec reads the payload in place from `frame`.
/// Returns nullopt on any corruption, truncation, unknown type, or trailing
/// payload bytes.
[[nodiscard]] std::optional<Frame> decode_frame(
    std::span<const std::uint8_t> frame);

/// decode_frame's message alone, for callers that need no header field.
[[nodiscard]] std::optional<ControlMessage> decode_control(
    std::span<const std::uint8_t> frame);

/// Exact frame size encode_control would produce, without materializing it.
/// Used on the data path and in bulk accounting where the bytes themselves
/// are not needed.
[[nodiscard]] std::size_t control_wire_size(const ControlMessage& m);

}  // namespace rofl::wire::msg
