// packet.hpp -- ROFL packet formats.
//
// The header the design implies (sections 2.3, 4.1, 5.3): a type, the flat
// destination (and source) labels, a TTL, the peering bit used by the
// bloom-filter rule, the AS-level source route the packet accumulates, an
// optional capability, and -- for join messages -- the carried finger
// entries whose size the paper weighs against the MTU ("with 256 fingers the
// message size increases to 1638 bytes; ... a 256-finger single-homed join
// requires 258 IP packets", section 6.3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/node_id.hpp"
#include "util/sha256.hpp"
#include "wire/buffer.hpp"

namespace rofl::wire {

enum class PacketType : std::uint8_t {
  kData = 1,
  kJoinRequest = 2,
  kJoinReply = 3,
  kTeardown = 4,
  kRepair = 5,
  kKeepalive = 6,
  kCapabilityGrant = 7,
  // Control-plane types added when every exchange moved onto the wire
  // (PR 5): the greedy locate walk, pointer installs/updates, link-state
  // advertisements, and interdomain ring-merge registrations.
  kLocate = 8,
  kPointerInstall = 9,
  kLsa = 10,
  kRingMerge = 11,
  // 12 and 13 are unassigned; decode rejects them.
};

/// Highest assigned PacketType -- decode's range check derives from this so
/// adding a type cannot silently leave it rejected on the wire.
inline constexpr std::uint8_t kMaxPacketType =
    static_cast<std::uint8_t>(PacketType::kRingMerge);

inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kDefaultMtu = 1500;
/// Network packets one logical frame of `frame_bytes` costs on each physical
/// hop it crosses in the simulators: ceil(frame_bytes / kDefaultMtu), and at
/// least one.  Section 6.3's 1638-byte JoinRequest costs 2 per hop.
[[nodiscard]] constexpr std::uint64_t hop_packets(std::size_t frame_bytes) {
  return std::max<std::uint64_t>(
      1, (frame_bytes + kDefaultMtu - 1) / kDefaultMtu);
}
/// Fixed framing cost of a control frame with no variable-length fields:
/// 4 header + 16 dst + 16 src + 8 trace + 2 as_path count + 2 finger count +
/// 2 payload length + 4 CRC.  An MTU at or below this carries no payload per
/// fragment, so fragmentation is impossible.
inline constexpr std::size_t kFrameOverhead = 54;

struct CapabilityField {
  NodeId source;
  double expiry_ms = 0.0;
  Sha256::Digest token{};

  friend bool operator==(const CapabilityField&, const CapabilityField&) =
      default;
};

/// A finger entry as carried in join messages: target ID plus the home AS.
/// 16 + 4 = 20 bytes each on the wire (the paper's estimate of ~6 bytes
/// assumed compressed IDs; the byte count is a parameter of the analysis,
/// not of the protocol).
struct FingerField {
  NodeId target;
  std::uint32_t home_as = 0;

  friend bool operator==(const FingerField&, const FingerField&) = default;
};

/// The fixed leading fields of every frame: a Packet's first part, and what
/// wire::msg::decode_frame returns beside the message.
struct Header {
  std::uint8_t version = kVersion;
  PacketType type = PacketType::kData;
  std::uint8_t ttl = 64;
  /// The bloom-peering rule's marker: once set, the packet may not be
  /// relayed up the hierarchy (section 4.2).
  bool crossed_peering = false;
  NodeId destination;
  NodeId source;
  /// Flight-recorder trace id (obs::FlightRecorder); 0 = untraced.  Carried
  /// on the wire so one id names a packet's whole flight across the
  /// intradomain -> interdomain handoff.
  std::uint64_t trace_id = 0;

  friend bool operator==(const Header&, const Header&) = default;
};

struct Packet : Header {
  /// AS-level source route accumulated as the packet travels (section 2.3).
  std::vector<std::uint32_t> as_path;
  std::optional<CapabilityField> capability;
  std::vector<FingerField> fingers;  // join messages only
  std::vector<std::uint8_t> payload;

  /// Serializes the packet.  Returns an empty vector when a variable-length
  /// field (payload, as_path, fingers) exceeds its u16 wire limit -- an
  /// explicit failure, never a silently truncated packet.  The encoding ends
  /// with a CRC-32 trailer over every preceding byte.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Parses an encoding.  Returns nullopt on truncation, trailing garbage,
  /// bad version/type, or CRC mismatch -- any single bit flipped anywhere in
  /// the buffer is guaranteed to be rejected rather than decoded into a
  /// silently different packet.
  [[nodiscard]] static std::optional<Packet> decode(
      std::span<const std::uint8_t> data);

  /// Exact on-wire size without materializing the bytes.
  [[nodiscard]] std::size_t wire_size() const;

  /// Number of MTU-sized network packets this message occupies -- the
  /// quantity the paper charges for finger-carrying joins.  An MTU at or
  /// below kFrameOverhead leaves no room for payload (the effective
  /// payload-per-fragment would wrap negative), so it yields 0: "cannot be
  /// fragmented", never a bogus huge count.
  [[nodiscard]] std::size_t fragments(std::size_t mtu = kDefaultMtu) const;

  friend bool operator==(const Packet&, const Packet&) = default;
};

/// A CRC-verified frame split into its fields without copying: the
/// variable-length sections are views into the decoded buffer.  parse_frame
/// is the one parser of the frame layout -- Packet::decode materializes a
/// Packet from it, and wire::msg::decode_frame parses the control payload in
/// place.
struct FrameView {
  Header header;
  std::span<const std::uint8_t> as_path;  ///< 4 bytes per AS
  std::optional<CapabilityField> capability;
  std::span<const std::uint8_t> fingers;  ///< kFingerFieldBytes per finger
  std::span<const std::uint8_t> payload;
};

/// Verifies the CRC trailer, then splits the frame.  nullopt on the same
/// conditions as Packet::decode.
[[nodiscard]] std::optional<FrameView> parse_frame(
    std::span<const std::uint8_t> data);

/// Writes `head`'s frame layout up to and including the u16 payload length
/// (head.payload itself is not written): the one writer of the frame layout,
/// shared by Packet::encode and wire::msg::encode_control.  The caller then
/// appends exactly `payload_len` payload bytes and calls seal_frame.  Counts
/// must already be range-checked against their u16 fields.
void write_frame_head(ByteWriter& w, const Packet& head,
                      std::size_t payload_len);

/// Appends the CRC-32 trailer over everything written so far.
void seal_frame(ByteWriter& w);

/// The frame trailer's CRC-32: IEEE 802.3, reflected polynomial 0xEDB88320,
/// initial value and final XOR 0xFFFFFFFF (check value: "123456789" ->
/// 0xCBF43926).  One checksum, two implementations chosen once per process
/// by CPU: on x86 with PCLMULQDQ and SSE4.1, inputs of 64 bytes or more fold
/// by carry-less multiply; everything else runs crc32_table.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// The same CRC-32 by slicing-by-8 over compile-time tables: crc32's path for
/// short inputs and CPUs without carry-less multiply, and its reference.
[[nodiscard]] std::uint32_t crc32_table(std::span<const std::uint8_t> data);

/// Serializes a NodeId (16 bytes, big-endian).
void write_node_id(ByteWriter& w, const NodeId& id);
[[nodiscard]] std::optional<NodeId> read_node_id(ByteReader& r);

/// Fixed-size records at a raw position the caller has already bounded
/// (ByteWriter::append, ByteReader::bytes): the per-record bodies of the
/// bulk loops over finger tables, successor lists and migrated IDs.
inline constexpr std::size_t kNodeIdBytes = 16;
inline constexpr std::size_t kFingerFieldBytes = kNodeIdBytes + 4;

inline void store_node_id(std::uint8_t* p, const NodeId& id) {
  store_be64(p, id.hi());
  store_be64(p + 8, id.lo());
}
[[nodiscard]] inline NodeId load_node_id(const std::uint8_t* p) {
  return NodeId{load_be64(p), load_be64(p + 8)};
}
inline void store_finger(std::uint8_t* p, const FingerField& f) {
  store_node_id(p, f.target);
  store_be32(p + kNodeIdBytes, f.home_as);
}
[[nodiscard]] inline FingerField load_finger(const std::uint8_t* p) {
  return FingerField{load_node_id(p), load_be32(p + kNodeIdBytes)};
}

}  // namespace rofl::wire
