#include "wire/packet.hpp"

#include <array>
#include <cassert>
#include <cstring>

namespace rofl::wire {
namespace {

constexpr std::uint8_t kFlagPeering = 0x01;
constexpr std::uint8_t kFlagCapability = 0x02;

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: row 0 is the classic byte-at-a-time table, row k
/// advances a byte's contribution through k further zero bytes, so eight
/// input bytes fold into the CRC with eight independent lookups.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const CrcTables& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t a = crc ^ load_le32(p);
    const std::uint32_t b = load_le32(p + 4);
    crc = t[7][a & 0xFFu] ^ t[6][(a >> 8) & 0xFFu] ^ t[5][(a >> 16) & 0xFFu] ^
          t[4][a >> 24] ^ t[3][b & 0xFFu] ^ t[2][(b >> 8) & 0xFFu] ^
          t[1][(b >> 16) & 0xFFu] ^ t[0][b >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return ~crc;
}

void write_node_id(ByteWriter& w, const NodeId& id) {
  w.u64(id.hi());
  w.u64(id.lo());
}

std::optional<NodeId> read_node_id(ByteReader& r) {
  const auto hi = r.u64();
  const auto lo = r.u64();
  if (!hi.has_value() || !lo.has_value()) return std::nullopt;
  return NodeId{*hi, *lo};
}

void write_frame_head(ByteWriter& w, const Packet& head,
                      std::size_t payload_len) {
  w.u8(head.version);
  w.u8(static_cast<std::uint8_t>(head.type));
  w.u8(head.ttl);
  std::uint8_t flags = 0;
  if (head.crossed_peering) flags |= kFlagPeering;
  if (head.capability.has_value()) flags |= kFlagCapability;
  w.u8(flags);
  write_node_id(w, head.destination);
  write_node_id(w, head.source);
  w.u64(head.trace_id);
  w.u16(static_cast<std::uint16_t>(head.as_path.size()));
  for (const std::uint32_t as : head.as_path) w.u32(as);
  if (head.capability.has_value()) {
    const CapabilityField& cap = *head.capability;
    write_node_id(w, cap.source);
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(cap.expiry_ms));
    std::memcpy(&bits, &cap.expiry_ms, sizeof(bits));
    w.u64(bits);
    w.bytes(std::span<const std::uint8_t>(cap.token.data(), cap.token.size()));
  }
  w.u16(static_cast<std::uint16_t>(head.fingers.size()));
  for (const FingerField& f : head.fingers) {
    write_node_id(w, f.target);
    w.u32(f.home_as);
  }
  w.u16(static_cast<std::uint16_t>(payload_len));
}

void seal_frame(ByteWriter& w) {
  // Integrity trailer over everything above.  A link that flips any bit of
  // the packet -- header, fields, or payload -- fails decode instead of
  // delivering silently corrupted state.
  w.u32(crc32(w.data()));
}

std::optional<FrameView> parse_frame(std::span<const std::uint8_t> data) {
  // Verify and strip the CRC trailer first: a corrupted buffer must never be
  // parsed into fields at all.
  if (data.size() < 4) return std::nullopt;
  const std::span<const std::uint8_t> body = data.first(data.size() - 4);
  std::uint32_t expected = 0;
  for (std::size_t i = data.size() - 4; i < data.size(); ++i) {
    expected = (expected << 8) | data[i];
  }
  if (crc32(body) != expected) return std::nullopt;

  ByteReader r(body);
  FrameView f;
  Header& h = f.header;
  const auto version = r.u8();
  if (!version.has_value() || *version != kVersion) return std::nullopt;
  h.version = *version;
  const auto type = r.u8();
  if (!type.has_value() || *type < 1 || *type > kMaxPacketType) {
    return std::nullopt;
  }
  h.type = static_cast<PacketType>(*type);
  const auto ttl = r.u8();
  const auto flags = r.u8();
  if (!ttl.has_value() || !flags.has_value()) return std::nullopt;
  h.ttl = *ttl;
  h.crossed_peering = (*flags & kFlagPeering) != 0;

  const auto dest = read_node_id(r);
  const auto src = read_node_id(r);
  const auto trace_id = r.u64();
  if (!dest.has_value() || !src.has_value() || !trace_id.has_value()) {
    return std::nullopt;
  }
  h.destination = *dest;
  h.source = *src;
  h.trace_id = *trace_id;

  const auto path_len = r.u16();
  if (!path_len.has_value()) return std::nullopt;
  const auto as_path = r.bytes(std::size_t{4} * *path_len);
  if (!as_path.has_value()) return std::nullopt;
  f.as_path = *as_path;

  if ((*flags & kFlagCapability) != 0) {
    CapabilityField cap;
    const auto cap_src = read_node_id(r);
    const auto expiry_bits = r.u64();
    const auto token = r.bytes(cap.token.size());
    if (!cap_src.has_value() || !expiry_bits.has_value() ||
        !token.has_value()) {
      return std::nullopt;
    }
    cap.source = *cap_src;
    std::uint64_t bits = *expiry_bits;
    std::memcpy(&cap.expiry_ms, &bits, sizeof(bits));
    std::memcpy(cap.token.data(), token->data(), cap.token.size());
    f.capability = cap;
  }

  const auto finger_count = r.u16();
  if (!finger_count.has_value()) return std::nullopt;
  const auto fingers = r.bytes(std::size_t{20} * *finger_count);
  if (!fingers.has_value()) return std::nullopt;
  f.fingers = *fingers;

  const auto payload = r.lp_bytes();
  if (!payload.has_value()) return std::nullopt;
  f.payload = *payload;
  if (!r.exhausted()) return std::nullopt;  // trailing garbage
  return f;
}

std::vector<std::uint8_t> Packet::encode() const {
  // Counts and lengths ride u16 fields; anything larger cannot be encoded
  // without corrupting the packet, so encoding refuses (empty result)
  // instead of clamping.
  if (payload.size() > 0xFFFF || as_path.size() > 0xFFFF ||
      fingers.size() > 0xFFFF) {
    return {};
  }
  ByteWriter w(wire_size());
  write_frame_head(w, *this, payload.size());
  w.bytes(std::span<const std::uint8_t>(payload.data(), payload.size()));
  seal_frame(w);
  assert(w.size() == wire_size());
  return w.take();
}

std::optional<Packet> Packet::decode(std::span<const std::uint8_t> data) {
  const auto f = parse_frame(data);
  if (!f.has_value()) return std::nullopt;
  Packet p;
  static_cast<Header&>(p) = f->header;
  // parse_frame bounded every section, so these reads cannot fail.
  ByteReader path(f->as_path);
  p.as_path.reserve(f->as_path.size() / 4);
  while (!path.exhausted()) p.as_path.push_back(*path.u32());
  p.capability = f->capability;
  ByteReader fingers(f->fingers);
  p.fingers.reserve(f->fingers.size() / 20);
  while (!fingers.exhausted()) {
    FingerField ff;
    ff.target = *read_node_id(fingers);
    ff.home_as = *fingers.u32();
    p.fingers.push_back(ff);
  }
  p.payload.assign(f->payload.begin(), f->payload.end());
  return p;
}

std::size_t Packet::wire_size() const {
  std::size_t n = 4 + 16 + 16 + 8 + 2 + 4 * as_path.size();
  if (capability.has_value()) n += 16 + 8 + capability->token.size();
  n += 2 + 20 * fingers.size();
  n += 2 + payload.size();
  n += 4;  // CRC-32 trailer
  return n;
}

std::size_t Packet::fragments(std::size_t mtu) const {
  // Guard the framing boundary: with mtu <= kFrameOverhead the effective
  // payload per fragment is zero or negative, and the old arithmetic
  // (unsigned) turned that into nonsense counts.  Such an MTU cannot carry
  // this packet at all, so report 0 fragments and let callers treat it as a
  // refusal.
  if (mtu <= kFrameOverhead) return 0;
  const std::size_t size = wire_size();
  return (size + mtu - 1) / mtu;
}

}  // namespace rofl::wire
