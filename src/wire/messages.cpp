#include "wire/messages.hpp"

#include <cassert>

namespace rofl::wire::msg {
namespace {

/// A CompactFinger on the wire: u32 ID prefix, u16 home AS.
constexpr std::size_t kCompactFingerBytes = 6;

// ---- per-type payload encoders ---------------------------------------------
// Each writes only the payload bytes; the frame head and CRC trailer come
// from write_frame_head / seal_frame.  All counts ride u16 fields and are
// range-checked by the caller before these run.  A repeated record takes
// its whole block from one ByteWriter::append.

void put(ByteWriter& w, const JoinRequest& m) {
  w.u64(m.nonce);
  w.u32(m.gateway);
  w.u8(m.host_class);
  w.u8(m.strategy);
  w.bytes(std::span<const std::uint8_t>(m.public_key.data(),
                                        m.public_key.size()));
  w.u16(static_cast<std::uint16_t>(m.fingers.size()));
  std::uint8_t* p = w.append(kCompactFingerBytes * m.fingers.size()).data();
  for (const CompactFinger& f : m.fingers) {
    store_be32(p, f.target_prefix);
    store_be16(p + 4, f.home_as);
    p += kCompactFingerBytes;
  }
}

void put(ByteWriter& w, const JoinReply& m) {
  write_node_id(w, m.predecessor);
  w.u32(m.predecessor_host);
  w.u16(static_cast<std::uint16_t>(m.successors.size()));
  std::uint8_t* p = w.append(kFingerFieldBytes * m.successors.size()).data();
  for (const FingerField& s : m.successors) {
    store_finger(p, s);
    p += kFingerFieldBytes;
  }
  w.u16(static_cast<std::uint16_t>(m.migrated_ephemerals.size()));
  p = w.append(kNodeIdBytes * m.migrated_ephemerals.size()).data();
  for (const NodeId& id : m.migrated_ephemerals) {
    store_node_id(p, id);
    p += kNodeIdBytes;
  }
}

void put(ByteWriter& w, const Locate& m) {
  write_node_id(w, m.target);
  w.u8(m.purpose);
}

void put(ByteWriter& w, const PointerInstall& m) {
  write_node_id(w, m.subject);
  write_node_id(w, m.neighbor);
  w.u32(m.neighbor_host);
  w.u8(m.op);
}

void put(ByteWriter& w, const Teardown& m) {
  write_node_id(w, m.id);
  w.u8(m.reason);
}

void put(ByteWriter& w, const Repair& m) {
  write_node_id(w, m.subject);
  write_node_id(w, m.neighbor);
  w.u32(m.neighbor_host);
  w.u8(m.op);
}

void put(ByteWriter& w, const Keepalive& m) { w.u64(m.seq); }

void put(ByteWriter& w, const Lsa& m) {
  w.u32(m.origin);
  w.u64(m.version);
  w.u8(m.event);
  w.u32(m.a);
  w.u32(m.b);
}

void put(ByteWriter& w, const RingMerge& m) {
  write_node_id(w, m.id);
  w.u32(m.home_as);
  w.u32(m.anchor_as);
  w.u16(m.level);
  w.u8(m.op);
}

// ---- per-type payload decoders ---------------------------------------------
// Each fills `m` in place (the variant alternative decode_frame emplaced) and
// returns false on truncation; every field read is checked, and decode_frame
// additionally requires the payload to be fully consumed.  A repeated
// record's block is bounded once from its count (ByteReader::bytes refuses a
// count the payload cannot hold), then read in a loop with no further checks.

bool get(ByteReader& r, JoinRequest& m) {
  const auto nonce = r.u64();
  const auto gateway = r.u32();
  const auto host_class = r.u8();
  const auto strategy = r.u8();
  const auto key = r.bytes(m.public_key.size());
  const auto count = r.u16();
  if (!nonce || !gateway || !host_class || !strategy || !key || !count) {
    return false;
  }
  const auto block = r.bytes(kCompactFingerBytes * *count);
  if (!block) return false;
  m.nonce = *nonce;
  m.gateway = *gateway;
  m.host_class = *host_class;
  m.strategy = *strategy;
  std::copy(key->begin(), key->end(), m.public_key.begin());
  m.fingers.resize(*count);
  const std::uint8_t* p = block->data();
  for (CompactFinger& f : m.fingers) {
    f = CompactFinger{load_be32(p), load_be16(p + 4)};
    p += kCompactFingerBytes;
  }
  return true;
}

bool get(ByteReader& r, JoinReply& m) {
  const auto pred = read_node_id(r);
  const auto pred_host = r.u32();
  const auto nsucc = r.u16();
  if (!pred || !pred_host || !nsucc) return false;
  const auto succ_block = r.bytes(kFingerFieldBytes * *nsucc);
  if (!succ_block) return false;
  const auto nmig = r.u16();
  if (!nmig) return false;
  const auto mig_block = r.bytes(kNodeIdBytes * *nmig);
  if (!mig_block) return false;
  m.predecessor = *pred;
  m.predecessor_host = *pred_host;
  m.successors.resize(*nsucc);
  const std::uint8_t* p = succ_block->data();
  for (FingerField& s : m.successors) {
    s = load_finger(p);
    p += kFingerFieldBytes;
  }
  m.migrated_ephemerals.resize(*nmig);
  p = mig_block->data();
  for (NodeId& id : m.migrated_ephemerals) {
    id = load_node_id(p);
    p += kNodeIdBytes;
  }
  return true;
}

bool get(ByteReader& r, Locate& m) {
  const auto target = read_node_id(r);
  const auto purpose = r.u8();
  if (!target || !purpose) return false;
  m = Locate{*target, *purpose};
  return true;
}

bool get(ByteReader& r, PointerInstall& m) {
  const auto subject = read_node_id(r);
  const auto neighbor = read_node_id(r);
  const auto host = r.u32();
  const auto op = r.u8();
  if (!subject || !neighbor || !host || !op) return false;
  m = PointerInstall{*subject, *neighbor, *host, *op};
  return true;
}

bool get(ByteReader& r, Teardown& m) {
  const auto id = read_node_id(r);
  const auto reason = r.u8();
  if (!id || !reason) return false;
  m = Teardown{*id, *reason};
  return true;
}

bool get(ByteReader& r, Repair& m) {
  const auto subject = read_node_id(r);
  const auto neighbor = read_node_id(r);
  const auto host = r.u32();
  const auto op = r.u8();
  if (!subject || !neighbor || !host || !op) return false;
  m = Repair{*subject, *neighbor, *host, *op};
  return true;
}

bool get(ByteReader& r, Keepalive& m) {
  const auto seq = r.u64();
  if (!seq) return false;
  m = Keepalive{*seq};
  return true;
}

bool get(ByteReader& r, Lsa& m) {
  const auto origin = r.u32();
  const auto version = r.u64();
  const auto event = r.u8();
  const auto a = r.u32();
  const auto b = r.u32();
  if (!origin || !version || !event || !a || !b) return false;
  m = Lsa{*origin, *version, *event, *a, *b};
  return true;
}

bool get(ByteReader& r, RingMerge& m) {
  const auto id = read_node_id(r);
  const auto home = r.u32();
  const auto anchor = r.u32();
  const auto level = r.u16();
  const auto op = r.u8();
  if (!id || !home || !anchor || !level || !op) return false;
  m = RingMerge{*id, *home, *anchor, *level, *op};
  return true;
}

/// Decodes a `type` frame's payload into `m`; false on truncation or for a
/// type with no control codec.
bool get_payload(ByteReader& r, PacketType type, ControlMessage& m) {
  switch (type) {
    case PacketType::kJoinRequest: return get(r, m.emplace<JoinRequest>());
    case PacketType::kJoinReply: return get(r, m.emplace<JoinReply>());
    case PacketType::kLocate: return get(r, m.emplace<Locate>());
    case PacketType::kPointerInstall:
      return get(r, m.emplace<PointerInstall>());
    case PacketType::kTeardown: return get(r, m.emplace<Teardown>());
    case PacketType::kRepair: return get(r, m.emplace<Repair>());
    case PacketType::kKeepalive: return get(r, m.emplace<Keepalive>());
    case PacketType::kLsa: return get(r, m.emplace<Lsa>());
    case PacketType::kRingMerge: return get(r, m.emplace<RingMerge>());
    default: return false;  // kData / kCapabilityGrant carry no codec
  }
}

bool counts_fit(const ControlMessage& m) {
  if (const auto* jr = std::get_if<JoinRequest>(&m)) {
    return jr->fingers.size() <= 0xFFFF;
  }
  if (const auto* jp = std::get_if<JoinReply>(&m)) {
    return jp->successors.size() <= 0xFFFF &&
           jp->migrated_ephemerals.size() <= 0xFFFF;
  }
  return true;
}

std::size_t payload_size(const ControlMessage& m) {
  struct Sizer {
    std::size_t operator()(const JoinRequest& x) const {
      return 8 + 4 + 1 + 1 + 32 + 2 + kCompactFingerBytes * x.fingers.size();
    }
    std::size_t operator()(const JoinReply& x) const {
      return 16 + 4 + 2 + kFingerFieldBytes * x.successors.size() + 2 +
             kNodeIdBytes * x.migrated_ephemerals.size();
    }
    std::size_t operator()(const Locate&) const { return 17; }
    std::size_t operator()(const PointerInstall&) const { return 37; }
    std::size_t operator()(const Teardown&) const { return 17; }
    std::size_t operator()(const Repair&) const { return 37; }
    std::size_t operator()(const Keepalive&) const { return 8; }
    std::size_t operator()(const Lsa&) const { return 21; }
    std::size_t operator()(const RingMerge&) const { return 27; }
  };
  return std::visit(Sizer{}, m);
}

}  // namespace

PacketType type_of(const ControlMessage& m) {
  struct Typer {
    PacketType operator()(const JoinRequest&) const {
      return PacketType::kJoinRequest;
    }
    PacketType operator()(const JoinReply&) const {
      return PacketType::kJoinReply;
    }
    PacketType operator()(const Locate&) const { return PacketType::kLocate; }
    PacketType operator()(const PointerInstall&) const {
      return PacketType::kPointerInstall;
    }
    PacketType operator()(const Teardown&) const {
      return PacketType::kTeardown;
    }
    PacketType operator()(const Repair&) const { return PacketType::kRepair; }
    PacketType operator()(const Keepalive&) const {
      return PacketType::kKeepalive;
    }
    PacketType operator()(const Lsa&) const { return PacketType::kLsa; }
    PacketType operator()(const RingMerge&) const {
      return PacketType::kRingMerge;
    }
  };
  return std::visit(Typer{}, m);
}

std::vector<std::uint8_t> encode_control(const ControlMessage& m,
                                         const NodeId& src, const NodeId& dst,
                                         std::uint64_t trace_id) {
  const std::size_t len = payload_size(m);
  if (!counts_fit(m) || len > 0xFFFF) return {};
  Packet head;  // control frames: no as_path, capability, or packet fingers
  head.type = type_of(m);
  head.destination = dst;
  head.source = src;
  head.trace_id = trace_id;
  ByteWriter w(kFrameOverhead + len);
  write_frame_head(w, head, len);
  std::visit([&w](const auto& x) { put(w, x); }, m);
  seal_frame(w);
  assert(w.size() == kFrameOverhead + len);
  return w.take();
}

std::optional<Frame> decode_frame(std::span<const std::uint8_t> frame) {
  // Every path returns `out`, so the message is decoded in the caller's
  // storage.
  std::optional<Frame> out;
  const auto f = parse_frame(frame);
  if (!f.has_value()) return out;
  Frame& decoded = out.emplace();
  decoded.header = f->header;
  ByteReader r(f->payload);
  if (!get_payload(r, f->header.type, decoded.message) || !r.exhausted()) {
    out.reset();
  }
  return out;
}

std::optional<ControlMessage> decode_control(
    std::span<const std::uint8_t> frame) {
  auto f = decode_frame(frame);
  if (!f.has_value()) return std::nullopt;
  return std::move(f->message);
}

std::size_t control_wire_size(const ControlMessage& m) {
  // Packet framing for a control frame (no as_path, no capability, no
  // packet-level fingers) is kFrameOverhead = 54 bytes.
  return kFrameOverhead + payload_size(m);
}

}  // namespace rofl::wire::msg
