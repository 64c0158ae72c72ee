#include "wire/messages.hpp"

#include <cassert>

namespace rofl::wire::msg {
namespace {

// ---- per-type payload encoders ---------------------------------------------
// Each writes only the payload bytes; the frame head and CRC trailer come
// from write_frame_head / seal_frame.  All counts ride u16 fields and are
// range-checked by the caller before these run.

void put(ByteWriter& w, const JoinRequest& m) {
  w.u64(m.nonce);
  w.u32(m.gateway);
  w.u8(m.host_class);
  w.u8(m.strategy);
  w.bytes(std::span<const std::uint8_t>(m.public_key.data(),
                                        m.public_key.size()));
  w.u16(static_cast<std::uint16_t>(m.fingers.size()));
  for (const CompactFinger& f : m.fingers) {
    w.u32(f.target_prefix);
    w.u16(f.home_as);
  }
}

void put(ByteWriter& w, const JoinReply& m) {
  write_node_id(w, m.predecessor);
  w.u32(m.predecessor_host);
  w.u16(static_cast<std::uint16_t>(m.successors.size()));
  for (const FingerField& s : m.successors) {
    write_node_id(w, s.target);
    w.u32(s.home_as);
  }
  w.u16(static_cast<std::uint16_t>(m.migrated_ephemerals.size()));
  for (const NodeId& id : m.migrated_ephemerals) write_node_id(w, id);
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

void put(ByteWriter& w, const LabelInstall& m) {
  write_node_id(w, m.dest);
  w.u32(m.label);
  w.u32(m.next_label);
  w.u32(m.out);
  w.u8(m.op);
}

void put(ByteWriter& w, const LabelTeardown& m) {
  write_node_id(w, m.dest);
  w.u32(m.label);
  w.u8(m.reason);
}

void put(ByteWriter& w, const RingMerge& m) {
  write_node_id(w, m.id);
  w.u32(m.home_as);
  w.u32(m.anchor_as);
  w.u16(m.level);
  w.u8(m.op);
}

// ---- per-type payload decoders ---------------------------------------------
// Every field read is checked; decode_frame additionally requires the payload
// to be fully consumed.

std::optional<ControlMessage> get_join_request(ByteReader& r) {
  JoinRequest m;
  const auto nonce = r.u64();
  const auto gateway = r.u32();
  const auto host_class = r.u8();
  const auto strategy = r.u8();
  const auto key = r.bytes(m.public_key.size());
  const auto count = r.u16();
  if (!nonce || !gateway || !host_class || !strategy || !key || !count) {
    return std::nullopt;
  }
  m.nonce = *nonce;
  m.gateway = *gateway;
  m.host_class = *host_class;
  m.strategy = *strategy;
  std::copy(key->begin(), key->end(), m.public_key.begin());
  m.fingers.reserve(*count);
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto prefix = r.u32();
    const auto home = r.u16();
    if (!prefix || !home) return std::nullopt;
    m.fingers.push_back(CompactFinger{*prefix, *home});
  }
  return m;
}

std::optional<ControlMessage> get_join_reply(ByteReader& r) {
  JoinReply m;
  const auto pred = read_node_id(r);
  const auto pred_host = r.u32();
  const auto nsucc = r.u16();
  if (!pred || !pred_host || !nsucc) return std::nullopt;
  m.predecessor = *pred;
  m.predecessor_host = *pred_host;
  m.successors.reserve(*nsucc);
  for (std::uint16_t i = 0; i < *nsucc; ++i) {
    const auto target = read_node_id(r);
    const auto home = r.u32();
    if (!target || !home) return std::nullopt;
    m.successors.push_back(FingerField{*target, *home});
  }
  const auto nmig = r.u16();
  if (!nmig) return std::nullopt;
  m.migrated_ephemerals.reserve(*nmig);
  for (std::uint16_t i = 0; i < *nmig; ++i) {
    const auto id = read_node_id(r);
    if (!id) return std::nullopt;
    m.migrated_ephemerals.push_back(*id);
  }
  return m;
}

std::optional<ControlMessage> get_locate(ByteReader& r) {
  const auto target = read_node_id(r);
  const auto purpose = r.u8();
  if (!target || !purpose) return std::nullopt;
  return Locate{*target, *purpose};
}

std::optional<ControlMessage> get_pointer_install(ByteReader& r) {
  const auto subject = read_node_id(r);
  const auto neighbor = read_node_id(r);
  const auto host = r.u32();
  const auto op = r.u8();
  if (!subject || !neighbor || !host || !op) return std::nullopt;
  return PointerInstall{*subject, *neighbor, *host, *op};
}

std::optional<ControlMessage> get_teardown(ByteReader& r) {
  const auto id = read_node_id(r);
  const auto reason = r.u8();
  if (!id || !reason) return std::nullopt;
  return Teardown{*id, *reason};
}

std::optional<ControlMessage> get_repair(ByteReader& r) {
  const auto subject = read_node_id(r);
  const auto neighbor = read_node_id(r);
  const auto host = r.u32();
  const auto op = r.u8();
  if (!subject || !neighbor || !host || !op) return std::nullopt;
  return Repair{*subject, *neighbor, *host, *op};
}

std::optional<ControlMessage> get_keepalive(ByteReader& r) {
  const auto seq = r.u64();
  if (!seq) return std::nullopt;
  return Keepalive{*seq};
}

std::optional<ControlMessage> get_lsa(ByteReader& r) {
  const auto origin = r.u32();
  const auto version = r.u64();
  const auto event = r.u8();
  const auto a = r.u32();
  const auto b = r.u32();
  if (!origin || !version || !event || !a || !b) return std::nullopt;
  return Lsa{*origin, *version, *event, *a, *b};
}

std::optional<ControlMessage> get_ring_merge(ByteReader& r) {
  const auto id = read_node_id(r);
  const auto home = r.u32();
  const auto anchor = r.u32();
  const auto level = r.u16();
  const auto op = r.u8();
  if (!id || !home || !anchor || !level || !op) return std::nullopt;
  return RingMerge{*id, *home, *anchor, *level, *op};
}

std::optional<ControlMessage> get_label_install(ByteReader& r) {
  const auto dest = read_node_id(r);
  const auto label = r.u32();
  const auto next_label = r.u32();
  const auto out = r.u32();
  const auto op = r.u8();
  if (!dest || !label || !next_label || !out || !op) return std::nullopt;
  return LabelInstall{*dest, *label, *next_label, *out, *op};
}

std::optional<ControlMessage> get_label_teardown(ByteReader& r) {
  const auto dest = read_node_id(r);
  const auto label = r.u32();
  const auto reason = r.u8();
  if (!dest || !label || !reason) return std::nullopt;
  return LabelTeardown{*dest, *label, *reason};
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
      return 8 + 4 + 1 + 1 + 32 + 2 + 6 * x.fingers.size();
    }
    std::size_t operator()(const JoinReply& x) const {
      return 16 + 4 + 2 + 20 * x.successors.size() + 2 +
             16 * x.migrated_ephemerals.size();
    }
    std::size_t operator()(const Locate&) const { return 17; }
    std::size_t operator()(const PointerInstall&) const { return 37; }
    std::size_t operator()(const Teardown&) const { return 17; }
    std::size_t operator()(const Repair&) const { return 37; }
    std::size_t operator()(const Keepalive&) const { return 8; }
    std::size_t operator()(const Lsa&) const { return 21; }
    std::size_t operator()(const RingMerge&) const { return 27; }
    std::size_t operator()(const LabelInstall&) const { return 29; }
    std::size_t operator()(const LabelTeardown&) const { return 21; }
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
    PacketType operator()(const LabelInstall&) const {
      return PacketType::kLabelInstall;
    }
    PacketType operator()(const LabelTeardown&) const {
      return PacketType::kLabelTeardown;
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
  const auto f = parse_frame(frame);
  if (!f.has_value()) return std::nullopt;
  ByteReader r(f->payload);
  std::optional<ControlMessage> m;
  switch (f->header.type) {
    case PacketType::kJoinRequest: m = get_join_request(r); break;
    case PacketType::kJoinReply: m = get_join_reply(r); break;
    case PacketType::kLocate: m = get_locate(r); break;
    case PacketType::kPointerInstall: m = get_pointer_install(r); break;
    case PacketType::kTeardown: m = get_teardown(r); break;
    case PacketType::kRepair: m = get_repair(r); break;
    case PacketType::kKeepalive: m = get_keepalive(r); break;
    case PacketType::kLsa: m = get_lsa(r); break;
    case PacketType::kRingMerge: m = get_ring_merge(r); break;
    case PacketType::kLabelInstall: m = get_label_install(r); break;
    case PacketType::kLabelTeardown: m = get_label_teardown(r); break;
    default: return std::nullopt;  // kData / kCapabilityGrant carry no codec
  }
  if (!m.has_value() || !r.exhausted()) return std::nullopt;
  return Frame{f->header, std::move(*m)};
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
