#include "wire/packet.hpp"

#include <array>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ROFL_CRC32_CLMUL 1
#endif

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

/// Advances the running (pre-inversion) CRC state over `n` bytes,
/// slicing-by-8.
std::uint32_t crc32_update_table(std::uint32_t crc, const std::uint8_t* p,
                                 std::size_t n) {
  const CrcTables& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t a = crc ^ load_le32(p);
    const std::uint32_t b = load_le32(p + 4);
    crc = t[7][a & 0xFFu] ^ t[6][(a >> 8) & 0xFFu] ^ t[5][(a >> 16) & 0xFFu] ^
          t[4][a >> 24] ^ t[3][b & 0xFFu] ^ t[2][(b >> 8) & 0xFFu] ^
          t[1][(b >> 16) & 0xFFu] ^ t[0][b >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return crc;
}

#ifdef ROFL_CRC32_CLMUL

/// Carry-less-multiply folding for the reflected polynomial 0xEDB88320
/// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ", Intel, 2009; the constants Linux's crc32-pclmul uses).
/// k1/k2 fold a lane 512 bits forward, k3/k4 fold 128 bits, k5 folds the
/// last 64 bits to 32; P' and mu drive the Barrett reduction.
constexpr long long kK1 = 0x154442bd4, kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0, kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641, kMu = 0x1f7011641;

__attribute__((target("pclmul,sse4.1"))) inline __m128i load16(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One fold step: multiplies both halves of `x` forward by the constants in
/// `k` and adds the next 16 bytes.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold16(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// The running CRC over n >= 64 bytes: four 128-bit lanes fold 64 bytes per
/// step, the lanes fold into one, whole 16-byte blocks fold into it, and a
/// Barrett reduction brings the 128-bit remainder to 32 bits.  The tail
/// under 16 bytes continues on the table.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_update_clmul(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  assert(n >= 64);
  __m128i x1 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold16(x1, k12, load16(p));
    x2 = fold16(x2, k12, load16(p + 16));
    x3 = fold16(x3, k12, load16(p + 32));
    x4 = fold16(x4, k12, load16(p + 48));
  }
  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  x1 = fold16(x1, k34, x2);
  x1 = fold16(x1, k34, x3);
  x1 = fold16(x1, k34, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold16(x1, k34, load16(p));

  // 128 -> 64 bits (this also appends the 32 zero bits the CRC definition
  // multiplies by), then 64 -> 32.
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k34, 0x10),
                     _mm_srli_si128(x1, 8));
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), _mm_set_epi64x(0, kK5),
                           0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction: quotient estimate by mu, remainder by P'.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, t);
  crc = static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
  return crc32_update_table(crc, p, n);
}

/// Whether this CPU runs the folding kernel; decided once per process.
bool cpu_has_clmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // ROFL_CRC32_CLMUL

}  // namespace

std::uint32_t crc32_table(std::span<const std::uint8_t> data) {
  return ~crc32_update_table(0xFFFFFFFFu, data.data(), data.size());
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
#ifdef ROFL_CRC32_CLMUL
  if (data.size() >= 64 && cpu_has_clmul()) {
    return ~crc32_update_clmul(0xFFFFFFFFu, data.data(), data.size());
  }
#endif
  return crc32_table(data);
}

void write_node_id(ByteWriter& w, const NodeId& id) {
  store_node_id(w.append(kNodeIdBytes).data(), id);
}

std::optional<NodeId> read_node_id(ByteReader& r) {
  const auto bytes = r.bytes(kNodeIdBytes);
  if (!bytes.has_value()) return std::nullopt;
  return load_node_id(bytes->data());
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
  std::uint8_t* path = w.append(4 * head.as_path.size()).data();
  for (const std::uint32_t as : head.as_path) {
    store_be32(path, as);
    path += 4;
  }
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
  std::uint8_t* fingers =
      w.append(kFingerFieldBytes * head.fingers.size()).data();
  for (const FingerField& f : head.fingers) {
    store_finger(fingers, f);
    fingers += kFingerFieldBytes;
  }
  w.u16(static_cast<std::uint16_t>(payload_len));
}

void seal_frame(ByteWriter& w) {
  // Integrity trailer over everything above.  A link that flips any bit of
  // the packet -- header, fields, or payload -- fails decode instead of
  // delivering silently corrupted state.
  w.u32(crc32(w.data()));
}

namespace {

/// Splits a CRC-verified frame body into `f`'s fields; false on truncation,
/// a bad version or type, or trailing garbage.
bool split_frame(std::span<const std::uint8_t> body, FrameView& f) {
  ByteReader r(body);
  Header& h = f.header;
  const auto version = r.u8();
  if (!version.has_value() || *version != kVersion) return false;
  h.version = *version;
  const auto type = r.u8();
  if (!type.has_value() || *type < 1 || *type > kMaxPacketType) return false;
  h.type = static_cast<PacketType>(*type);
  const auto ttl = r.u8();
  const auto flags = r.u8();
  if (!ttl.has_value() || !flags.has_value()) return false;
  h.ttl = *ttl;
  h.crossed_peering = (*flags & kFlagPeering) != 0;

  const auto dest = read_node_id(r);
  const auto src = read_node_id(r);
  const auto trace_id = r.u64();
  if (!dest.has_value() || !src.has_value() || !trace_id.has_value()) {
    return false;
  }
  h.destination = *dest;
  h.source = *src;
  h.trace_id = *trace_id;

  const auto path_len = r.u16();
  if (!path_len.has_value()) return false;
  const auto as_path = r.bytes(std::size_t{4} * *path_len);
  if (!as_path.has_value()) return false;
  f.as_path = *as_path;

  if ((*flags & kFlagCapability) != 0) {
    CapabilityField& cap = f.capability.emplace();
    const auto cap_src = read_node_id(r);
    const auto expiry_bits = r.u64();
    const auto token = r.bytes(cap.token.size());
    if (!cap_src.has_value() || !expiry_bits.has_value() ||
        !token.has_value()) {
      return false;
    }
    cap.source = *cap_src;
    std::uint64_t bits = *expiry_bits;
    std::memcpy(&cap.expiry_ms, &bits, sizeof(bits));
    std::memcpy(cap.token.data(), token->data(), cap.token.size());
  }

  const auto finger_count = r.u16();
  if (!finger_count.has_value()) return false;
  const auto fingers = r.bytes(kFingerFieldBytes * *finger_count);
  if (!fingers.has_value()) return false;
  f.fingers = *fingers;

  const auto payload = r.lp_bytes();
  if (!payload.has_value()) return false;
  f.payload = *payload;
  return r.exhausted();  // else trailing garbage
}

}  // namespace

std::optional<FrameView> parse_frame(std::span<const std::uint8_t> data) {
  // Verify and strip the CRC trailer first: a corrupted buffer must never be
  // parsed into fields at all.  Every path returns `out`, so it is built in
  // the caller's storage.
  std::optional<FrameView> out;
  if (data.size() < 4) return out;
  const std::span<const std::uint8_t> body = data.first(data.size() - 4);
  if (crc32(body) != load_be32(data.data() + body.size())) return out;
  if (!split_frame(body, out.emplace())) out.reset();
  return out;
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
  // parse_frame bounded every section to a whole number of records.
  p.as_path.resize(f->as_path.size() / 4);
  const std::uint8_t* path = f->as_path.data();
  for (std::uint32_t& as : p.as_path) {
    as = load_be32(path);
    path += 4;
  }
  p.capability = f->capability;
  p.fingers.resize(f->fingers.size() / kFingerFieldBytes);
  const std::uint8_t* fingers = f->fingers.data();
  for (FingerField& ff : p.fingers) {
    ff = load_finger(fingers);
    fingers += kFingerFieldBytes;
  }
  p.payload.assign(f->payload.begin(), f->payload.end());
  return p;
}

std::size_t Packet::wire_size() const {
  std::size_t n = 4 + 16 + 16 + 8 + 2 + 4 * as_path.size();
  if (capability.has_value()) n += 16 + 8 + capability->token.size();
  n += 2 + kFingerFieldBytes * fingers.size();
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
