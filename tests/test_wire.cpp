#include "wire/packet.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rofl::wire {
namespace {

TEST(ByteBuffer, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ull);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xABu);
  EXPECT_EQ(r.u16(), 0x1234u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, BigEndianOnWire) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(ByteBuffer, TruncatedReadsFailCleanly) {
  const std::vector<std::uint8_t> short_buf{0x01, 0x02, 0x03};
  ByteReader r(short_buf);
  EXPECT_TRUE(r.u16().has_value());
  EXPECT_FALSE(r.u16().has_value());  // only 1 byte left
  ByteReader r2(short_buf);
  EXPECT_FALSE(r2.u32().has_value());
  EXPECT_FALSE(r2.u64().has_value());
  ByteReader r3(short_buf);
  EXPECT_FALSE(r3.bytes(4).has_value());
}

TEST(ByteBuffer, LengthPrefixedBytes) {
  ByteWriter w;
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  EXPECT_TRUE(w.lp_bytes(data));
  ByteReader r(w.data());
  const auto back = r.lp_bytes();
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::equal(back->begin(), back->end(), data.begin(), data.end()));
}

TEST(ByteBuffer, LpBytesTruncatedLengthFails) {
  ByteWriter w;
  w.u16(100);  // claims 100 bytes, provides none
  ByteReader r(w.data());
  EXPECT_FALSE(r.lp_bytes().has_value());
}

TEST(ByteBuffer, OversizedLpBytesIsAnExplicitFailureNotTruncation) {
  // 0x10000 bytes does not fit a u16 length prefix.  The old behavior
  // clamped to 0xFFFF and wrote a corrupted field; now the write is refused
  // outright: nothing lands in the buffer and the writer reports failure.
  const std::vector<std::uint8_t> big(0x10000, 0xAB);
  ByteWriter w;
  EXPECT_TRUE(w.ok());
  EXPECT_FALSE(w.lp_bytes(big));
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.size(), 0u);
}

TEST(ByteBuffer, MaxSizeLpBytesRoundTripsIntact) {
  // Exactly 0xFFFF bytes is the largest representable field and must
  // round-trip byte-for-byte.
  const std::vector<std::uint8_t> max_field(0xFFFF, 0xCD);
  ByteWriter w;
  EXPECT_TRUE(w.lp_bytes(max_field));
  EXPECT_TRUE(w.ok());
  ByteReader r(w.data());
  const auto back = r.lp_bytes();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), max_field.size());
  EXPECT_TRUE(std::equal(back->begin(), back->end(), max_field.begin(),
                         max_field.end()));
  EXPECT_TRUE(r.exhausted());
}

Packet sample_packet() {
  Packet p;
  p.type = PacketType::kData;
  p.ttl = 17;
  p.crossed_peering = true;
  p.destination = NodeId(0x1111, 0x2222);
  p.source = NodeId(0x3333, 0x4444);
  p.as_path = {7, 42, 99};
  p.payload = {0xde, 0xad};
  return p;
}

TEST(Packet, EncodeDecodeRoundTrip) {
  const Packet p = sample_packet();
  const auto bytes = p.encode();
  EXPECT_EQ(bytes.size(), p.wire_size());
  const auto q = Packet::decode(bytes);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, p);
}

TEST(Packet, RoundTripWithCapability) {
  Packet p = sample_packet();
  CapabilityField cap;
  cap.source = NodeId(5, 6);
  cap.expiry_ms = 1234.5;
  cap.token.fill(0x5A);
  p.capability = cap;
  const auto q = Packet::decode(p.encode());
  ASSERT_TRUE(q.has_value());
  ASSERT_TRUE(q->capability.has_value());
  EXPECT_EQ(*q, p);
}

TEST(Packet, RoundTripWithFingers) {
  Packet p = sample_packet();
  p.type = PacketType::kJoinRequest;
  for (std::uint32_t i = 0; i < 50; ++i) {
    p.fingers.push_back(FingerField{NodeId(i, i * 7), i});
  }
  const auto q = Packet::decode(p.encode());
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, p);
}

TEST(Packet, OversizedFieldsRefuseToEncode) {
  // Payload past the u16 limit: encode must fail loudly (empty result), not
  // emit a clamped packet whose payload was silently cut at 64 KiB.
  Packet p = sample_packet();
  p.payload.assign(0x10000, 0x77);
  EXPECT_TRUE(p.encode().empty());

  // The largest representable payload still round-trips intact.
  p.payload.assign(0xFFFF, 0x77);
  const auto bytes = p.encode();
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.size(), p.wire_size());
  const auto q = Packet::decode(bytes);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->payload.size(), 0xFFFFu);
  EXPECT_EQ(*q, p);

  // The same guard covers the other u16-counted fields.
  Packet long_path = sample_packet();
  long_path.as_path.assign(0x10000, 42);
  EXPECT_TRUE(long_path.encode().empty());
  Packet many_fingers = sample_packet();
  many_fingers.fingers.assign(0x10000, FingerField{NodeId(1, 2), 3});
  EXPECT_TRUE(many_fingers.encode().empty());
}

TEST(Packet, DecodeRejectsBadVersionAndType) {
  // Each frame is re-sealed after the edit, so the header check rejects it
  // and not the CRC trailer.
  const auto with_byte = [](std::size_t at, std::uint8_t v) {
    std::vector<std::uint8_t> bytes = sample_packet().encode();
    bytes[at] = v;
    const std::size_t body = bytes.size() - 4;
    store_be32(bytes.data() + body, crc32({bytes.data(), body}));
    return bytes;
  };
  ASSERT_TRUE(Packet::decode(with_byte(1, 1)).has_value());  // kData
  EXPECT_FALSE(Packet::decode(with_byte(0, 99)).has_value());  // version
  // Below range, the two unassigned numbers (once label install and
  // teardown), and above range.
  for (const std::uint8_t type : {0, 12, 13, 200}) {
    EXPECT_FALSE(Packet::decode(with_byte(1, type)).has_value())
        << "type " << int{type};
  }
}

TEST(Packet, DecodeRejectsTruncation) {
  const Packet p = sample_packet();
  const auto bytes = p.encode();
  // Every strict prefix must fail to decode, never crash.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(Packet::decode({bytes.data(), cut}).has_value())
        << "prefix " << cut;
  }
}

TEST(Packet, DecodeRejectsTrailingGarbage) {
  auto bytes = sample_packet().encode();
  bytes.push_back(0x00);
  EXPECT_FALSE(Packet::decode(bytes).has_value());
}

TEST(Packet, DecodeRandomBytesNeverCrashes) {
  Rng rng(404);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.index(128));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)Packet::decode(junk);  // must not crash / UB (ASAN-clean)
  }
}

Packet random_packet(Rng& rng) {
  Packet p;
  p.type = static_cast<PacketType>(1 + rng.index(7));
  p.ttl = static_cast<std::uint8_t>(rng.below(256));
  p.crossed_peering = rng.chance(0.5);
  p.destination = NodeId(rng.next_u64(), rng.next_u64());
  p.source = NodeId(rng.next_u64(), rng.next_u64());
  p.trace_id = rng.next_u64();
  const std::size_t hops = rng.index(6);
  for (std::size_t i = 0; i < hops; ++i) {
    p.as_path.push_back(static_cast<std::uint32_t>(rng.below(70000)));
  }
  if (rng.chance(0.3)) {
    CapabilityField cap;
    cap.source = NodeId(rng.next_u64(), rng.next_u64());
    cap.expiry_ms = static_cast<double>(rng.below(1 << 20));
    for (auto& b : cap.token) b = static_cast<std::uint8_t>(rng.below(256));
    p.capability = cap;
  }
  const std::size_t nfingers = rng.index(9);
  for (std::size_t i = 0; i < nfingers; ++i) {
    p.fingers.push_back(FingerField{NodeId(rng.next_u64(), rng.next_u64()),
                                    static_cast<std::uint32_t>(rng.below(1 << 16))});
  }
  std::vector<std::uint8_t> payload(rng.index(64));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
  p.payload = std::move(payload);
  return p;
}

TEST(Packet, RoundTripFuzz) {
  Rng rng(20260806);
  for (int trial = 0; trial < 300; ++trial) {
    const Packet p = random_packet(rng);
    const auto bytes = p.encode();
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes.size(), p.wire_size());
    const auto q = Packet::decode(bytes);
    ASSERT_TRUE(q.has_value()) << "trial " << trial;
    EXPECT_EQ(*q, p) << "trial " << trial;
  }
}

TEST(Packet, TruncationFuzzNeverCrashesOrDecodes) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const auto bytes = random_packet(rng).encode();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(Packet::decode({bytes.data(), cut}).has_value())
          << "trial " << trial << " prefix " << cut;
    }
  }
}

TEST(Packet, SingleBitFlipAlwaysRejected) {
  // The CRC-32 trailer detects every single-bit error, so a flipped buffer
  // must fail to decode -- never come back as a silently different packet.
  Rng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    const Packet p = random_packet(rng);
    const auto bytes = p.encode();
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      auto flipped = bytes;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(Packet::decode(flipped).has_value())
          << "trial " << trial << " bit " << bit;
    }
  }
}

TEST(Packet, MultiBitCorruptionNeverYieldsDifferentPacket) {
  // Random burst corruption: decode may (very rarely) succeed only if the
  // result is byte-identical to the original -- silent field corruption is
  // the failure mode under test.
  Rng rng(909);
  for (int trial = 0; trial < 500; ++trial) {
    const Packet p = random_packet(rng);
    auto bytes = p.encode();
    const std::size_t flips = 1 + rng.index(8);
    for (std::size_t i = 0; i < flips; ++i) {
      const std::size_t bit = rng.index(bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    const auto q = Packet::decode(bytes);
    if (q.has_value()) {
      EXPECT_EQ(*q, p) << "trial " << trial;
    }
  }
}

TEST(Packet, FragmentsAgainstMtu) {
  Packet p;
  EXPECT_EQ(p.fragments(1500), 1u);
  // The paper's data point: a join carrying a large finger table spans
  // multiple MTU-sized packets.
  for (std::uint32_t i = 0; i < 256; ++i) {
    p.fingers.push_back(FingerField{NodeId(i, i), i});
  }
  EXPECT_GT(p.wire_size(), 1500u);
  EXPECT_EQ(p.fragments(1500), (p.wire_size() + 1499) / 1500);
  EXPECT_GE(p.fragments(1500), 4u);
}

TEST(Packet, HopPacketsIsTheMtuCeilingAndAtLeastOne) {
  // The simulators' one pricing rule: an empty frame still costs a packet,
  // and section 6.3's 1638-byte JoinRequest costs two per hop.
  EXPECT_EQ(hop_packets(0), 1u);
  EXPECT_EQ(hop_packets(kDefaultMtu), 1u);
  EXPECT_EQ(hop_packets(kDefaultMtu + 1), 2u);
  EXPECT_EQ(hop_packets(1638), 2u);
  EXPECT_EQ(hop_packets(3 * kDefaultMtu + 1), 4u);
}

TEST(Packet, FragmentsRejectsMtuBelowFramingOverhead) {
  // Regression: an MTU at or below the fixed per-fragment framing overhead
  // (54 bytes: header, addresses, trace id, counts, length, CRC) can carry
  // zero payload bytes, so no finite fragment count exists.  fragments()
  // reports 0 ("cannot be framed") instead of a bogus huge count.
  Packet p;
  EXPECT_EQ(p.fragments(0), 0u);
  EXPECT_EQ(p.fragments(1), 0u);
  EXPECT_EQ(p.fragments(kFrameOverhead), 0u);
  // First usable MTU: one payload byte per fragment, plain ceiling above.
  EXPECT_EQ(p.fragments(kFrameOverhead + 1),
            (p.wire_size() + kFrameOverhead) / (kFrameOverhead + 1));
  EXPECT_GT(p.fragments(kFrameOverhead + 1), 0u);
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320) of every prefix of `data`:
/// element n is the CRC of the first n bytes.  The reference both wire::crc32
/// paths must reproduce exactly.
std::vector<std::uint32_t> bitwise_crc32_prefixes(
    std::span<const std::uint8_t> data) {
  std::vector<std::uint32_t> out;
  out.reserve(data.size() + 1);
  std::uint32_t crc = 0xFFFFFFFFu;
  out.push_back(~crc);
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    out.push_back(~crc);
  }
  return out;
}

TEST(Crc32, CheckValue) {
  // The standard CRC-32/ISO-HDLC check value.
  const std::string check = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32_table(bytes), 0xCBF43926u);
  EXPECT_EQ(bitwise_crc32_prefixes(bytes).back(), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32_table({}), 0u);
}

TEST(Crc32, TableMatchesBitwiseReference) {
  // Both implementations against the bitwise reference: every length
  // 0-4096 (each tail under the 8-byte stride and the 16-byte fold, and
  // each 64-byte fold boundary, many times over) plus 64 random lengths up
  // to 64 KiB, each at start offsets 0-15 so every load alignment is
  // covered.
  constexpr std::size_t kMaxLen = 64 * 1024;
  constexpr std::size_t kOffsets = 16;
  Rng rng(0xC3C3);
  std::vector<std::uint8_t> buf(kMaxLen + kOffsets);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 4096; ++n) lengths.push_back(n);
  for (int k = 0; k < 64; ++k) lengths.push_back(rng.index(kMaxLen + 1));
  for (std::size_t off = 0; off < kOffsets; ++off) {
    const std::span<const std::uint8_t> from(buf.data() + off, kMaxLen);
    const std::vector<std::uint32_t> ref = bitwise_crc32_prefixes(from);
    for (const std::size_t n : lengths) {
      const std::span<const std::uint8_t> s = from.first(n);
      ASSERT_EQ(crc32(s), ref[n]) << "length " << n << " offset " << off;
      ASSERT_EQ(crc32_table(s), ref[n])
          << "length " << n << " offset " << off;
    }
  }
}

TEST(Packet, NodeIdSerialization) {
  ByteWriter w;
  const NodeId id(0xFFEEDDCCBBAA9988ull, 0x7766554433221100ull);
  write_node_id(w, id);
  EXPECT_EQ(w.size(), 16u);
  ByteReader r(w.data());
  EXPECT_EQ(read_node_id(r), id);
}

}  // namespace
}  // namespace rofl::wire
