// Tests for the typed control-message codecs (wire/messages): per-type
// round trips, exact sizing, truncation and bit-flip rejection, MTU
// fragmentation boundaries, and the section 6.3 regression pinning the
// paper's 1638-byte / 258-packet figure for a 256-finger single-homed join
// to the actual encoder output.
#include "wire/messages.hpp"

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "sim/faults.hpp"
#include "util/rng.hpp"

namespace rofl::wire::msg {
namespace {

NodeId random_id(Rng& rng) { return NodeId(rng.next_u64(), rng.next_u64()); }

Sha256::Digest random_key(Rng& rng) {
  Sha256::Digest d{};
  for (auto& b : d) b = static_cast<std::uint8_t>(rng.below(256));
  return d;
}

constexpr std::size_t kTypeCount = std::variant_size_v<ControlMessage>;

/// One random instance of each message type, index-addressable so the fuzz
/// loops sweep every variant alternative.
ControlMessage random_message(Rng& rng, std::size_t which) {
  switch (which % kTypeCount) {
    case 0: {
      JoinRequest m;
      m.nonce = rng.next_u64();
      m.gateway = static_cast<std::uint32_t>(rng.below(1 << 20));
      m.host_class = static_cast<std::uint8_t>(rng.below(4));
      m.strategy = static_cast<std::uint8_t>(rng.below(4));
      m.public_key = random_key(rng);
      const std::size_t n = rng.index(300);
      for (std::size_t i = 0; i < n; ++i) {
        m.fingers.push_back(
            CompactFinger{static_cast<std::uint32_t>(rng.next_u64()),
                          static_cast<std::uint16_t>(rng.below(1 << 16))});
      }
      return m;
    }
    case 1: {
      JoinReply m;
      m.predecessor = random_id(rng);
      m.predecessor_host = static_cast<std::uint32_t>(rng.below(1 << 20));
      const std::size_t ns = rng.index(6);
      for (std::size_t i = 0; i < ns; ++i) {
        m.successors.push_back(FingerField{
            random_id(rng), static_cast<std::uint32_t>(rng.below(1 << 20))});
      }
      const std::size_t nm = rng.index(4);
      for (std::size_t i = 0; i < nm; ++i) {
        m.migrated_ephemerals.push_back(random_id(rng));
      }
      return m;
    }
    case 2:
      return Locate{random_id(rng), static_cast<std::uint8_t>(rng.below(3))};
    case 3:
      return PointerInstall{random_id(rng), random_id(rng),
                            static_cast<std::uint32_t>(rng.below(1 << 20)),
                            static_cast<std::uint8_t>(rng.below(3))};
    case 4:
      return Teardown{random_id(rng), static_cast<std::uint8_t>(rng.below(4))};
    case 5:
      return Repair{random_id(rng), random_id(rng),
                    static_cast<std::uint32_t>(rng.below(1 << 20)),
                    static_cast<std::uint8_t>(rng.below(3))};
    case 6:
      return Keepalive{rng.next_u64()};
    case 7:
      return Lsa{static_cast<std::uint32_t>(rng.below(1 << 20)),
                 rng.next_u64(), static_cast<std::uint8_t>(rng.below(4)),
                 static_cast<std::uint32_t>(rng.below(1 << 20)),
                 static_cast<std::uint32_t>(rng.below(1 << 20))};
    default:
      return RingMerge{random_id(rng),
                       static_cast<std::uint32_t>(rng.below(1 << 20)),
                       static_cast<std::uint32_t>(rng.below(1 << 20)),
                       static_cast<std::uint16_t>(rng.below(1 << 16)),
                       static_cast<std::uint8_t>(rng.below(3))};
  }
}

TEST(ControlMessages, RoundTripEveryType) {
  Rng rng(20260806);
  for (std::size_t which = 0; which < kTypeCount; ++which) {
    for (int trial = 0; trial < 40; ++trial) {
      const ControlMessage m = random_message(rng, which);
      const NodeId src = random_id(rng);
      const NodeId dst = random_id(rng);
      const std::uint64_t trace = rng.next_u64();
      const auto frame = encode_control(m, src, dst, trace);
      ASSERT_FALSE(frame.empty()) << "type " << which << " trial " << trial;
      const auto back = decode_control(frame);
      ASSERT_TRUE(back.has_value()) << "type " << which << " trial " << trial;
      EXPECT_EQ(*back, m) << "type " << which << " trial " << trial;
      // The packet framing carries addressing and trace id intact.
      const auto p = Packet::decode(frame);
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(p->type, type_of(m));
      EXPECT_EQ(p->source, src);
      EXPECT_EQ(p->destination, dst);
      EXPECT_EQ(p->trace_id, trace);
    }
  }
}

/// One fixed instance of each message type, in ControlMessage order, for
/// the golden-bytes pin.
std::vector<ControlMessage> golden_messages() {
  JoinRequest jr;
  jr.nonce = 0x0102030405060708ull;
  jr.gateway = 7;
  jr.host_class = 1;
  jr.strategy = 2;
  for (std::size_t i = 0; i < jr.public_key.size(); ++i) {
    jr.public_key[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  jr.fingers = {{0xA1B2C3D4u, 0x0102}, {5, 6}};
  JoinReply rp;
  rp.predecessor = NodeId(0x1111111111111111ull, 0x2222222222222222ull);
  rp.predecessor_host = 3;
  rp.successors = {FingerField{NodeId(1, 2), 4}};
  rp.migrated_ephemerals = {NodeId(5, 6)};
  return {jr,
          rp,
          Locate{NodeId(0x0123456789ABCDEFull, 0xFEDCBA9876543210ull), 2},
          PointerInstall{NodeId(1, 2), NodeId(3, 4), 5, 1},
          Teardown{NodeId(7, 8), 1},
          Repair{NodeId(9, 10), NodeId(11, 12), 13, 0},
          Keepalive{0xDEADBEEFCAFEF00Dull},
          Lsa{1, 2, 3, 4, 5},
          RingMerge{NodeId(6, 7), 8, 9, 10, 2}};
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

TEST(ControlMessages, GoldenBytesPerType) {
  // The wire format is frozen: these frames come from the original
  // bit-at-a-time-CRC encoder, and every encoder must reproduce them byte
  // for byte.
  const std::vector<std::string> golden = {
      // JoinRequest, 114 bytes
      "01024000ccccccccccccccccddddddddddddddddaaaaaaaaaaaaaaaabbbbbbbb"
      "bbbbbbbb112233445566778800000000003c0102030405060708000000070102"
      "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"
      "0002a1b2c3d401020000000500061947fea9",
      // JoinReply, 114 bytes
      "01034000ccccccccccccccccddddddddddddddddaaaaaaaaaaaaaaaabbbbbbbb"
      "bbbbbbbb112233445566778800000000003c1111111111111111222222222222"
      "2222000000030001000000000000000100000000000000020000000400010000"
      "0000000000050000000000000006cbbb79b5",
      // Locate, 71 bytes
      "01084000ccccccccccccccccddddddddddddddddaaaaaaaaaaaaaaaabbbbbbbb"
      "bbbbbbbb11223344556677880000000000110123456789abcdeffedcba987654"
      "3210023e6cfe64",
      // PointerInstall, 91 bytes
      "01094000ccccccccccccccccddddddddddddddddaaaaaaaaaaaaaaaabbbbbbbb"
      "bbbbbbbb11223344556677880000000000250000000000000001000000000000"
      "00020000000000000003000000000000000400000005012426f4b3",
      // Teardown, 71 bytes
      "01044000ccccccccccccccccddddddddddddddddaaaaaaaaaaaaaaaabbbbbbbb"
      "bbbbbbbb11223344556677880000000000110000000000000007000000000000"
      "0008015d7d53b6",
      // Repair, 91 bytes
      "01054000ccccccccccccccccddddddddddddddddaaaaaaaaaaaaaaaabbbbbbbb"
      "bbbbbbbb11223344556677880000000000250000000000000009000000000000"
      "000a000000000000000b000000000000000c0000000d00cc03afca",
      // Keepalive, 62 bytes
      "01064000ccccccccccccccccddddddddddddddddaaaaaaaaaaaaaaaabbbbbbbb"
      "bbbbbbbb1122334455667788000000000008deadbeefcafef00d58f76ed0",
      // Lsa, 75 bytes
      "010a4000ccccccccccccccccddddddddddddddddaaaaaaaaaaaaaaaabbbbbbbb"
      "bbbbbbbb11223344556677880000000000150000000100000000000000020300"
      "00000400000005edf4b0aa",
      // RingMerge, 81 bytes
      "010b4000ccccccccccccccccddddddddddddddddaaaaaaaaaaaaaaaabbbbbbbb"
      "bbbbbbbb112233445566778800000000001b0000000000000006000000000000"
      "00070000000800000009000a028843d17f",
  };
  const NodeId src(0xAAAAAAAAAAAAAAAAull, 0xBBBBBBBBBBBBBBBBull);
  const NodeId dst(0xCCCCCCCCCCCCCCCCull, 0xDDDDDDDDDDDDDDDDull);
  const std::uint64_t trace = 0x1122334455667788ull;
  const std::vector<ControlMessage> msgs = golden_messages();
  ASSERT_EQ(msgs.size(), golden.size());
  ASSERT_EQ(std::variant_size_v<ControlMessage>, golden.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(msgs[i].index(), i);
    const auto frame = encode_control(msgs[i], src, dst, trace);
    EXPECT_EQ(to_hex(frame), golden[i]) << "type " << i;
    const auto back = decode_frame(frame);
    ASSERT_TRUE(back.has_value()) << "type " << i;
    EXPECT_EQ(back->message, msgs[i]) << "type " << i;
    EXPECT_EQ(back->header.source, src);
    EXPECT_EQ(back->header.destination, dst);
    EXPECT_EQ(back->header.trace_id, trace);
  }
}

TEST(ControlMessages, DecodeFrameHeaderMatchesPacketDecode) {
  // The one-pass decode and Packet::decode share one header parser; the
  // header fields they report must agree on every type.
  Rng rng(4242);
  for (std::size_t which = 0; which < kTypeCount; ++which) {
    for (int trial = 0; trial < 20; ++trial) {
      const ControlMessage m = random_message(rng, which);
      const auto frame =
          encode_control(m, random_id(rng), random_id(rng), rng.next_u64());
      ASSERT_FALSE(frame.empty());
      const auto f = decode_frame(frame);
      const auto p = Packet::decode(frame);
      ASSERT_TRUE(f.has_value() && p.has_value()) << "type " << which;
      EXPECT_EQ(f->message, m);
      EXPECT_EQ(f->header.type, type_of(m));
      EXPECT_EQ(f->header, static_cast<const Header&>(*p)) << "type " << which;
    }
  }
}

TEST(ControlMessages, ControlWireSizeMatchesEncoder) {
  Rng rng(7);
  for (std::size_t which = 0; which < kTypeCount; ++which) {
    for (int trial = 0; trial < 25; ++trial) {
      const ControlMessage m = random_message(rng, which);
      const auto frame = encode_control(m, random_id(rng), random_id(rng));
      ASSERT_FALSE(frame.empty());
      EXPECT_EQ(frame.size(), control_wire_size(m))
          << "type " << which << " trial " << trial;
    }
  }
}

TEST(ControlMessages, TruncationAlwaysRejected) {
  Rng rng(77);
  for (std::size_t which = 0; which < kTypeCount; ++which) {
    const ControlMessage m = random_message(rng, which);
    const auto frame = encode_control(m, random_id(rng), random_id(rng));
    ASSERT_FALSE(frame.empty());
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_FALSE(decode_control({frame.data(), cut}).has_value())
          << "type " << which << " prefix " << cut;
      EXPECT_FALSE(decode_frame({frame.data(), cut}).has_value())
          << "type " << which << " prefix " << cut;
    }
  }
}

TEST(ControlMessages, CountOverrunRejectedBehindValidCrc) {
  // A cut frame fails its CRC before any record is read.  Here a repeated
  // record's u16 count is raised by one and the trailer re-sealed, so the
  // frame claims one record more than it holds and only the record bounds
  // stand between the decoder and a read past the buffer.
  const auto recount = [](std::vector<std::uint8_t> frame, std::size_t at,
                          std::uint16_t extra) {
    const auto count = load_be16(frame.data() + at);
    store_be16(frame.data() + at, static_cast<std::uint16_t>(count + extra));
    const std::size_t body = frame.size() - 4;
    store_be32(frame.data() + body, crc32({frame.data(), body}));
    return frame;
  };
  // Every frame opens with 44 fixed bytes, then the u16 count of AS-path
  // entries, the header fingers' u16 count and the u16 payload length; with
  // neither section present a control payload starts at byte 50.
  constexpr std::size_t kPayload = 50;
  struct Case {
    const char* what;
    std::vector<std::uint8_t> frame;
    std::size_t count_at;
    std::uint16_t count;
    bool control;  // decoded by decode_frame, else by Packet::decode
  };
  Rng rng(404);
  std::vector<Case> cases;

  JoinRequest jr;
  jr.fingers.resize(3);
  cases.push_back({"JoinRequest fingers",
                   encode_control(jr, random_id(rng), random_id(rng)),
                   kPayload + 8 + 4 + 1 + 1 + 32, 3, true});
  // Two successors and nothing after them but the ephemeral count.
  JoinReply reply;
  reply.successors.resize(2);
  cases.push_back({"JoinReply successors",
                   encode_control(reply, random_id(rng), random_id(rng)),
                   kPayload + 16 + 4, 2, true});
  reply.migrated_ephemerals.resize(2);
  cases.push_back({"JoinReply ephemerals",
                   encode_control(reply, random_id(rng), random_id(rng)),
                   kPayload + 16 + 4 + 2 + 2 * 20, 2, true});
  // Packet-level records, followed by nothing but the 2-byte counts.
  Packet p;
  p.as_path = {7, 42, 99};
  cases.push_back({"Packet AS path", p.encode(), 44, 3, false});
  p.fingers.resize(2);
  cases.push_back({"Packet fingers", p.encode(), 46 + 3 * 4, 2, false});

  const auto decodes = [](const Case& c, std::span<const std::uint8_t> f) {
    return c.control ? decode_frame(f).has_value()
                     : Packet::decode(f).has_value();
  };
  for (const Case& c : cases) {
    ASSERT_EQ(load_be16(c.frame.data() + c.count_at), c.count) << c.what;
    // Re-sealing alone keeps the frame valid, so the rejection below is the
    // count's doing.
    EXPECT_TRUE(decodes(c, recount(c.frame, c.count_at, 0))) << c.what;
    EXPECT_FALSE(decodes(c, recount(c.frame, c.count_at, 1))) << c.what;
  }
}

TEST(ControlMessages, SingleBitFlipAlwaysRejected) {
  // CRC-32 detects every single-bit error; a flipped frame must never decode
  // into a silently different message.
  Rng rng(31337);
  for (std::size_t which = 0; which < kTypeCount; ++which) {
    const ControlMessage m = random_message(rng, which);
    const auto frame = encode_control(m, random_id(rng), random_id(rng));
    ASSERT_FALSE(frame.empty());
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      auto flipped = frame;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(decode_control(flipped).has_value())
          << "type " << which << " bit " << bit;
      EXPECT_FALSE(decode_frame(flipped).has_value())
          << "type " << which << " bit " << bit;
    }
  }
}

TEST(ControlMessages, InjectorCorruptionAlwaysRejected) {
  // The fault injector's byte-corruption mode flips a short burst of bits;
  // CRC-32 detects all bursts up to 32 bits, so every frame the injector
  // touches must be rejected at the receiver -- corruption becomes loss.
  sim::FaultPlan plan;
  plan.defaults.corrupt = 1.0;
  obs::Registry reg;
  sim::FaultInjector inj(plan, 42, &reg);
  ASSERT_TRUE(inj.corruption_enabled());
  Rng rng(606);
  std::uint64_t corrupted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const ControlMessage m = random_message(rng, trial);
    auto frame = encode_control(m, random_id(rng), random_id(rng));
    ASSERT_FALSE(frame.empty());
    if (inj.maybe_corrupt_frame(frame)) {
      ++corrupted;
      EXPECT_FALSE(decode_control(frame).has_value()) << "trial " << trial;
    }
  }
  EXPECT_EQ(corrupted, 400u);  // corrupt=1.0 touches every frame
  EXPECT_EQ(inj.corrupted(), 400u);
}

TEST(ControlMessages, CorruptionIsDeterministicPerSeed) {
  sim::FaultPlan plan;
  plan.defaults.corrupt = 0.5;
  obs::Registry reg_a, reg_b;
  sim::FaultInjector a(plan, 99, &reg_a);
  sim::FaultInjector b(plan, 99, &reg_b);
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const auto frame =
        encode_control(random_message(rng, trial), random_id(rng), NodeId{});
    auto fa = frame;
    auto fb = frame;
    ASSERT_EQ(a.maybe_corrupt_frame(fa), b.maybe_corrupt_frame(fb));
    ASSERT_EQ(fa, fb);  // same seed, same bits flipped
  }
  EXPECT_EQ(a.corrupted(), b.corrupted());
  EXPECT_GT(a.corrupted(), 0u);
}

TEST(ControlMessages, OversizedCountsRefuseToEncode) {
  // The explicit-failure contract: an un-encodable message yields an empty
  // vector, never a truncated or zero-byte frame on the wire.
  JoinRequest jr;
  jr.fingers.resize(0x10000);
  EXPECT_TRUE(encode_control(jr, NodeId{}, NodeId{}).empty());
  JoinReply jp;
  jp.migrated_ephemerals.resize(0x10000);
  EXPECT_TRUE(encode_control(jp, NodeId{}, NodeId{}).empty());
  // One under the limit on the count -- but the payload itself would exceed
  // the u16 payload-length field, so it must still refuse.
  JoinReply big;
  big.successors.resize(0xFFFF);
  EXPECT_TRUE(encode_control(big, NodeId{}, NodeId{}).empty());
}

TEST(ControlMessages, DataFramesCarryNoControlCodec) {
  Packet p;
  p.type = PacketType::kData;
  const auto frame = p.encode();
  ASSERT_FALSE(frame.empty());
  ASSERT_TRUE(Packet::decode(frame).has_value());
  EXPECT_FALSE(decode_control(frame).has_value());
}

// -- MTU fragmentation boundaries --------------------------------------------

TEST(ControlMessages, FragmentationExactlyAtMtuIsOnePacket) {
  // Control framing is 54 bytes, so a 1446-byte payload lands exactly on
  // kDefaultMtu.  The JoinRequest equivalent: 102 fixed bytes + 6 per
  // compact finger, so 233 fingers give exactly 1500 bytes.
  Packet p;
  p.payload.assign(kDefaultMtu - 54, 0xA5);
  ASSERT_EQ(p.wire_size(), kDefaultMtu);
  EXPECT_EQ(p.fragments(), 1u);

  JoinRequest jr;
  jr.fingers.resize(233);
  const auto frame = encode_control(jr, NodeId{}, NodeId{});
  ASSERT_EQ(frame.size(), kDefaultMtu);
  const auto back = Packet::decode(frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->fragments(), 1u);
}

TEST(ControlMessages, FragmentationOneByteOverMtuIsTwoPackets) {
  Packet p;
  p.payload.assign(kDefaultMtu - 54 + 1, 0xA5);
  ASSERT_EQ(p.wire_size(), kDefaultMtu + 1);
  EXPECT_EQ(p.fragments(), 2u);

  // The next finger over the 233-finger boundary spills into a second
  // packet: 234 fingers = 1506 bytes.
  JoinRequest jr;
  jr.fingers.resize(234);
  const auto frame = encode_control(jr, NodeId{}, NodeId{});
  ASSERT_EQ(frame.size(), kDefaultMtu + 6);
  const auto back = Packet::decode(frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->fragments(), 2u);
}

// -- section 6.3 regression ---------------------------------------------------

TEST(ControlMessages, Section63JoinBytesAndPackets) {
  // "with 256 fingers the message size increases to 1638 bytes" -- measured
  // from the real encoder, not recomputed from a formula.
  Rng rng(63);
  JoinRequest jr;
  jr.nonce = rng.next_u64();
  jr.gateway = 7;
  jr.public_key = random_key(rng);
  for (std::uint32_t i = 0; i < 256; ++i) {
    jr.fingers.push_back(CompactFinger{
        static_cast<std::uint32_t>(rng.next_u64()),
        static_cast<std::uint16_t>(rng.below(1 << 16))});
  }
  const auto frame = encode_control(jr, random_id(rng), random_id(rng));
  ASSERT_EQ(frame.size(), 1638u);
  EXPECT_EQ(control_wire_size(jr), 1638u);
  const auto p = Packet::decode(frame);
  ASSERT_TRUE(p.has_value());
  const std::size_t join_packets = p->fragments();
  EXPECT_EQ(join_packets, 2u);

  // "a 256-finger single-homed join requires 258 IP packets": one locate
  // probe per finger (each under the MTU) plus the two-fragment join.
  const auto probe = encode_control(Locate{random_id(rng), 2},
                                    NodeId{}, NodeId{});
  ASSERT_FALSE(probe.empty());
  const auto probe_pkt = Packet::decode(probe);
  ASSERT_TRUE(probe_pkt.has_value());
  EXPECT_EQ(probe_pkt->fragments(), 1u);
  const std::size_t total = 256 * probe_pkt->fragments() + join_packets;
  EXPECT_EQ(total, 258u);
}

}  // namespace
}  // namespace rofl::wire::msg
