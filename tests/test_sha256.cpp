#include "util/sha256.hpp"

#include <gtest/gtest.h>

#include <string>

namespace rofl {
namespace {

// FIPS 180-4 / NIST reference vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::to_hex(Sha256::hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(Sha256::to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(h.finish(), Sha256::hash("hello world"));
}

TEST(Sha256, IncrementalAcrossBlockBoundary) {
  const std::string msg(130, 'x');
  Sha256 h;
  h.update(msg.substr(0, 63));
  h.update(msg.substr(63, 2));  // straddles the 64-byte boundary
  h.update(msg.substr(65));
  EXPECT_EQ(h.finish(), Sha256::hash(msg));
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update("abc");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(Sha256::to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ExactBlockLengths) {
  // 55, 56, 64 bytes hit the padding edge cases.
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
    const std::string msg(len, 'q');
    Sha256 h;
    for (char c : msg) {
      h.update(std::string_view(&c, 1));
    }
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "len=" << len;
  }
}

// Known answers at the padding edges: 55 bytes pad within one block, 56 and
// 63 spill the length into a second, 64 and 65 pad a fresh block.  Digests
// of 'q' repeated, from Python's hashlib.sha256.
TEST(Sha256, PaddingEdgeKnownAnswers) {
  const struct {
    std::size_t len;
    const char* hex;
  } kCases[] = {
      {55, "85528b5baff5639cb8e7daca79d085ac29ac0978e873ed7527158616b2b6c379"},
      {56, "f8ce2f8d6990c639668fe404262f35ed72d8bb145ad6bae786af7284447386df"},
      {63, "9b49777003a4143d8c3f4d3002eb631c6bda8b030a3ccc87f8a21d5f61c89e87"},
      {64, "ee8e658590c9a5e119400a774415a01db104de1ee6e2c29ec69aa73ef46544d2"},
      {65, "2b6c3f7f12b1b12fc5409626dc4e5302d8d37082cbeddea7755eac43aba039c8"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(Sha256::to_hex(Sha256::hash(std::string(c.len, 'q'))), c.hex)
        << "len=" << c.len;
  }
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash("a"), Sha256::hash("b"));
  EXPECT_NE(Sha256::hash("a"), Sha256::hash("aa"));
}

}  // namespace
}  // namespace rofl
