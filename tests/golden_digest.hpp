// golden_digest.hpp -- the FNV-1a fold behind the golden-outcome tests.
//
// A golden test runs a fixed-seed scenario, folds every outcome it can see
// into one 64-bit digest and pins the value.  Doubles fold by bit pattern,
// so a latency that moves by one ulp moves the digest.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace rofl::testing_support {

class GoldenDigest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(std::uint64_t{s.size()});
    for (const char c : s) add(std::uint64_t{static_cast<unsigned char>(c)});
  }
  /// Every counter of `m`, name and value, in registration order.
  void add_counters(const obs::Registry& m) {
    for (obs::MetricId i = 0; i < m.counter_count(); ++i) {
      add(std::string_view(m.counter_name(i)));
      add(m.counter_value(i));
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace rofl::testing_support
