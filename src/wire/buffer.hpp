// buffer.hpp -- bounds-checked byte-order-safe serialization primitives.
//
// The wire module gives ROFL concrete packet formats (headers the paper
// reasons about when it counts join-message bytes against the MTU, section
// 6.3).  Writers append big-endian fields to a growable buffer; readers
// consume them with explicit failure on truncation -- no exceptions, no
// undefined behavior on malformed input.
//
// Every multi-byte field moves as one word: one capacity or bounds check per
// field, then a byte-swapped store or a load and swap.  Repeated records
// (finger tables, successor lists, AS paths) go further: the writer hands out
// the whole block's space once (ByteWriter::append) and the reader bounds the
// whole block once (ByteReader::bytes), and the per-record loop runs over raw
// pointers with store_be* / load_be*.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rofl::wire {

namespace detail {

template <typename T>
constexpr T to_big_endian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    static_assert(sizeof(T) == 8);
    return __builtin_bswap64(v);
  }
}

template <typename T>
void store_be(std::uint8_t* p, T v) {
  v = to_big_endian(v);
  std::memcpy(p, &v, sizeof(v));
}

template <typename T>
T load_be(const std::uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof(v));
  return to_big_endian(v);  // the swap is its own inverse
}

}  // namespace detail

/// Big-endian stores and loads at a raw position; the caller has already
/// bounded the space (ByteWriter::append, ByteReader::bytes).
inline void store_be16(std::uint8_t* p, std::uint16_t v) {
  detail::store_be(p, v);
}
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  detail::store_be(p, v);
}
inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  detail::store_be(p, v);
}
inline std::uint16_t load_be16(const std::uint8_t* p) {
  return detail::load_be<std::uint16_t>(p);
}
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return detail::load_be<std::uint32_t>(p);
}
inline std::uint64_t load_be64(const std::uint8_t* p) {
  return detail::load_be<std::uint64_t>(p);
}

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Sizes the buffer to `capacity` bytes up front: an encoder that knows
  /// its exact output size (Packet::wire_size, msg::control_wire_size)
  /// allocates once and never grows.
  explicit ByteWriter(std::size_t capacity) : buf_(capacity) {}

  void u8(std::uint8_t v) { *append(1).data() = v; }
  void u16(std::uint16_t v) { store_be16(append(2).data(), v); }
  void u32(std::uint32_t v) { store_be32(append(4).data(), v); }
  void u64(std::uint64_t v) { store_be64(append(8).data(), v); }
  void bytes(std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    std::memcpy(append(data.size()).data(), data.data(), data.size());
  }
  /// Length-prefixed (u16) byte string.  A field longer than 0xFFFF cannot
  /// be represented: nothing is written, the writer is marked failed, and
  /// false is returned -- a silently truncated (i.e. corrupted) field can
  /// never reach the wire.
  [[nodiscard]] bool lp_bytes(std::span<const std::uint8_t> data) {
    if (data.size() > 0xFFFF) {
      failed_ = true;
      return false;
    }
    u16(static_cast<std::uint16_t>(data.size()));
    bytes(data);
    return true;
  }

  /// Extends the output by `n` bytes and returns them for the caller to
  /// fill: the one capacity check for a block of fixed-size records.
  [[nodiscard]] std::span<std::uint8_t> append(std::size_t n) {
    if (buf_.size() - len_ < n) {
      buf_.resize(std::max(len_ + n, 2 * buf_.size()));
    }
    const std::span<std::uint8_t> out(buf_.data() + len_, n);
    len_ += n;
    return out;
  }

  /// False once any write was refused; the buffer contents are then
  /// incomplete and must not be transmitted.
  [[nodiscard]] bool ok() const { return !failed_; }

  /// The bytes written so far.
  [[nodiscard]] std::span<const std::uint8_t> data() const {
    return {buf_.data(), len_};
  }
  [[nodiscard]] std::size_t size() const { return len_; }
  std::vector<std::uint8_t> take() {
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;  // sized to capacity; [0, len_) written
  std::size_t len_ = 0;
  bool failed_ = false;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8() {
    if (remaining() < 1) return std::nullopt;
    return data_[pos_++];
  }
  [[nodiscard]] std::optional<std::uint16_t> u16() {
    return word<std::uint16_t>();
  }
  [[nodiscard]] std::optional<std::uint32_t> u32() {
    return word<std::uint32_t>();
  }
  [[nodiscard]] std::optional<std::uint64_t> u64() {
    return word<std::uint64_t>();
  }
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> bytes(
      std::size_t n) {
    if (remaining() < n) return std::nullopt;
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> lp_bytes() {
    const auto n = u16();
    if (!n.has_value()) return std::nullopt;
    return bytes(*n);
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  template <typename T>
  std::optional<T> word() {
    if (remaining() < sizeof(T)) return std::nullopt;
    const T v = detail::load_be<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace rofl::wire
