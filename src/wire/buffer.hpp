// buffer.hpp -- bounds-checked byte-order-safe serialization primitives.
//
// The wire module gives ROFL concrete packet formats (headers the paper
// reasons about when it counts join-message bytes against the MTU, section
// 6.3).  Writers append big-endian fields to a growable buffer; readers
// consume them with explicit failure on truncation -- no exceptions, no
// undefined behavior on malformed input.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rofl::wire {

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Reserves `capacity` bytes up front: an encoder that knows its exact
  /// output size (Packet::wire_size, msg::control_wire_size) allocates once.
  explicit ByteWriter(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    for (int i = 3; i >= 0; --i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 7; i >= 0; --i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
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

  /// False once any write was refused; the buffer contents are then
  /// incomplete and must not be transmitted.
  [[nodiscard]] bool ok() const { return !failed_; }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
  bool failed_ = false;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8() {
    if (pos_ + 1 > data_.size()) return std::nullopt;
    return data_[pos_++];
  }
  [[nodiscard]] std::optional<std::uint16_t> u16() {
    if (pos_ + 2 > data_.size()) return std::nullopt;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v = static_cast<std::uint16_t>((v << 8) | data_[pos_++]);
    return v;
  }
  [[nodiscard]] std::optional<std::uint32_t> u32() {
    if (pos_ + 4 > data_.size()) return std::nullopt;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_++];
    return v;
  }
  [[nodiscard]] std::optional<std::uint64_t> u64() {
    if (pos_ + 8 > data_.size()) return std::nullopt;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_++];
    return v;
  }
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> bytes(
      std::size_t n) {
    if (pos_ + n > data_.size()) return std::nullopt;
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
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace rofl::wire
