// transport.hpp -- real-packet transport abstraction for the control plane.
//
// PR 5 made every control exchange a CRC-framed wire::Packet; this module
// supplies the last simulated component: how those frames move between
// routers.  A Transport sends and receives whole frames addressed by router
// id, and can block its caller until there is something to do: wait()
// returns when a datagram is readable, a jitter-delayed send comes due, or a
// deadline passes.  Two backends exist:
//
//   * LoopbackTransport (loopback.hpp) -- in-process delivery through a
//     shared hub, the in-sim backend: single-threaded, deterministic, used by
//     tests and the byte-accounting parity runs.  It cannot block: its clock
//     is virtual, and nothing arrives until its driver steps another router.
//   * UdpTransport (udp.hpp) -- one real UDP socket per router on localhost,
//     sent to and drained from the router's own event-loop thread, which
//     waits on that socket between passes, with a bounded token-bucket send
//     rate.
//
// Every datagram carries a 21-byte pump header ahead of the wire frame:
//
//   magic u16 | op u8 | src_router u32 | seq u64 | arg u32 | hsum u16
//
// `seq` is a per-(sender, receiver) transmission counter; the receiver keeps
// a sliding dedup window per peer, so duplicates manufactured by the
// impairment layer (or by the network itself) are dropped at the pump and
// never reach a protocol handler.  Protocol-level retransmissions are new
// transmissions (new seq) -- idempotency of re-processed *requests* is the
// protocol layer's job, suppression of re-delivered *transmissions* is ours.
// `hsum` covers the preceding 19 header bytes and is verified on ingest:
// the payload is integrity-checked by the wire frame's own CRC-32, but the
// header has no such cover, and a corrupted *seq* in particular must never
// reach the dedup window -- a flipped high byte would advance max_seen by
// ~2^56 and make every later legitimate frame from that peer look like an
// ancient duplicate, permanently deafening the link.  (Found live: under
// `--corrupt`, a handful of joins would wedge forever re-locating while the
// poisoned peer silently discarded everything they sent.)  With the
// checksum, a corrupted header is indistinguishable from loss, which the
// sender's retry machinery already covers.
// The header is transport overhead and is excluded from the net.bytes.*
// wire-byte accounting (which must reproduce the simulator's section 6.3
// numbers exactly).
//
// Impairment: sim::FaultInjector is reused unchanged as a netem-style layer
// at the socket boundary.  Loss, duplication, jitter, and corruption are
// applied per transmission in PumpBase::send, exactly as the simulator
// applies them per link crossing, so the existing fault matrix (and its
// counters, faults.*) runs against live sockets without modification.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/faults.hpp"
#include "wire/buffer.hpp"

namespace rofl::net {

using RouterId = std::uint32_t;

inline constexpr std::uint16_t kPumpMagic = 0x524F;  // "RO"
inline constexpr std::size_t kPumpHeaderBytes = 2 + 1 + 4 + 8 + 4 + 2;
/// Largest datagram the pump will carry (wire frame + header).
inline constexpr std::size_t kMaxDatagram = 4096;

/// Pump-layer frame kinds.  kData carries a wire::Packet frame for the
/// protocol layer; the rest are harness signaling for the multi-process mesh
/// (worker lifecycle + state collection) and are exempt from impairment --
/// they coordinate the experiment, they are not part of the measured
/// control plane.
enum class PumpOp : std::uint8_t {
  kData = 0,
  kDone = 1,       // worker -> driver: all assigned joins finished (arg=failed)
  kStop = 2,       // driver -> worker: storm over, dump state
  kStateChunk = 3, // worker -> driver: vnode table chunk (arg = index|total)
  kStateAck = 4,   // driver -> worker: state received, exit now
};

/// One received pump frame, already deduplicated.
struct RxFrame {
  RouterId src = 0;
  PumpOp op = PumpOp::kData;
  std::uint32_t arg = 0;
  std::vector<std::uint8_t> frame;  // wire frame for kData; op payload else
};

/// Pump counters, all mutated on the thread that drives the transport.
struct TransportStats {
  std::uint64_t tx_frames = 0;     // datagrams actually handed to the wire
  std::uint64_t tx_bytes = 0;      // including pump headers
  std::uint64_t rx_frames = 0;     // delivered to poll() after dedup
  std::uint64_t rx_bytes = 0;
  std::uint64_t dedup_dropped = 0; // duplicate transmissions suppressed
  std::uint64_t ring_dropped = 0;  // receive queue full (kernel's count, UDP)
  std::uint64_t malformed = 0;     // short/bad-magic/oversized datagrams
  std::uint64_t throttle_waits = 0;  // token-bucket stalls on send
};

/// FNV-1a over the first 19 header bytes, folded to 16 bits: the header
/// integrity check.  Not cryptographic -- it only has to catch the
/// impairment layer's (and the network's) bit flips.
inline std::uint16_t pump_header_sum(std::span<const std::uint8_t> hdr) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < kPumpHeaderBytes - 2; ++i) {
    h ^= hdr[i];
    h *= 1099511628211ull;
  }
  h ^= h >> 32;
  h ^= h >> 16;
  return static_cast<std::uint16_t>(h);
}

/// Serializes the pump header in front of `frame`: one buffer sized for
/// both, the header's fields stored as words, the frame copied in once.
inline std::vector<std::uint8_t> encode_pump_frame(
    RouterId src, PumpOp op, std::uint64_t seq, std::uint32_t arg,
    std::span<const std::uint8_t> frame) {
  std::vector<std::uint8_t> out(kPumpHeaderBytes + frame.size());
  std::uint8_t* p = out.data();
  wire::store_be16(p, kPumpMagic);
  p[2] = static_cast<std::uint8_t>(op);
  wire::store_be32(p + 3, src);
  wire::store_be64(p + 7, seq);
  wire::store_be32(p + 15, arg);
  wire::store_be16(p + kPumpHeaderBytes - 2, pump_header_sum(out));
  if (!frame.empty()) {
    std::memcpy(p + kPumpHeaderBytes, frame.data(), frame.size());
  }
  return out;
}

/// Parsed pump header.
struct PumpHeader {
  RouterId src = 0;
  PumpOp op = PumpOp::kData;
  std::uint64_t seq = 0;
  std::uint32_t arg = 0;
};

inline std::optional<PumpHeader> decode_pump_header(
    std::span<const std::uint8_t> datagram) {
  if (datagram.size() < kPumpHeaderBytes) return std::nullopt;
  const std::uint8_t* p = datagram.data();
  if (wire::load_be16(p) != kPumpMagic) return std::nullopt;
  if (wire::load_be16(p + kPumpHeaderBytes - 2) !=
      pump_header_sum(datagram)) {
    return std::nullopt;  // corrupted header: treat as loss, never dedup
  }
  const std::uint8_t op = p[2];
  if (op > static_cast<std::uint8_t>(PumpOp::kStateAck)) return std::nullopt;
  PumpHeader h;
  h.op = static_cast<PumpOp>(op);
  h.src = wire::load_be32(p + 3);
  h.seq = wire::load_be64(p + 7);
  h.arg = wire::load_be32(p + 15);
  return h;
}

/// Per-peer receive-side duplicate suppression: a 1024-transmission sliding
/// bitmap keyed on the pump seq.  Anything older than the window is treated
/// as a duplicate -- safe because senders never have that many transmissions
/// outstanding to one peer.
class DedupWindow {
 public:
  static constexpr std::uint64_t kWindow = 1024;

  /// True if `seq` is new (caller should deliver), false on duplicate/stale.
  bool accept(std::uint64_t seq) {
    if (!any_) {
      any_ = true;
      max_seen_ = seq;
      clear_all();
      mark(seq);
      return true;
    }
    if (seq > max_seen_) {
      // Advance: clear the slots the window slides over.
      const std::uint64_t advance = seq - max_seen_;
      if (advance >= kWindow) {
        clear_all();
      } else {
        for (std::uint64_t s = max_seen_ + 1; s <= seq; ++s) unmark(s);
      }
      max_seen_ = seq;
      mark(seq);
      return true;
    }
    if (max_seen_ - seq >= kWindow) return false;  // too old: assume dup
    if (marked(seq)) return false;
    mark(seq);
    return true;
  }

 private:
  void clear_all() { bits_.fill(0); }
  void mark(std::uint64_t s) { bits_[(s / 64) % kWords] |= bit(s); }
  void unmark(std::uint64_t s) { bits_[(s / 64) % kWords] &= ~bit(s); }
  [[nodiscard]] bool marked(std::uint64_t s) const {
    return (bits_[(s / 64) % kWords] & bit(s)) != 0;
  }
  static std::uint64_t bit(std::uint64_t s) { return 1ull << (s % 64); }
  static constexpr std::size_t kWords = kWindow / 64;

  bool any_ = false;
  std::uint64_t max_seen_ = 0;
  std::array<std::uint64_t, kWords> bits_{};
};

/// Token bucket bounding the send rate in packets/sec (0 = unlimited).
/// take() returns 0 when a token was consumed, else the milliseconds to wait
/// before retrying -- the UDP backend sleeps, the loopback backend just
/// counts (virtual time).
struct TokenBucket {
  double rate_pps = 0.0;
  double burst = 64.0;
  double tokens = 64.0;
  double last_ms = 0.0;

  [[nodiscard]] double take(double now_ms) {
    if (rate_pps <= 0.0) return 0.0;
    tokens = std::min(burst, tokens + (now_ms - last_ms) * rate_pps / 1000.0);
    last_ms = now_ms;
    if (tokens >= 1.0) {
      tokens -= 1.0;
      return 0.0;
    }
    return (1.0 - tokens) * 1000.0 / rate_pps;
  }
};

/// The backend-independent half of the packet pump: per-peer TX sequencing,
/// the impairment layer, jitter-delayed transmission, receive-side dedup,
/// and the stats block.  Backends implement raw datagram IO.
class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] RouterId self() const { return self_; }
  [[nodiscard]] const TransportStats& stats() const { return stats_; }

  /// Installs the netem-style impairment layer (nullable; loss/dup/jitter/
  /// corruption drawn per transmission at the socket boundary).  The injector
  /// must outlive the transport and is only touched from the send thread.
  void set_fault_injector(sim::FaultInjector* inj) { injector_ = inj; }

  /// Bounds the send rate (packets/sec; 0 = unlimited).
  void set_rate_limit(double pps) {
    bucket_.rate_pps = pps;
    bucket_.burst = std::max(32.0, pps / 20.0);
    bucket_.tokens = bucket_.burst;
  }

  /// Sends one pump frame to `dst`.  Best-effort: the impairment layer may
  /// drop, duplicate, delay, or corrupt the transmission; kernel-side loss is
  /// possible on the UDP backend.  Reliability belongs to the caller's
  /// retry/backoff machinery (sim::RetryPolicy semantics).
  void send(RouterId dst, PumpOp op, std::uint32_t arg,
            std::span<const std::uint8_t> frame, double now_ms) {
    const std::uint64_t seq = ++tx_seq_[dst];
    std::vector<std::uint8_t> datagram =
        encode_pump_frame(self_, op, seq, arg, frame);
    if (op != PumpOp::kData || injector_ == nullptr ||
        !injector_->message_faults_enabled()) {
      transmit(dst, std::move(datagram), now_ms);
      return;
    }
    const sim::FaultDecision d = injector_->on_link();
    if (d.dropped) return;
    for (std::uint32_t copy = 0; copy < d.copies; ++copy) {
      std::vector<std::uint8_t> wire = datagram;
      if (injector_->corruption_enabled()) {
        (void)injector_->maybe_corrupt_frame(wire);
      }
      if (d.extra_latency_ms > 0.0) {
        delayed_.push(Delayed{now_ms + d.extra_latency_ms, delay_seq_++, dst,
                              std::move(wire)});
      } else {
        transmit(dst, std::move(wire), now_ms);
      }
    }
  }

  /// Flushes jitter-delayed transmissions that have come due.  Call once per
  /// event-loop iteration.
  void pump(double now_ms) {
    while (!delayed_.empty() && delayed_.top().due_ms <= now_ms) {
      Delayed d = delayed_.top();
      delayed_.pop();
      transmit(d.dst, std::move(d.datagram), now_ms);
    }
  }

  /// Next received frame, deduplicated; false when none pending.
  virtual bool poll(RxFrame& out) = 0;

  /// Blocks until a datagram is readable, the earliest jitter-delayed send
  /// is due, or `deadline_ms` passes, and returns the clock it woke at: the
  /// `now_ms` for the caller's next pump() and poll() pass.  Returns nullopt
  /// at once where the backend cannot block: loopback, whose virtual clock
  /// moves only when its driver moves it, and a stopped UDP transport.
  std::optional<double> wait(double deadline_ms) {
    if (!delayed_.empty()) {
      deadline_ms = std::min(deadline_ms, delayed_.top().due_ms);
    }
    return wait_readable(deadline_ms);
  }

  /// Datagrams dropped because the receive queue was full.  Only the UDP
  /// backend's kernel queue is bounded; loopback always reads 0.
  [[nodiscard]] std::uint64_t ring_dropped() const {
    return stats_.ring_dropped;
  }

 protected:
  explicit Transport(RouterId self) : self_(self) {}

  /// Hands one datagram to the backend after rate limiting.
  void transmit(RouterId dst, std::vector<std::uint8_t> datagram,
                double now_ms) {
    double wait = bucket_.take(now_ms);
    while (wait > 0.0) {
      ++stats_.throttle_waits;
      wait = bucket_.take(throttle_wait(now_ms, wait));
    }
    stats_.tx_frames++;
    stats_.tx_bytes += datagram.size();
    raw_send(dst, std::move(datagram));
  }

  /// Backend IO: ship one datagram.
  virtual void raw_send(RouterId dst, std::vector<std::uint8_t> datagram) = 0;

  /// Backend half of wait(): blocks until a datagram is readable or
  /// `deadline_ms` passes on the backend's clock; nullopt if it cannot block.
  virtual std::optional<double> wait_readable(double deadline_ms) = 0;

  /// Backend wait policy when the token bucket is empty: the UDP backend
  /// sleeps `wait_ms` of wall time and returns the new clock; the loopback
  /// backend advances its virtual clock.  Returns the updated now_ms.
  virtual double throttle_wait(double now_ms, double wait_ms) = 0;

  /// Shared receive-side processing: header parse + dedup.  Returns true and
  /// fills `out` when the datagram should be delivered.
  bool ingest(std::span<const std::uint8_t> datagram, RxFrame& out) {
    const auto h = decode_pump_header(datagram);
    if (!h.has_value()) {
      ++stats_.malformed;
      return false;
    }
    if (!rx_dedup_[h->src].accept(h->seq)) {
      ++stats_.dedup_dropped;
      return false;
    }
    out.src = h->src;
    out.op = h->op;
    out.arg = h->arg;
    out.frame.assign(datagram.begin() + kPumpHeaderBytes, datagram.end());
    stats_.rx_frames++;
    stats_.rx_bytes += datagram.size();
    return true;
  }

  TransportStats stats_;

 private:
  struct Delayed {
    double due_ms = 0.0;
    std::uint64_t order = 0;  // FIFO among equal due times
    RouterId dst = 0;
    std::vector<std::uint8_t> datagram;
    bool operator>(const Delayed& o) const {
      return due_ms != o.due_ms ? due_ms > o.due_ms : order > o.order;
    }
  };

  RouterId self_;
  sim::FaultInjector* injector_ = nullptr;
  TokenBucket bucket_;
  std::unordered_map<RouterId, std::uint64_t> tx_seq_;
  std::unordered_map<RouterId, DedupWindow> rx_dedup_;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<>> delayed_;
  std::uint64_t delay_seq_ = 0;
};

}  // namespace rofl::net
