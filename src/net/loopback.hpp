// loopback.hpp -- in-process Transport backend.
//
// The in-sim delivery path: a LoopbackHub holds one datagram queue per
// router, and LoopbackTransport::raw_send appends to the destination's queue
// directly.  Everything runs on whichever thread drives the routers (the
// mesh driver single-threads a round-robin loop over them), time is a
// virtual millisecond clock the driver advances, and the token bucket
// "waits" by advancing that clock -- so a loopback run is exactly as
// deterministic as the discrete-event simulator, which is what lets the
// byte-accounting parity gate (section 6.3: 1638 bytes per 256-finger join)
// compare the two paths bit for bit.
//
// The hub still takes a mutex per queue: tests exercise transports from more
// than one thread, and the cost is irrelevant at loopback rates.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"

namespace rofl::net {

/// Shared mailbox set: one FIFO of raw datagrams per router id.
class LoopbackHub {
 public:
  void deliver(RouterId dst, std::vector<std::uint8_t> datagram) {
    Box& box = *box_for(dst);
    const std::lock_guard<std::mutex> lk(box.mu);
    box.q.push_back(std::move(datagram));
  }

  bool take(RouterId dst, std::vector<std::uint8_t>& out) {
    Box& box = *box_for(dst);
    const std::lock_guard<std::mutex> lk(box.mu);
    if (box.q.empty()) return false;
    out = std::move(box.q.front());
    box.q.pop_front();
    return true;
  }

 private:
  struct Box {
    std::mutex mu;
    std::deque<std::vector<std::uint8_t>> q;
  };

  Box* box_for(RouterId id) {
    const std::lock_guard<std::mutex> lk(mu_);
    std::unique_ptr<Box>& b = boxes_[id];
    if (b == nullptr) b = std::make_unique<Box>();
    return b.get();
  }

  std::mutex mu_;
  std::unordered_map<RouterId, std::unique_ptr<Box>> boxes_;
};

class LoopbackTransport final : public Transport {
 public:
  /// `hub` must outlive the transport.
  LoopbackTransport(RouterId self, LoopbackHub* hub)
      : Transport(self), hub_(hub) {}

  bool poll(RxFrame& out) override {
    std::vector<std::uint8_t> datagram;
    while (hub_->take(self(), datagram)) {
      if (ingest(datagram, out)) return true;
    }
    return false;
  }

 private:
  void raw_send(RouterId dst, std::vector<std::uint8_t> datagram) override {
    hub_->deliver(dst, std::move(datagram));
  }

  std::optional<double> wait_readable(double /*deadline_ms*/) override {
    return std::nullopt;  // virtual time: nothing arrives while blocked
  }

  double throttle_wait(double now_ms, double wait_ms) override {
    // Virtual time: waiting is just pretending the clock advanced.
    return now_ms + wait_ms;
  }

  LoopbackHub* hub_;
};

}  // namespace rofl::net
