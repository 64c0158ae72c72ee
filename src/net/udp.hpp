// udp.hpp -- real-socket Transport backend (localhost UDP).
//
// One datagram socket per router, bound to 127.0.0.1, driven entirely from
// the router's own event-loop thread:
//
//   * TX: token-bucket rate limiting (sleeping out stalls in wall time),
//     impairment draws, sendto().
//   * RX: poll() drains the socket with non-blocking recv() into one reused
//     buffer, then parses the pump header and dedups -- no second thread, no
//     queue between the kernel and the protocol.
//   * Waiting: wait() blocks in ppoll() on the socket, so a router thread
//     with nothing to do sleeps until a peer's datagram lands, its own
//     delayed send comes due, or its deadline passes.
//
// The socket's receive queue is therefore the only RX buffer.  When a burst
// overflows it the kernel drops the datagram; to the protocol that is network
// loss and the normal retry/backoff machinery recovers.  The kernel's own
// drop count (SO_MEMINFO) is read whenever poll() empties the queue and in
// stop(), and reported as TransportStats::ring_dropped.
//
// Ports: bind with port 0 to let the kernel pick (tests), or a fixed port
// (the spawn-mode mesh, where worker k derives its port from a shared base).
// Peers are registered explicitly with set_peer(id, port) -- ROFL's flat
// labels name routers, and this map is the only place a router id meets a
// network address.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"

namespace rofl::net {

class UdpTransport final : public Transport {
 public:
  /// Binds 127.0.0.1:`port` (0 = kernel-assigned, see port()).  Throws
  /// std::runtime_error if the socket cannot be set up.
  explicit UdpTransport(RouterId self, std::uint16_t port = 0);
  ~UdpTransport() override;

  /// The locally bound UDP port (resolved after a port-0 bind).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Registers where router `id` listens.  Must cover every send() target;
  /// only called during mesh setup, before traffic starts.
  void set_peer(RouterId id, std::uint16_t port);

  bool poll(RxFrame& out) override;

  /// Takes a last reading of the kernel's drop count and closes the socket;
  /// poll() returns false and wait() nullopt from then on.  Idempotent; the
  /// destructor calls it.
  void stop();

  /// Monotonic wall clock in milliseconds, the `now_ms` timebase every
  /// UDP-backend caller must use for send()/pump().
  static double wall_ms();

 private:
  void raw_send(RouterId dst, std::vector<std::uint8_t> datagram) override;
  std::optional<double> wait_readable(double deadline_ms) override;
  double throttle_wait(double now_ms, double wait_ms) override;
  /// Copies the kernel's receive-queue drop count into stats_.ring_dropped.
  void read_drops();

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::unordered_map<RouterId, std::uint16_t> peers_;
  std::vector<std::uint8_t> rx_buf_ = std::vector<std::uint8_t>(kMaxDatagram);
};

}  // namespace rofl::net
