#include "net/udp.hpp"

#include <arpa/inet.h>
#include <linux/sock_diag.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <ctime>
#include <span>
#include <stdexcept>
#include <thread>

namespace rofl::net {

namespace {

sockaddr_in localhost_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

UdpTransport::UdpTransport(RouterId self, std::uint16_t port)
    : Transport(self) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("UdpTransport: socket() failed");

  // A join storm against one router can burst well past the default buffer;
  // ask for more and take whatever the kernel grants.
  int buf = 4 * 1024 * 1024;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));

  sockaddr_in addr = localhost_addr(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("UdpTransport: bind() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("UdpTransport: getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);
}

UdpTransport::~UdpTransport() { stop(); }

void UdpTransport::set_peer(RouterId id, std::uint16_t port) {
  peers_[id] = port;
}

void UdpTransport::stop() {
  if (fd_ < 0) return;
  read_drops();
  ::close(fd_);
  fd_ = -1;
}

double UdpTransport::wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void UdpTransport::raw_send(RouterId dst, std::vector<std::uint8_t> datagram) {
  const auto it = peers_.find(dst);
  if (it == peers_.end()) return;  // unknown peer: counts as sent, lands nowhere
  const sockaddr_in addr = localhost_addr(it->second);
  // EAGAIN/ENOBUFS under burst is loss to the protocol; retry/backoff covers
  // it like any other drop, so no error handling here.
  (void)::sendto(fd_, datagram.data(), datagram.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
}

std::optional<double> UdpTransport::wait_readable(double deadline_ms) {
  if (fd_ < 0) return std::nullopt;
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    const double now = wall_ms();
    if (now >= deadline_ms) return now;
    // Rounded up, so a timeout never wakes before the deadline; capped, so
    // the nanosecond count cannot overflow.
    const auto ns = static_cast<std::int64_t>(
        std::ceil(std::min(deadline_ms - now, 1000.0) * 1e6));
    const timespec timeout{static_cast<std::time_t>(ns / 1'000'000'000),
                           static_cast<long>(ns % 1'000'000'000)};
    // Anything but a timeout -- a datagram, a socket error, a signal -- ends
    // the wait; the caller's next pass drains the socket.
    if (::ppoll(&pfd, 1, &timeout, nullptr) != 0) return wall_ms();
  }
}

double UdpTransport::throttle_wait(double /*now_ms*/, double wait_ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      std::min(wait_ms, 50.0)));
  return wall_ms();
}

bool UdpTransport::poll(RxFrame& out) {
  if (fd_ < 0) return false;
  while (true) {
    // With MSG_TRUNC, recv returns a datagram's full length even when only
    // its first rx_buf_.size() bytes fit, so an oversized datagram is
    // dropped and counted instead of handed on cut short, where it would
    // fail its CRC as if the link had corrupted it.
    const ssize_t n = ::recv(fd_, rx_buf_.data(), rx_buf_.size(),
                             MSG_DONTWAIT | MSG_TRUNC);
    if (n < 0) break;  // EAGAIN: the queue is empty
    const auto len = static_cast<std::size_t>(n);
    if (len > rx_buf_.size()) {
      ++stats_.malformed;
      continue;
    }
    if (ingest(std::span(rx_buf_.data(), len), out)) return true;
  }
  read_drops();
  return false;
}

void UdpTransport::read_drops() {
  // SO_MEMINFO rather than SO_RXQ_OVFL: the latter rides only on datagrams
  // queued after a drop, so a burst that overflows and is then drained
  // would read zero.
  std::uint32_t mem[SK_MEMINFO_VARS] = {};
  socklen_t len = sizeof(mem);
  if (::getsockopt(fd_, SOL_SOCKET, SO_MEMINFO, mem, &len) == 0 &&
      len > SK_MEMINFO_DROPS * sizeof(std::uint32_t)) {
    stats_.ring_dropped = mem[SK_MEMINFO_DROPS];
  }
}

}  // namespace rofl::net
