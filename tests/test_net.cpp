// test_net.cpp -- transport pump and live-mesh protocol tests.
//
// Covers the src/net stack bottom-up: pump header codec, the dedup window,
// loopback transport delivery, a real-socket UDP transport pair on ephemeral
// ports (one thread, with receive-queue overflow and oversized datagrams
// counted), the transport's blocking wait and the bounded step a UDP
// LiveRouter takes over it, and full mesh runs -- a deterministic loopback
// storm whose byte accounting must reproduce the simulator's section 6.3
// figure (1638 bytes per 256-finger JoinRequest), a two-router UDP mesh
// converging under heavy impairment, and a negative audit check proving the
// auditor actually sees defects.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "net/loopback.hpp"
#include "net/mesh.hpp"
#include "net/router.hpp"
#include "net/transport.hpp"
#include "net/udp.hpp"
#include "wire/messages.hpp"

namespace rofl::net {
namespace {

TEST(PumpHeader, RoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  const auto frame =
      encode_pump_frame(7, PumpOp::kStateChunk, 0x1122334455667788ull,
                        0xDEADBEEF, payload);
  ASSERT_EQ(frame.size(), kPumpHeaderBytes + payload.size());
  const auto h = decode_pump_header(frame);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->src, 7u);
  EXPECT_EQ(h->op, PumpOp::kStateChunk);
  EXPECT_EQ(h->seq, 0x1122334455667788ull);
  EXPECT_EQ(h->arg, 0xDEADBEEFu);
}

TEST(PumpHeader, RejectsShortAndBadMagic) {
  const auto frame = encode_pump_frame(1, PumpOp::kData, 1, 0, {});
  for (std::size_t cut = 0; cut < kPumpHeaderBytes; ++cut) {
    EXPECT_FALSE(decode_pump_header(
                     std::span(frame.data(), cut))
                     .has_value())
        << "prefix " << cut;
  }
  auto bad = frame;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(decode_pump_header(bad).has_value());
  auto bad_op = frame;
  bad_op[2] = 200;  // past kStateAck
  EXPECT_FALSE(decode_pump_header(bad_op).has_value());
}

TEST(PumpHeader, RejectsEveryCorruptedHeaderByte) {
  // The dedup-poisoning regression: a bit flip in the big-endian seq field
  // used to advance the receiver's window by up to ~2^56 and permanently
  // deafen the peer link.  The header checksum must catch a flip in *any*
  // header byte (including the checksum bytes themselves) so corruption
  // degrades to loss, never to a poisoned window.
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const auto frame =
      encode_pump_frame(3, PumpOp::kData, 0x00000000000000FFull, 0, payload);
  for (std::size_t at = 0; at < kPumpHeaderBytes; ++at) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      auto bad = frame;
      bad[at] ^= flip;
      EXPECT_FALSE(decode_pump_header(bad).has_value())
          << "byte " << at << " flip " << int(flip);
    }
  }
  ASSERT_TRUE(decode_pump_header(frame).has_value());  // pristine still ok
}

TEST(DedupWindow, SuppressesDuplicatesAcceptsFresh) {
  DedupWindow w;
  EXPECT_TRUE(w.accept(1));
  EXPECT_FALSE(w.accept(1));
  EXPECT_TRUE(w.accept(2));
  EXPECT_TRUE(w.accept(5));  // gap: 3, 4 still acceptable later
  EXPECT_TRUE(w.accept(3));
  EXPECT_TRUE(w.accept(4));
  EXPECT_FALSE(w.accept(3));
  // Far jump slides the window; anything older than 1024 behind is a dup.
  EXPECT_TRUE(w.accept(5000));
  EXPECT_FALSE(w.accept(5000));
  EXPECT_FALSE(w.accept(3000));  // outside window: treated as duplicate
  EXPECT_TRUE(w.accept(4999));   // inside window, never seen
}

TEST(DedupWindow, SlidingClearsOldSlots) {
  DedupWindow w;
  for (std::uint64_t s = 1; s <= 3000; ++s) {
    EXPECT_TRUE(w.accept(s)) << s;
  }
  for (std::uint64_t s = 2990; s <= 3000; ++s) {
    EXPECT_FALSE(w.accept(s)) << s;
  }
}

TEST(Loopback, DeliversAndDedups) {
  LoopbackHub hub;
  LoopbackTransport a(1, &hub);
  LoopbackTransport b(2, &hub);
  const std::vector<std::uint8_t> payload = {9, 9, 9};
  a.send(2, PumpOp::kData, 0, payload, 0.0);
  RxFrame rx;
  ASSERT_TRUE(b.poll(rx));
  EXPECT_EQ(rx.src, 1u);
  EXPECT_EQ(rx.frame, payload);
  EXPECT_FALSE(b.poll(rx));
  EXPECT_EQ(b.stats().rx_frames, 1u);

  // A duplicated transmission (same datagram replayed) is suppressed.
  hub.deliver(2, encode_pump_frame(1, PumpOp::kData, 1, 0, payload));
  EXPECT_FALSE(b.poll(rx));
  EXPECT_EQ(b.stats().dedup_dropped, 1u);
}

TEST(Loopback, ImpairmentDropsAndDuplicates) {
  LoopbackHub hub;
  LoopbackTransport a(1, &hub);
  LoopbackTransport b(2, &hub);
  obs::Registry reg;
  sim::FaultPlan plan;
  plan.defaults.loss = 0.5;
  plan.defaults.duplicate = 0.25;
  sim::FaultInjector inj(plan, /*seed=*/42, &reg);
  a.set_fault_injector(&inj);

  const std::vector<std::uint8_t> payload = {1};
  constexpr int kSends = 400;
  for (int i = 0; i < kSends; ++i) a.send(2, PumpOp::kData, 0, payload, 0.0);
  int delivered = 0;
  RxFrame rx;
  while (b.poll(rx)) ++delivered;
  // Half dropped; duplicates of surviving transmissions carry fresh pump
  // seqs only when the injector duplicates the *logical* send, so the pump
  // dedup kills the extra copies (same seq).  Delivered ~= kSends * P(keep).
  EXPECT_GT(delivered, kSends / 4);
  EXPECT_LT(delivered, (3 * kSends) / 4);
  EXPECT_GT(inj.dropped(), 0u);
  EXPECT_EQ(b.stats().dedup_dropped, inj.duplicated());
}

TEST(Udp, PairExchangesFramesOnEphemeralPorts) {
  UdpTransport a(1, /*port=*/0);
  UdpTransport b(2, /*port=*/0);
  ASSERT_NE(a.port(), 0);
  ASSERT_NE(b.port(), 0);
  a.set_peer(2, b.port());
  b.set_peer(1, a.port());

  const std::vector<std::uint8_t> payload = {5, 6, 7, 8};
  a.send(2, PumpOp::kData, 77, payload, UdpTransport::wall_ms());
  RxFrame rx;
  bool got = false;
  for (int spin = 0; spin < 200 && !got; ++spin) {
    got = b.poll(rx);
    if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(got) << "datagram never arrived on loopback UDP";
  EXPECT_EQ(rx.src, 1u);
  EXPECT_EQ(rx.arg, 77u);
  EXPECT_EQ(rx.frame, payload);

  b.send(1, PumpOp::kDone, 3, {}, UdpTransport::wall_ms());
  got = false;
  for (int spin = 0; spin < 200 && !got; ++spin) {
    got = a.poll(rx);
    if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(rx.op, PumpOp::kDone);
  EXPECT_EQ(rx.arg, 3u);

  // stop() closes the socket: a datagram still queued is never delivered,
  // and the drop count keeps its last reading.
  a.send(2, PumpOp::kData, 78, payload, UdpTransport::wall_ms());
  const std::uint64_t dropped = b.ring_dropped();
  b.stop();
  EXPECT_FALSE(b.poll(rx));
  EXPECT_EQ(b.ring_dropped(), dropped);
}

TEST(Udp, ReceiveQueueOverflowIsCounted) {
  // The socket's receive queue is the only RX buffer.  A burst that
  // overflows it is dropped by the kernel, and on localhost nothing else can
  // lose a datagram: every transmission is either received or counted.
  UdpTransport a(1, /*port=*/0);
  UdpTransport b(2, /*port=*/0);
  a.set_peer(2, b.port());
  const std::vector<std::uint8_t> payload(1024, 0xAB);
  constexpr std::uint64_t kSends = 20'000;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    a.send(2, PumpOp::kData, 0, payload, UdpTransport::wall_ms());
  }
  ASSERT_EQ(a.stats().tx_frames, kSends);
  RxFrame rx;
  const auto accounted = [&] {
    return b.stats().rx_frames + b.ring_dropped();
  };
  for (int spin = 0; spin < 200 && accounted() < kSends; ++spin) {
    while (b.poll(rx)) {
    }
    if (accounted() < kSends) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_GT(b.ring_dropped(), 0u);
  EXPECT_GT(b.stats().rx_frames, 0u);
  EXPECT_EQ(accounted(), kSends);
}

TEST(Udp, OversizedDatagramCountedAsMalformed) {
  // A datagram longer than the receive buffer used to be read cut short and
  // handed on as a frame (which then failed its CRC); it is dropped whole and
  // counted as malformed, and the link keeps working.
  UdpTransport a(1, /*port=*/0);
  UdpTransport b(2, /*port=*/0);
  a.set_peer(2, b.port());
  const std::vector<std::uint8_t> oversized(5000, 0xAB);
  ASSERT_GT(kPumpHeaderBytes + oversized.size(), kMaxDatagram);
  a.send(2, PumpOp::kData, 0, oversized, UdpTransport::wall_ms());
  RxFrame rx;
  for (int spin = 0; spin < 200 && b.stats().malformed == 0; ++spin) {
    ASSERT_FALSE(b.poll(rx)) << "a cut datagram was delivered";
    if (b.stats().malformed == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(b.stats().malformed, 1u);
  EXPECT_EQ(b.stats().rx_frames, 0u);

  const std::vector<std::uint8_t> payload = {1, 2, 3};
  a.send(2, PumpOp::kData, 9, payload, UdpTransport::wall_ms());
  bool got = false;
  for (int spin = 0; spin < 200 && !got; ++spin) {
    got = b.poll(rx);
    if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(got) << "the frame after the oversized one never arrived";
  EXPECT_EQ(rx.arg, 9u);
  EXPECT_EQ(rx.frame, payload);
  EXPECT_EQ(b.stats().malformed, 1u);
}

/// The `Threads:` count of this process, from /proc/self/status.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(Udp, TransportStartsNoThread) {
  // poll() reads the socket on the caller's thread, so a transport's whole
  // life -- bind, send, receive, stop -- runs on the thread that drives it.
  const int before = process_threads();
  ASSERT_GT(before, 0);
  {
    UdpTransport t(1, /*port=*/0);
    t.set_peer(1, t.port());
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    t.send(1, PumpOp::kData, 0, payload, UdpTransport::wall_ms());
    RxFrame rx;
    bool got = false;
    for (int spin = 0; spin < 200 && !got; ++spin) {
      got = t.poll(rx);
      if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(got);
    EXPECT_EQ(process_threads(), before);
    t.stop();
  }
  EXPECT_EQ(process_threads(), before);
}

TEST(Udp, WaitReturnsSoonAfterAPeerDatagramLands) {
  UdpTransport a(1, /*port=*/0);
  UdpTransport b(2, /*port=*/0);
  a.set_peer(2, b.port());
  const std::vector<std::uint8_t> payload = {4, 2};
  double sent_at = 0.0;
  std::thread peer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sent_at = UdpTransport::wall_ms();
    a.send(2, PumpOp::kData, 0, payload, sent_at);
  });
  const double start = UdpTransport::wall_ms();
  const std::optional<double> woke = b.wait(start + 5'000.0);
  peer.join();
  ASSERT_TRUE(woke.has_value());
  EXPECT_GE(*woke, sent_at);
  EXPECT_LT(*woke - sent_at, 1'000.0) << "slept past the datagram";
  RxFrame rx;
  ASSERT_TRUE(b.poll(rx));
  EXPECT_EQ(rx.frame, payload);
}

TEST(Udp, WaitLastsUntilItsDeadlineWhenNothingIsPending) {
  UdpTransport t(1, /*port=*/0);
  const double deadline = UdpTransport::wall_ms() + 30.0;
  const std::optional<double> woke = t.wait(deadline);
  ASSERT_TRUE(woke.has_value());
  EXPECT_GE(*woke, deadline);
  EXPECT_GE(UdpTransport::wall_ms(), deadline);
  EXPECT_LT(*woke - deadline, 1'000.0);
  RxFrame rx;
  EXPECT_FALSE(t.poll(rx));
}

TEST(Udp, WaitWakesWhenAJitterDelayedSendIsDue) {
  UdpTransport a(1, /*port=*/0);
  UdpTransport b(2, /*port=*/0);
  a.set_peer(2, b.port());
  obs::Registry reg;
  sim::FaultPlan plan;
  plan.defaults.jitter_ms = 40.0;
  sim::FaultInjector inj(plan, /*seed=*/7, &reg);
  a.set_fault_injector(&inj);
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const double start = UdpTransport::wall_ms();
  a.send(2, PumpOp::kData, 0, payload, start);
  ASSERT_EQ(a.stats().tx_frames, 0u) << "the send was not delayed";

  // The wait ends by the send's due time, not the far deadline, and no
  // earlier: the pump at the clock it returns sends the datagram.
  const std::optional<double> woke = a.wait(start + 5'000.0);
  ASSERT_TRUE(woke.has_value());
  EXPECT_LT(*woke - start, 2'500.0);
  a.pump(*woke);
  EXPECT_EQ(a.stats().tx_frames, 1u);
  ASSERT_TRUE(b.wait(UdpTransport::wall_ms() + 5'000.0).has_value());
  RxFrame rx;
  ASSERT_TRUE(b.poll(rx));
  EXPECT_EQ(rx.frame, payload);
}

TEST(Udp, WaitOnAStoppedTransportReturnsAtOnce) {
  UdpTransport t(1, /*port=*/0);
  t.stop();
  // Each wait would sleep a second if a stopped socket blocked (ppoll skips
  // a closed descriptor and sleeps out the timeout).
  const double start = UdpTransport::wall_ms();
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(t.wait(UdpTransport::wall_ms() + 1'000.0).has_value());
  }
  EXPECT_LT(UdpTransport::wall_ms() - start, 1'000.0);
}

/// A UDP LiveRouter (router 1) whose bootstrap, router 0, is a socket that
/// nobody reads: every frame the router sends goes unanswered.
struct SilentPeerRouter {
  UdpTransport silent{0, /*port=*/0};
  UdpTransport transport{1, /*port=*/0};
  LiveRouter router{[] {
                      LiveRouterConfig c;
                      c.self = 1;
                      c.bootstrap = 0;
                      c.fingers = 8;
                      return c;
                    }(),
                    &transport};

  SilentPeerRouter() { transport.set_peer(0, silent.port()); }

  /// Wall ms that `steps` back-to-back steps take.
  double time_steps(int steps) {
    const double start = UdpTransport::wall_ms();
    for (int i = 0; i < steps; ++i) router.step(UdpTransport::wall_ms());
    return UdpTransport::wall_ms() - start;
  }
};

TEST(Udp, BusyRouterStepWaitsOutOneSliceOnASilentPeer) {
  SilentPeerRouter p;
  p.router.enqueue_join(make_identities(3, 2)[1]);
  const double start = UdpTransport::wall_ms();
  p.router.step(start);
  const double took = UdpTransport::wall_ms() - start;
  // The join's Locate went out and nothing answered it: the step waited on
  // the socket for the whole slice, and no longer (the first retry is 40 ms
  // out; the upper margin is for sanitizer builds).
  EXPECT_FALSE(p.router.quiescent());
  EXPECT_EQ(p.transport.stats().tx_frames, 1u);
  EXPECT_GE(took, LiveRouter::kSliceMs);
  EXPECT_LT(took, LiveRouter::kSliceMs + 250.0);
}

TEST(Udp, QuiescentRouterStepIsOnePass) {
  // Were a quiescent step to wait, 20 steps would take 20 slices.
  SilentPeerRouter p;
  ASSERT_TRUE(p.router.quiescent());
  EXPECT_LT(p.time_steps(20), 20 * LiveRouter::kSliceMs);
}

TEST(Udp, BusyRouterStepOnAStoppedTransportIsOnePass) {
  // A stopped transport cannot block, so a busy step does one pass instead
  // of spinning out its slice.
  SilentPeerRouter p;
  p.router.enqueue_join(make_identities(3, 2)[1]);
  p.transport.stop();
  EXPECT_LT(p.time_steps(20), 20 * LiveRouter::kSliceMs);
  EXPECT_FALSE(p.router.quiescent());
}

TEST(Mesh, LoopbackStormConvergesWithExactRing) {
  MeshConfig cfg;
  cfg.backend = MeshBackend::kLoopback;
  cfg.routers = 4;
  cfg.hosts = 120;
  cfg.fingers = 8;  // keep frames small; byte parity has its own test
  cfg.seed = 7;
  MeshResult r = run_mesh(cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.joins_completed, cfg.hosts - 1);
  EXPECT_TRUE(r.audit.ok()) << (r.audit.errors.empty()
                                    ? "population mismatch"
                                    : r.audit.errors.front());
}

TEST(Mesh, LoopbackByteAccountingMatchesSection63) {
  // Zero impairment, 256 compact fingers: every JoinRequest frame must cost
  // exactly 54 + 48 + 256*6 = 1638 bytes -- the simulator's (and the
  // paper's) section 6.3 figure, now measured on the live path.
  MeshConfig cfg;
  cfg.backend = MeshBackend::kLoopback;
  cfg.routers = 3;
  cfg.hosts = 60;
  cfg.fingers = 256;
  cfg.seed = 11;
  MeshResult r = run_mesh(cfg);
  ASSERT_TRUE(r.converged);
  ASSERT_TRUE(r.audit.ok());

  wire::msg::JoinRequest jr;
  jr.fingers.resize(256);
  const std::size_t expect = wire::msg::control_wire_size(jr);
  EXPECT_EQ(expect, 1638u);

  obs::Registry& m = r.metrics;
  const std::uint64_t msgs = m.counter_value(m.counter("net.msgs.join_request"));
  const std::uint64_t bytes =
      m.counter_value(m.counter("net.bytes.join_request"));
  ASSERT_GT(msgs, 0u);
  EXPECT_EQ(bytes, msgs * expect);
  // Loopback is lossless: one JoinRequest per join (no retransmissions
  // unless a redirect re-walked; redirects resend, so msgs >= joins).
  EXPECT_GE(msgs, r.joins_completed);
}

TEST(Mesh, LoopbackDeterministicAcrossRuns) {
  MeshConfig cfg;
  cfg.backend = MeshBackend::kLoopback;
  cfg.routers = 3;
  cfg.hosts = 50;
  cfg.fingers = 4;
  cfg.seed = 23;
  MeshResult a = run_mesh(cfg);
  MeshResult b = run_mesh(cfg);
  EXPECT_EQ(a.metrics.to_json(2), b.metrics.to_json(2));
  EXPECT_EQ(a.elapsed_ms, b.elapsed_ms);
}

TEST(Mesh, UdpMeshConvergesUnderHeavyImpairment) {
  MeshConfig cfg;
  cfg.backend = MeshBackend::kUdp;
  cfg.routers = 2;
  cfg.hosts = 40;
  cfg.fingers = 8;
  cfg.seed = 5;
  cfg.conditions.loss = 0.25;
  cfg.conditions.duplicate = 0.10;
  cfg.conditions.corrupt = 0.05;
  cfg.conditions.jitter_ms = 2.0;
  cfg.deadline_ms = 60'000.0;
  MeshResult r = run_mesh(cfg);
  EXPECT_TRUE(r.converged) << "did not converge under impairment";
  EXPECT_EQ(r.joins_completed, cfg.hosts - 1);
  EXPECT_TRUE(r.audit.ok()) << (r.audit.errors.empty()
                                    ? "population mismatch"
                                    : r.audit.errors.front());
  // The impairment layer visibly acted and the retry machinery recovered.
  obs::Registry& m = r.metrics;
  EXPECT_GT(m.counter_value(m.counter("faults.dropped")), 0u);
  EXPECT_GT(m.counter_value(m.counter("net.retrans")), 0u);
}

TEST(Mesh, LoopbackLookupsAllHit) {
  MeshConfig cfg;
  cfg.backend = MeshBackend::kLoopback;
  cfg.routers = 3;
  cfg.hosts = 60;
  cfg.fingers = 8;
  cfg.seed = 29;
  cfg.lookups = 24;
  MeshResult r = run_mesh(cfg);
  ASSERT_TRUE(r.converged);
  ASSERT_TRUE(r.audit.ok());
  // Every probe targets a joined id over an exact ring: all must resolve,
  // and resolve correctly.
  EXPECT_EQ(r.lookups_completed, cfg.lookups);
  EXPECT_EQ(r.lookups_hit, r.lookups_completed);
  obs::Registry& m = r.metrics;
  EXPECT_EQ(m.counter_value(m.counter("net.lookups.completed")), cfg.lookups);
  EXPECT_EQ(m.counter_value(m.counter("net.lookups.hit")), cfg.lookups);
  // Lookup phase determinism rides the same virtual clock as the storm.
  MeshResult again = run_mesh(cfg);
  EXPECT_EQ(r.metrics.to_json(2), again.metrics.to_json(2));
}

TEST(Mesh, LoopbackCleanLeavePassesAudit) {
  MeshConfig cfg;
  cfg.backend = MeshBackend::kLoopback;
  cfg.routers = 4;
  cfg.hosts = 80;
  cfg.fingers = 8;
  cfg.seed = 31;
  cfg.leave_router = 2;
  MeshResult r = run_mesh(cfg);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(r.leave_completed);
  // The audit expects only survivors -- exact ring over the remaining ids,
  // with the departed router's vnodes gone and the boundaries repaired.
  EXPECT_TRUE(r.audit.ok()) << (r.audit.errors.empty()
                                    ? "population mismatch"
                                    : r.audit.errors.front());
  obs::Registry& m = r.metrics;
  EXPECT_GT(m.counter_value(m.counter("net.leave.relinks")), 0u);
}

TEST(Mesh, UdpLookupsAndLeaveUnderImpairment) {
  MeshConfig cfg;
  cfg.backend = MeshBackend::kUdp;
  cfg.routers = 2;
  cfg.hosts = 30;
  cfg.fingers = 8;
  cfg.seed = 37;
  cfg.lookups = 8;
  cfg.leave_router = 1;
  cfg.conditions.loss = 0.10;
  cfg.conditions.duplicate = 0.05;
  cfg.deadline_ms = 60'000.0;
  MeshResult r = run_mesh(cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.lookups_completed, cfg.lookups);
  EXPECT_EQ(r.lookups_hit, cfg.lookups);
  EXPECT_TRUE(r.leave_completed);
  EXPECT_TRUE(r.audit.ok()) << (r.audit.errors.empty()
                                    ? "population mismatch"
                                    : r.audit.errors.front());
}

TEST(Mesh, TransportCountersSurfaceInMergedRegistry) {
  // Satellite contract: dedup drops, ring overflows, and throttle waits are
  // first-class net.* counters, sampled live every step -- a duplicated
  // impaired run must show dedup activity in the merged registry.
  MeshConfig cfg;
  cfg.backend = MeshBackend::kUdp;
  cfg.routers = 2;
  cfg.hosts = 30;
  cfg.fingers = 8;
  cfg.seed = 41;
  cfg.conditions.duplicate = 0.30;
  cfg.deadline_ms = 60'000.0;
  MeshResult r = run_mesh(cfg);
  ASSERT_TRUE(r.converged);
  obs::Registry& m = r.metrics;
  EXPECT_GT(m.counter_value(m.counter("net.rx.dedup_dropped")), 0u);
  EXPECT_GT(m.counter_value(m.counter("net.tx.frames")), 0u);
  EXPECT_GT(m.counter_value(m.counter("net.rx.frames")), 0u);
  EXPECT_EQ(m.counter_value(m.counter("net.rx.ring_dropped")), 0u);
}

TEST(Mesh, AuditDetectsDefects) {
  // Hand-build a broken ring: two nodes whose successor pointers are fine
  // but one predecessor is wrong, plus a population shortfall.
  const auto ids = make_identities(3, 3);
  std::vector<std::pair<NodeId, RouterId>> expected;
  for (std::uint32_t h = 0; h < 3; ++h) expected.emplace_back(ids[h].id(), 0);
  std::sort(expected.begin(), expected.end());

  std::vector<std::pair<RouterId, Vnode>> collected;
  for (std::size_t i = 0; i < 2; ++i) {  // third node missing
    Vnode v;
    v.id = expected[i].first;
    v.succ = expected[(i + 1) % 3].first;
    v.succ_owner = 0;
    v.pred = v.id;  // wrong on purpose
    v.pred_owner = 0;
    collected.emplace_back(0, v);
  }
  const MeshAuditReport rep = audit_ring(collected, expected);
  EXPECT_FALSE(rep.ok());
  EXPECT_GT(rep.error_count, 0u);
  EXPECT_EQ(rep.population, 2u);
  EXPECT_EQ(rep.expected, 3u);
}

}  // namespace
}  // namespace rofl::net
