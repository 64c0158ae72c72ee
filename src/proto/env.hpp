// env.hpp -- the narrow waist between the protocol core and its drivers.
//
// proto::Core is sans-I/O: it consumes decoded wire::ControlMessages plus
// the clock value its driver passes in, mutates its own state, and emits
// every externally visible effect through this interface.  A driver
// implements four functions and nothing else:
//
//   send        transmit one already-encoded frame to a router (the core
//               does the encoding and the per-type byte accounting; the
//               driver owns datagrams, threads, and impairment).
//   metrics     the obs::Registry the core registers its counters and
//               histograms in, identically on every router (registration
//               order is the cross-router merge contract).
//   note_retry, note_retry_exhausted
//               retry telemetry for the driver's sim::FaultInjector, so
//               fault accounting matches the simulator's.
//
// There is no clock and no rng.  Every entry point takes now_ms (virtual on
// the loopback mesh, wall on UDP; the core cannot tell), and drivers call
// tick() every step to fire due retries.  Nonces are derived from (router
// id, counter), as intra::Network derives its join nonces.
//
// DESIGN.md section 16 documents the effect model and the equivalence
// contract this seam carries.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace rofl::proto {

using RouterId = std::uint32_t;

class Env {
 public:
  virtual ~Env() = default;

  /// Transmits one encoded control frame to `dst`.  The core never hands
  /// over an empty frame (encode failures are swallowed as the codec layer
  /// demands) and never retains a reference to the buffer.
  virtual void send(RouterId dst, std::vector<std::uint8_t> frame,
                    double now_ms) = 0;

  /// The registry protocol metrics live in.  Called once, from the core's
  /// constructor, before any traffic.
  virtual obs::Registry& metrics() = 0;

  /// Retry telemetry, forwarded to the driver's fault/retry accounting.
  virtual void note_retry() = 0;
  virtual void note_retry_exhausted() = 0;
};

}  // namespace rofl::proto
