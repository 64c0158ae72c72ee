// sim_wire.hpp -- the simulated wire: how every simulator layer sends one
// control frame.
//
// intra::Network, inter::InterNetwork and the host sessions account their
// control traffic synchronously, but each message they send is a real
// encoded frame, and all three follow the same rules:
//   * pricing   -- wire::hop_packets: ceil(bytes / MTU) packets on every
//                  physical hop the frame crosses, and its bytes per hop;
//   * receiving -- receive(): with a fault injector the frame may be garbled
//                  in flight, and the receiver decodes it CRC-verified, so a
//                  corrupted frame arrives as a loss;
//   * retrying  -- retry(): a lost attempt costs the retransmission timeout
//                  of sim::RetryPolicy, which backs off, until an attempt
//                  gets through or the attempts run out.
// The layers differ only in how one attempt crosses the network: link by
// link over the IGP path (intra::Network::carry), a count of AS-level legs
// (InterNetwork), or one access link (SessionManager).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/faults.hpp"
#include "wire/messages.hpp"

namespace rofl::simwire {

/// Encodes `m` from `src` to `dst`.  A message the codec refuses (a field
/// over its wire limit) comes back empty and is counted on `failures`: a
/// zero-byte frame is never transmitted, and resending cannot help it.
[[nodiscard]] std::vector<std::uint8_t> encode(
    const wire::msg::ControlMessage& m, const NodeId& src, const NodeId& dst,
    obs::Registry& metrics, obs::MetricId failures);

/// The receiving end of a frame that reached its destination.  With
/// `faults` installed and corruption on, the injector may flip bits in
/// flight (its one corruption draw); the receiver then decodes CRC-verified.
/// nullopt means the receiver rejected the frame, which its sender cannot
/// tell from a loss; the caller counts the rejection on its own counter.
[[nodiscard]] std::optional<wire::msg::ControlMessage> receive(
    const std::vector<std::uint8_t>& frame, sim::FaultInjector* faults);

/// How one attempt of a frame ended.
enum class Delivery {
  kDelivered,
  kLost,    ///< dropped or rejected on the way: a resend may get through
  kNoPath,  ///< no route to the receiver: a resend cannot help
};

/// What a retried exchange came to: how its last attempt ended, and the
/// timeouts its lost attempts waited out, summed in attempt order.
struct Retried {
  Delivery outcome = Delivery::kLost;
  double waited_ms = 0.0;
};

/// The one retransmission rule of the simulators.  Runs `attempt` (a
/// callable returning Delivery) until it delivers, at most
/// `policy.max_attempts` times and at least once.  Every lost attempt waits
/// out the current timeout, which then backs off; a missing path ends the
/// exchange at once.  Resends and exhaustion land on the injector's
/// faults.retries and faults.retry_exhausted counters.
template <typename Attempt>
Retried retry(const sim::RetryPolicy& policy, sim::FaultInjector& faults,
              Attempt&& attempt) {
  Retried r;
  const unsigned attempts = std::max(1u, policy.max_attempts);
  double timeout = policy.timeout_ms;
  for (unsigned i = 0; i < attempts; ++i) {
    if (i > 0) faults.note_retry();
    r.outcome = attempt();
    if (r.outcome != Delivery::kLost) return r;
    r.waited_ms += timeout;
    timeout = policy.next_timeout(timeout);
  }
  faults.note_retry_exhausted();
  return r;
}

}  // namespace rofl::simwire
