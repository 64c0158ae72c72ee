#include "sim/faults.hpp"

#include <utility>

namespace rofl::sim {

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed,
                             obs::Registry* registry)
    : plan_(std::move(plan)),
      message_faults_(plan_.defaults.active()),
      corruption_(plan_.defaults.corrupt > 0.0),
      rng_(seed),
      registry_(registry) {
  dropped_id_ = registry_->counter("faults.dropped");
  duplicated_id_ = registry_->counter("faults.duplicated");
  delayed_id_ = registry_->counter("faults.delayed");
  corrupted_id_ = registry_->counter("faults.corrupted");
  retries_id_ = registry_->counter("faults.retries");
  exhausted_id_ = registry_->counter("faults.retry_exhausted");
  flaps_id_ = registry_->counter("faults.link_flaps");
  crashes_id_ = registry_->counter("faults.crashes");
}

FaultDecision FaultInjector::decide(const NetworkConditions& c) {
  FaultDecision d;
  // Zero-valued knobs consume no randomness, so enabling e.g. loss alone
  // draws one uniform per transmission regardless of the other knobs.
  if (c.loss > 0.0 && rng_.chance(c.loss)) {
    d.dropped = true;
    registry_->add(dropped_id_);
    return d;  // the copy died on the wire; nothing else happens to it
  }
  if (c.duplicate > 0.0 && rng_.chance(c.duplicate)) {
    d.copies = 2;
    registry_->add(duplicated_id_);
  }
  if (c.jitter_ms > 0.0) {
    d.extra_latency_ms = rng_.uniform() * c.jitter_ms;
    registry_->add(delayed_id_);
  }
  return d;
}

bool FaultInjector::maybe_corrupt_frame(std::vector<std::uint8_t>& frame) {
  const double p = plan_.defaults.corrupt;
  if (p <= 0.0 || frame.empty()) return false;
  if (!rng_.chance(p)) return false;
  // Flip a burst of 1-3 consecutive bits at a uniform position (wrapping).
  // A burst touches distinct bits, and CRC-32 detects every burst error up
  // to 32 bits, so a corrupted frame is guaranteed to fail decode -- never
  // to cancel itself out and slip through.
  const std::size_t flips = 1 + rng_.index(3);
  const std::size_t total_bits = frame.size() * 8;
  const std::size_t start = rng_.index(total_bits);
  for (std::size_t i = 0; i < flips; ++i) {
    const std::size_t bit = (start + i) % total_bits;
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  registry_->add(corrupted_id_);
  return true;
}

PathDecision FaultInjector::on_path(std::uint64_t transmissions) {
  PathDecision p;
  for (std::uint64_t i = 0; i < transmissions; ++i) {
    const FaultDecision d = decide(plan_.defaults);
    p.transmissions += d.copies;
    p.extra_latency_ms += d.extra_latency_ms;
    if (d.dropped) {
      p.dropped = true;
      break;  // downstream legs are never transmitted
    }
  }
  return p;
}

}  // namespace rofl::sim
