#include "rofl/sim_wire.hpp"

#include <cassert>

namespace rofl::simwire {

std::vector<std::uint8_t> encode(const wire::msg::ControlMessage& m,
                                 const NodeId& src, const NodeId& dst,
                                 obs::Registry& metrics,
                                 obs::MetricId failures) {
  std::vector<std::uint8_t> frame = wire::msg::encode_control(m, src, dst);
  if (frame.empty()) metrics.add(failures);
  return frame;
}

std::optional<wire::msg::ControlMessage> receive(
    const std::vector<std::uint8_t>& frame, sim::FaultInjector* faults) {
  if (faults != nullptr && faults->corruption_enabled()) {
    std::vector<std::uint8_t> garbled = frame;
    if (faults->maybe_corrupt_frame(garbled)) {
      // CRC-32 detects every burst of up to 32 bits, and the injector flips
      // at most 3, so a garbled frame never decodes; were one to slip
      // through, acting on it would be silent state corruption.
      assert(!wire::msg::decode_control(garbled).has_value());
      return std::nullopt;
    }
  }
  std::optional<wire::msg::ControlMessage> m = wire::msg::decode_control(frame);
  assert(m.has_value());  // a frame as encoded must round-trip
  return m;
}

}  // namespace rofl::simwire
