#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <sstream>

namespace rofl::obs {

std::string_view to_string(HopKind k) {
  switch (k) {
    case HopKind::kStart: return "start";
    case HopKind::kRingPointer: return "ring-pointer";
    case HopKind::kCachePointer: return "cache-pointer";
    case HopKind::kEphemeralGateway: return "ephemeral-gw";
    case HopKind::kForward: return "forward";
    case HopKind::kStalePointer: return "stale-pointer";
    case HopKind::kLevelEscalate: return "level-escalate";
    case HopKind::kPeeringCross: return "peering-cross";
    case HopKind::kBootstrap: return "bootstrap";
    case HopKind::kDeliver: return "deliver";
    case HopKind::kDrop: return "drop";
    case HopKind::kFaultDrop: return "fault-drop";
    case HopKind::kAuditViolation: return "audit-violation";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  assert(capacity > 0);
  ring_.resize(capacity);
}

namespace {

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

void FlightRecorder::record(HopRecord r) {
  r.seq = next_seq_++;
  // Digest everything except seq (a recorder-global counter that depends on
  // interleaving) so identical hop sets digest identically however the
  // records were spread across recorders.
  std::uint64_t h = 0xCBF29CE484222325ull;
  h = fnv1a_bytes(h, &r.trace_id, sizeof(r.trace_id));
  h = fnv1a_bytes(h, &r.t_ms, sizeof(r.t_ms));
  h = fnv1a_bytes(h, &r.domain, sizeof(r.domain));
  h = fnv1a_bytes(h, &r.node, sizeof(r.node));
  h = fnv1a_bytes(h, &r.category, sizeof(r.category));
  h = fnv1a_bytes(h, &r.kind, sizeof(r.kind));
  h = fnv1a_bytes(h, &r.frame_bytes, sizeof(r.frame_bytes));
  const std::uint64_t chased_hi = r.chased.hi();
  const std::uint64_t chased_lo = r.chased.lo();
  h = fnv1a_bytes(h, &chased_hi, sizeof(chased_hi));
  h = fnv1a_bytes(h, &chased_lo, sizeof(chased_lo));
  content_digest_ += h;  // wrapping add: order-independent combination
  ring_[head_] = std::move(r);
  if (++head_ == ring_.size()) {
    head_ = 0;
    full_ = true;
  }
}

std::vector<HopRecord> FlightRecorder::all() const {
  std::vector<HopRecord> out;
  out.reserve(size());
  if (full_) {
    out.insert(out.end(), ring_.begin() + static_cast<long>(head_), ring_.end());
  }
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<long>(head_));
  return out;
}

std::vector<HopRecord> FlightRecorder::trace(std::uint64_t trace_id) const {
  std::vector<HopRecord> out;
  for (const HopRecord& r : all()) {
    if (r.trace_id == trace_id) out.push_back(r);
  }
  return out;
}

std::string FlightRecorder::format_trace(std::uint64_t trace_id) const {
  const std::vector<HopRecord> hops = trace(trace_id);
  std::ostringstream os;
  os << "trace " << trace_id << " (" << hops.size() << " hops):\n";
  std::size_t i = 0;
  for (const HopRecord& h : hops) {
    os << "  " << std::setw(3) << i++ << "  "
       << (h.domain == HopDomain::kIntra ? "[intra]  router " : "[inter]  AS ")
       << std::setw(5) << h.node << "  " << std::left << std::setw(14)
       << to_string(h.kind) << std::right << " " << std::setw(9)
       << category_name(h.category) << "  t=" << h.t_ms << "ms";
    switch (h.kind) {
      case HopKind::kStart:
      case HopKind::kDeliver:
      case HopKind::kDrop:
      case HopKind::kFaultDrop:
      case HopKind::kAuditViolation:
        os << "  dest=" << h.chased;
        break;
      default:
        os << "  via=" << h.chased;
        break;
    }
    if (h.frame_bytes > 0) os << "  frame=" << h.frame_bytes << "B";
    os << "\n";
  }
  return os.str();
}

void FlightRecorder::clear() {
  head_ = 0;
  full_ = false;
}

}  // namespace rofl::obs
