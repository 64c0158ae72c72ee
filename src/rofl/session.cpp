#include "rofl/session.hpp"

#include "rofl/sim_wire.hpp"

namespace rofl::intra {

SessionManager::SessionManager(Network& net, SessionConfig cfg)
    : net_(&net), cfg_(cfg) {
  obs::Registry& m = net_->simulator().metrics();
  keepalives_id_ = m.counter("session.keepalives");
  timeouts_id_ = m.counter("session.timeouts");
  keepalives_lost_id_ = m.counter("session.keepalives_lost");
  rehomed_id_ = m.counter("session.rehomed");
  orphaned_id_ = m.counter("session.orphaned");
}

void SessionManager::track(const NodeId& id, std::function<bool()> alive) {
  // A retrack must advance the epoch past every timer ever scheduled for
  // this ID.  (insert_or_assign with a fresh Session would reset the stored
  // epoch to 0 before the increment, so the third track of the same ID would
  // reuse epoch 1 while a timer from the second track's epoch 1 could still
  // be pending.)
  const auto prev = sessions_.find(id);
  const std::uint64_t epoch =
      prev == sessions_.end() ? 0 : prev->second.epoch + 1;
  Session s;
  s.alive = std::move(alive);
  s.epoch = epoch;
  s.gateway = net_->hosting_router(id).value_or(graph::kInvalidNode);
  sessions_.insert_or_assign(id, std::move(s));
  schedule_tick(id, epoch);
}

void SessionManager::untrack(const NodeId& id) { sessions_.erase(id); }

void SessionManager::schedule_tick(const NodeId& id, std::uint64_t epoch) {
  net_->simulator().schedule_in(
      cfg_.keepalive_interval_ms,
      [this, id, epoch] { tick(id, epoch); });
}

void SessionManager::tick(const NodeId& id, std::uint64_t epoch) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second.epoch != epoch) return;
  Session& s = it->second;

  // Where does the ID live now?  A gateway crash between two ticks either
  // erased the ID (no auto-rejoin) or moved it to a failover router; both
  // used to be indistinguishable from a silent host, so a timer surviving
  // the crash could fire a spurious host-failure teardown against ring
  // state the repair machinery had already rebuilt.
  const auto home = net_->hosting_router(id);
  if (!home.has_value()) {
    // Orphaned: the ID left the ring underneath the session.  There is
    // nothing left to tear down; the session simply retires.
    ++orphaned_;
    net_->simulator().metrics().add(orphaned_id_);
    sessions_.erase(it);
    return;
  }
  if (*home != s.gateway) {
    // Rehomed by failover: the session migrates to the new gateway and the
    // miss count restarts -- misses charged against the dead gateway say
    // nothing about the host.
    s.gateway = *home;
    s.missed = 0;
    ++rehomed_;
    net_->simulator().metrics().add(rehomed_id_);
  }

  bool missed = true;
  if (s.alive()) {
    // The host emits a keepalive over its access link as an encoded frame.
    // encode_control fails loudly (empty vector) on oversized fields; a
    // keepalive cannot overflow, but the contract is checked anyway -- a
    // zero-byte frame must never be counted as sent.
    const std::vector<std::uint8_t> frame = wire::msg::encode_control(
        wire::msg::Keepalive{.seq = s.missed + 1}, id, id);
    if (!frame.empty()) {
      net_->simulator().counters().add(sim::MsgCategory::kControl,
                                       wire::hop_packets(frame.size()));
      net_->simulator().counters().add_bytes(sim::MsgCategory::kControl,
                                             frame.size());
      ++keepalives_;
      net_->simulator().metrics().add(keepalives_id_);
      // A lossy access link can eat the keepalive -- or garble it, which
      // the gateway's CRC check turns into the same thing.  The gateway
      // cannot tell either from a dead host, so both count as one miss;
      // only miss_limit consecutive losses look like a failure.  The
      // keepalive is never resent: the miss limit is its retry budget.
      sim::FaultInjector* inj = net_->fault_injector();
      const bool delivered =
          inj == nullptr || !inj->message_faults_enabled() ||
          (!inj->on_access_link().dropped &&
           simwire::receive(frame, inj).has_value());
      if (!delivered) {
        ++keepalives_lost_;
        net_->simulator().metrics().add(keepalives_lost_id_);
      } else {
        s.missed = 0;
        missed = false;
      }
    }
  }
  if (missed && ++s.missed >= cfg_.miss_limit) {
    // Session timeout: the gateway runs the section-3.2 host-failure
    // machinery (teardowns + directed flood).
    ++timeouts_;
    net_->simulator().metrics().add(timeouts_id_);
    sessions_.erase(it);
    (void)net_->fail_host(id);
    return;
  }
  schedule_tick(id, epoch);
}

}  // namespace rofl::intra
