#include "proto/core.hpp"

#include <algorithm>
#include <string>

namespace rofl::proto {

namespace {

using wire::PacketType;
namespace msg = wire::msg;

/// The requester's router id rides in the packet source label.
NodeId router_label(RouterId r) { return NodeId::from_u64(r); }
RouterId label_router(const NodeId& id) {
  return static_cast<RouterId>(id.lo());
}

/// Synthetic compact-finger payload: the byte accounting only depends on the
/// entry count (6 bytes each), not the values, so fill deterministically.
std::vector<msg::CompactFinger> make_fingers(std::uint32_t n,
                                             const NodeId& target) {
  std::vector<msg::CompactFinger> out(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out[i].target_prefix = static_cast<std::uint32_t>(target.lo()) + i;
    out[i].home_as = static_cast<std::uint16_t>(i);
  }
  return out;
}

template <class Work>
Work* by_nonce(std::vector<Work>& pending, std::uint64_t nonce) {
  for (Work& w : pending) {
    if (w.nonce == nonce) return &w;
  }
  return nullptr;
}

}  // namespace

Core::Core(CoreConfig cfg, Env& env) : cfg_(cfg), env_(env) {
  obs::Registry& reg = env_.metrics();
  decode_failed_ = reg.counter("net.rx.decode_failed");
  retrans_ = reg.counter("net.retrans");
  acks_ = reg.counter("net.acks");
  redirects_ = reg.counter("net.redirects");
  locate_steps_ = reg.counter("net.locate.steps");
  joins_done_id_ = reg.counter("net.joins.completed");
  joins_rejected_ = reg.counter("net.joins.rejected");
  const auto per_type = [this, &reg](PacketType t, const char* name) {
    PerType p;
    p.msgs = reg.counter(std::string("net.msgs.") + name);
    p.bytes = reg.counter(std::string("net.bytes.") + name);
    per_type_[static_cast<std::uint8_t>(t)] = p;
  };
  per_type(PacketType::kLocate, "locate");
  per_type(PacketType::kJoinRequest, "join_request");
  per_type(PacketType::kJoinReply, "join_reply");
  per_type(PacketType::kPointerInstall, "pointer_install");
  per_type(PacketType::kKeepalive, "keepalive");
  per_type(PacketType::kRepair, "repair");
  lookups_done_id_ = reg.counter("net.lookups.completed");
  lookups_hit_id_ = reg.counter("net.lookups.hit");
  leave_relinks_ = reg.counter("net.leave.relinks");
  join_latency_ = reg.histogram(
      "net.join.latency_ms", obs::Histogram::exponential_bounds(1.0, 2.0, 16));
  lookup_latency_ = reg.histogram(
      "net.lookup.latency_ms",
      obs::Histogram::exponential_bounds(0.25, 2.0, 16));
}

void Core::seed(const Identity& first) {
  Vnode v;
  v.id = first.id();
  v.succ = v.id;
  v.succ_owner = cfg_.self;
  v.pred = v.id;
  v.pred_owner = cfg_.self;
  vnodes_[v.id] = v;
}

void Core::enqueue_join(Identity ident) {
  queued_.push_back(std::move(ident));
}

void Core::enqueue_lookup(const NodeId& target) {
  queued_lookups_.push_back(target);
}

void Core::send_control(RouterId dst, const msg::ControlMessage& m,
                        const NodeId& src, const NodeId& dst_id,
                        std::uint64_t trace_id, double now_ms) {
  std::vector<std::uint8_t> frame =
      msg::encode_control(m, src, dst_id, trace_id);
  if (frame.empty()) return;  // over a u16 wire limit; never transmit
  count(msg::type_of(m), frame.size());
  env_.send(dst, std::move(frame), now_ms);
}

void Core::backoff(Retry& r, double now_ms) {
  ++r.attempt;
  env_.metrics().add(retrans_);
  env_.note_retry();
  r.timeout_ms = cfg_.retry.next_timeout(r.timeout_ms);
  r.deadline_ms = now_ms + r.timeout_ms;
}

void Core::start_walk(Walk& w, RouterId at, double now_ms) {
  w.at = at;
  w.joining = false;
  w.retry = fresh_retry(now_ms);
  send_walk(w, now_ms);
}

void Core::send_walk(const Walk& w, double now_ms) {
  if (w.joining) {
    msg::JoinRequest jr;
    jr.nonce = w.nonce;
    jr.gateway = cfg_.self;
    jr.public_key = w.key;
    jr.fingers = make_fingers(cfg_.fingers, w.target);
    send_control(w.at, jr, router_label(cfg_.self), w.target, w.nonce,
                 now_ms);
    return;
  }
  msg::Locate loc;
  loc.target = w.target;
  loc.purpose = w.purpose;
  send_control(w.at, loc, router_label(cfg_.self), w.target, w.nonce, now_ms);
}

void Core::retry_walk(Walk& w, double now_ms) {
  if (now_ms < w.retry.deadline_ms) return;
  if (!w.joining && w.retry.attempt + 1 >= cfg_.retry.max_attempts) {
    // The walk may have died on a router this gateway cannot see: start
    // over from the bootstrap.
    env_.note_retry_exhausted();
    start_walk(w, cfg_.bootstrap, now_ms);
    return;
  }
  backoff(w.retry, now_ms);
  send_walk(w, now_ms);
}

void Core::post(RouterId dst, decltype(Outbound::msg) m, double now_ms) {
  const std::uint64_t nonce = next_nonce();
  const auto it =
      outbox_.emplace(nonce, Outbound{dst, std::move(m), fresh_retry(now_ms)})
          .first;
  send_outbound(nonce, it->second, now_ms);
}

void Core::send_outbound(std::uint64_t nonce, const Outbound& o,
                         double now_ms) {
  std::visit(
      [&](const auto& m) {
        send_control(o.dst, m, router_label(cfg_.self), m.subject, nonce,
                     now_ms);
      },
      o.msg);
}

void Core::ack(const wire::Header& hdr, const NodeId& subject, double now_ms) {
  msg::Keepalive ka;
  ka.seq = hdr.trace_id;
  send_control(label_router(hdr.source), ka, router_label(cfg_.self), subject,
               hdr.trace_id, now_ms);
}

Vnode* Core::best_predecessor(const NodeId& target) {
  const auto it = closest_predecessor(vnodes_, target);
  return it == vnodes_.end() ? nullptr : &it->second;
}

void Core::answer_locate(RouterId requester, const NodeId& target,
                         const NodeId& neighbor, RouterId neighbor_owner,
                         std::uint64_t trace_id, double now_ms) {
  msg::PointerInstall reply;
  reply.subject = target;
  reply.neighbor = neighbor;
  reply.neighbor_host = neighbor_owner;
  reply.op = 2;  // refill == locate answer
  send_control(requester, reply, router_label(cfg_.self), target, trace_id,
               now_ms);
}

void Core::on_locate(const wire::Header& hdr, const msg::Locate& m,
                     double now_ms) {
  const RouterId requester = label_router(hdr.source);
  if (vnodes_.empty()) {
    // Nothing to answer with yet; punt the walk at the bootstrap router
    // (it always holds the seed).  Self-forwarding would loop.
    if (cfg_.self != cfg_.bootstrap) {
      send_control(cfg_.bootstrap, m, hdr.source, hdr.destination,
                   hdr.trace_id, now_ms);
    }
    return;
  }
  if (m.purpose == 2 && vnodes_.contains(m.target)) {
    // Lookup probe for an id resident right here: answer with the target
    // itself -- the requester reads `neighbor == target` as a hit and
    // `neighbor_host` as the owning router.
    answer_locate(requester, m.target, m.target, cfg_.self, hdr.trace_id,
                  now_ms);
    return;
  }
  Vnode* p = best_predecessor(m.target);
  if (p == nullptr) {
    // The target is the only id here (single-vnode router owning the target
    // itself): its predecessor is recorded on the vnode.
    const auto it = vnodes_.find(m.target);
    if (it == vnodes_.end()) return;
    answer_locate(requester, m.target, it->second.pred,
                  it->second.pred_owner, hdr.trace_id, now_ms);
    return;
  }
  if (is_predecessor_of(p->id, m.target, p->succ)) {
    if (m.purpose == 2) {
      // Lookup termination at the predecessor: its successor pointer is the
      // resolution.  succ == target resolves the owner (hit); anything else
      // proves the id is not in the ring (miss).
      answer_locate(requester, m.target, p->succ, p->succ_owner, hdr.trace_id,
                    now_ms);
    } else {
      answer_locate(requester, m.target, p->id, cfg_.self, hdr.trace_id,
                    now_ms);
    }
    return;
  }
  // Forward the walk greedily; the source label (requester) is preserved so
  // the eventual answer goes straight back.
  env_.metrics().add(locate_steps_);
  send_control(p->succ_owner, m, hdr.source, hdr.destination, hdr.trace_id,
               now_ms);
}

void Core::on_join_request(const wire::Header& hdr, const msg::JoinRequest& m,
                           double now_ms) {
  const RouterId requester = m.gateway;
  const NodeId target = hdr.destination;
  obs::Registry& reg = env_.metrics();
  // Self-certification (section 2.1): the label must be the hash of the
  // carried public key.
  if (derive_id(m.public_key) != target) {
    reg.add(joins_rejected_);
    return;
  }
  // Idempotent re-reply: a retransmitted JoinRequest for an id we already
  // spliced gets the cached JoinReply verbatim.
  const auto cached = join_cache_.find(target);
  if (cached != join_cache_.end()) {
    count(PacketType::kJoinReply, cached->second.size());
    env_.send(requester, cached->second, now_ms);
    return;
  }
  Vnode* p = best_predecessor(target);
  if (p == nullptr || !is_predecessor_of(p->id, target, p->succ)) {
    // The ring moved under the walk: redirect the gateway to keep walking
    // from the closest point we do know.
    msg::JoinReply redirect;
    if (p != nullptr) {
      redirect.predecessor = p->succ;
      redirect.predecessor_host = p->succ_owner;
    } else {
      redirect.predecessor_host = cfg_.bootstrap;
    }
    send_control(requester, redirect, router_label(cfg_.self), target,
                 hdr.trace_id, now_ms);
    return;
  }
  // Splice target between p and p.succ; the reply carries p's (singleton)
  // successor view through the same constructor the simulator's splice uses.
  const RingPtr old_succ{p->succ, p->succ_owner};
  p->succ = target;
  p->succ_owner = requester;

  const msg::JoinReply reply =
      make_join_reply(p->id, cfg_.self, std::span(&old_succ, 1), target);
  std::vector<std::uint8_t> frame = msg::encode_control(
      reply, router_label(cfg_.self), target, hdr.trace_id);
  count(PacketType::kJoinReply, frame.size());
  env_.send(requester, frame, now_ms);
  join_cache_[target] = std::move(frame);

  // Tell the old successor its predecessor changed (reliable, acked).  No
  // self-delivery shortcut even when the old successor is local: the subject
  // vnode may not be resident yet (its JoinReply can still sit in this
  // router's own transport queue), so the install takes the same
  // retried-until-acked path as the remote case.
  post(old_succ.owner,
       msg::PointerInstall{.subject = old_succ.id, .neighbor = target,
                           .neighbor_host = requester, .op = 1},
       now_ms);
}

void Core::on_join_reply(const wire::Header& hdr, const msg::JoinReply& m,
                         double now_ms) {
  // Only the router the JoinRequest went to may answer it: a reply from any
  // other router answers an earlier request and is stale.  Accepting it could
  // walk an already-spliced id to a second splicer.
  Walk* w = by_nonce(joins_, hdr.trace_id);
  if (w == nullptr || !w->joining || label_router(hdr.source) != w->at) {
    return;
  }
  if (m.successors.empty()) {
    // Redirect: re-locate from the router the splicer pointed us at.
    env_.metrics().add(redirects_);
    start_walk(*w, static_cast<RouterId>(m.predecessor_host), now_ms);
    return;
  }
  Vnode v;
  v.id = w->target;
  v.succ = m.successors.front().target;
  v.succ_owner = static_cast<RouterId>(m.successors.front().home_as);
  v.pred = m.predecessor;
  v.pred_owner = static_cast<RouterId>(m.predecessor_host);
  vnodes_[v.id] = v;
  ++joins_completed_;
  env_.metrics().add(joins_done_id_);
  env_.metrics().observe(join_latency_, now_ms - w->started_ms);
  joins_.erase(joins_.begin() + (w - joins_.data()));
}

void Core::on_pointer_install(const wire::Header& hdr,
                              const msg::PointerInstall& m,
                              double now_ms) {
  if (m.op == 2) {  // locate answer (join walk or lookup probe)
    if (Walk* w = by_nonce(joins_, hdr.trace_id)) {
      if (w->joining) return;  // stale
      w->joining = true;
      w->at = m.neighbor_host;
      w->retry = fresh_retry(now_ms);
      send_walk(*w, now_ms);
      return;
    }
    Walk* l = by_nonce(lookups_, hdr.trace_id);
    if (l == nullptr) return;  // stale
    ++lookups_completed_;
    obs::Registry& reg = env_.metrics();
    reg.add(lookups_done_id_);
    if (m.neighbor == l->target) {
      ++lookups_hit_;
      reg.add(lookups_hit_id_);
    }
    reg.observe(lookup_latency_, now_ms - l->started_ms);
    lookups_.erase(lookups_.begin() + (l - lookups_.data()));
    return;
  }
  if (m.op == 1) {  // set-predecessor from a splicer
    // Not resident yet: the subject's own JoinReply may still be in flight
    // to this gateway.  Stay silent -- the splicer's retry loop redelivers
    // until the vnode exists and the install can actually apply.
    const auto it = vnodes_.find(m.subject);
    if (it == vnodes_.end()) return;
    Vnode& v = it->second;
    // The Chord notify rule (proto::accept_notify): only a strictly closer
    // predecessor may replace the current one, so stale (reordered/delayed)
    // installs cannot regress the pointer.
    if (accept_notify(v.id, v.pred, m.neighbor)) {
      v.pred = m.neighbor;
      v.pred_owner = m.neighbor_host;
    }
    // Ack regardless of whether the notify rule applied it -- the sender
    // only needs to know the install arrived (a stale install is *complete*,
    // not lost).
    ack(hdr, m.subject, now_ms);
  }
}

void Core::on_repair(const wire::Header& hdr, const msg::Repair& m,
                     double now_ms) {
  // A departing neighbor's relink: re-point this survivor's successor
  // (op 0) or predecessor (op 1) across the departing run.  Departure is
  // serialized after convergence, so the apply is unconditional; duplicate
  // retransmissions re-apply the same value (idempotent).
  const auto it = vnodes_.find(m.subject);
  if (it == vnodes_.end()) return;  // not resident; the sender retries
  Vnode& v = it->second;
  if (m.op == 0) {
    v.succ = m.neighbor;
    v.succ_owner = m.neighbor_host;
  } else if (m.op == 1) {
    v.pred = m.neighbor;
    v.pred_owner = m.neighbor_host;
  } else {
    return;  // unknown relink op: ignore (no ack, sender gives up loudly)
  }
  ack(hdr, m.subject, now_ms);
}

void Core::on_keepalive(const msg::Keepalive& m) {
  if (outbox_.erase(m.seq) == 0) return;
  env_.metrics().add(acks_);
  if (leaving_ && outbox_.empty()) {
    // Every surviving boundary is repointed; this router's ids are no
    // longer part of the ring anyone routes by.
    vnodes_.clear();
    departed_ = true;
  }
}

void Core::begin_leave(double now_ms) {
  if (leaving_) return;
  leaving_ = true;
  const std::vector<LeaveRelink> boundary = compute_leave_relinks(vnodes_);
  if (boundary.empty()) {
    // No survivor to notify (the whole ring was resident here, or nothing
    // was): the departure is complete immediately.
    vnodes_.clear();
    departed_ = true;
    return;
  }
  for (const LeaveRelink& r : boundary) {
    env_.metrics().add(leave_relinks_, 2);
    // Surviving successor's predecessor jumps back over the departing run...
    post(r.succ.owner,
         msg::Repair{.subject = r.succ.id, .neighbor = r.pred.id,
                     .neighbor_host = r.pred.owner, .op = 1},
         now_ms);
    // ...and the surviving predecessor's successor jumps forward over it.
    post(r.pred.owner,
         msg::Repair{.subject = r.pred.id, .neighbor = r.succ.id,
                     .neighbor_host = r.succ.owner, .op = 0},
         now_ms);
  }
}

void Core::on_frame(std::span<const std::uint8_t> frame, double now_ms) {
  const auto f = msg::decode_frame(frame);
  if (!f.has_value()) {
    // CRC-rejected (impairment corruption) or otherwise undecodable: to the
    // protocol this is loss; retries recover.
    env_.metrics().add(decode_failed_);
    return;
  }
  std::visit(
      [&](const auto& mm) {
        using T = std::decay_t<decltype(mm)>;
        if constexpr (std::is_same_v<T, msg::Locate>) {
          on_locate(f->header, mm, now_ms);
        } else if constexpr (std::is_same_v<T, msg::JoinRequest>) {
          on_join_request(f->header, mm, now_ms);
        } else if constexpr (std::is_same_v<T, msg::JoinReply>) {
          on_join_reply(f->header, mm, now_ms);
        } else if constexpr (std::is_same_v<T, msg::PointerInstall>) {
          on_pointer_install(f->header, mm, now_ms);
        } else if constexpr (std::is_same_v<T, msg::Repair>) {
          on_repair(f->header, mm, now_ms);
        } else if constexpr (std::is_same_v<T, msg::Keepalive>) {
          on_keepalive(mm);
        }
        // Other control types never appear in the live protocol.
      },
      f->message);
}

void Core::tick(double now_ms) {
  // Start queued joins up to the outstanding cap.
  while (joins_.size() < cfg_.max_outstanding && !queued_.empty()) {
    const Identity& ident = queued_.front();
    joins_.push_back({.target = ident.id(), .nonce = next_nonce(),
                      .started_ms = now_ms, .key = ident.public_key()});
    queued_.pop_front();
    start_walk(joins_.back(), cfg_.bootstrap, now_ms);
  }
  // And queued lookups; probes start at this router -- the natural
  // data-plane entry point -- and walk greedily from local ring state.
  while (lookups_.size() < cfg_.max_outstanding && !queued_lookups_.empty()) {
    lookups_.push_back({.target = queued_lookups_.front(),
                        .nonce = next_nonce(), .purpose = 2,
                        .started_ms = now_ms});
    queued_lookups_.pop_front();
    start_walk(lookups_.back(), cfg_.self, now_ms);
  }

  // Retry timers.
  for (Walk& w : joins_) retry_walk(w, now_ms);
  for (Walk& w : lookups_) retry_walk(w, now_ms);
  for (auto& [nonce, o] : outbox_) {
    if (now_ms < o.retry.deadline_ms) continue;
    backoff(o.retry, now_ms);
    send_outbound(nonce, o, now_ms);
  }
}

void Core::debug_dump(std::ostream& os) const {
  os << "router " << cfg_.self << ": vnodes=" << vnodes_.size()
     << " queued=" << queued_.size() << " joins=" << joins_.size()
     << " lookups=" << lookups_.size() << " outbox=" << outbox_.size()
     << (leaving_ ? (departed_ ? " departed" : " leaving") : "") << "\n";
  const auto dump_walks = [&os](const char* kind,
                                const std::vector<Walk>& walks) {
    for (const Walk& w : walks) {
      os << "  " << kind << " nonce=" << std::hex << w.nonce << std::dec
         << " target=" << w.target.to_string().substr(0, 8)
         << (w.joining ? " JOINING to=" : " LOCATING at=") << w.at
         << " attempt=" << w.retry.attempt
         << " timeout=" << w.retry.timeout_ms << "\n";
    }
  };
  dump_walks("join", joins_);
  dump_walks("lookup", lookups_);
  for (const auto& [nonce, o] : outbox_) {
    const NodeId& subject =
        std::visit([](const auto& m) -> const NodeId& { return m.subject; },
                   o.msg);
    os << "  " << (o.msg.index() == 0 ? "install" : "relink") << " nonce="
       << std::hex << nonce << std::dec << " dst=" << o.dst
       << " subject=" << subject.to_string().substr(0, 8)
       << " attempt=" << o.retry.attempt << "\n";
  }
}

}  // namespace rofl::proto
