#include "rofl/network.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

#include "proto/ring.hpp"
#include "rofl/sim_wire.hpp"

namespace rofl::intra {

namespace {

NeighborPtr neighbor(const proto::RingPtr& p) { return {p.id, p.owner}; }

/// Member i's canonical successor group for group bound k.
std::vector<NeighborPtr> canonical_group(const proto::CanonicalRing& ring,
                                         std::size_t i, std::size_t k) {
  std::vector<NeighborPtr> group;
  for (std::size_t s = 1; s <= ring.group_size(k); ++s) {
    group.push_back(neighbor(ring.successor(i, s)));
  }
  return group;
}

}  // namespace

Network::Network(const graph::IspTopology* topo, Config cfg, std::uint64_t seed)
    : topo_(topo), cfg_(cfg), rng_(seed) {
  assert(topo != nullptr);
  // The graph is owned by the topology; LinkStateMap mutates its up/down
  // flags through this pointer.
  map_ = std::make_unique<linkstate::LinkStateMap>(
      const_cast<graph::Graph*>(&topo_->graph), &sim_);

  joins_id_ = sim_.metrics().counter("rofl.joins");
  routes_id_ = sim_.metrics().counter("rofl.routes");
  delivered_id_ = sim_.metrics().counter("rofl.routes.delivered");
  stale_ptrs_id_ = sim_.metrics().counter("rofl.stale_pointers");
  encode_failures_id_ = sim_.metrics().counter("rofl.encode_failures");
  codec_rejected_id_ = sim_.metrics().counter("rofl.codec_rejected");
  // Frame sizes the hot paths charge come from the encoder, not constants:
  // a bare data packet and a minimal teardown, measured once here.
  data_frame_bytes_ = wire::Packet{}.wire_size();
  teardown_frame_bytes_ =
      wire::msg::control_wire_size(wire::msg::Teardown{});

  routers_.reserve(topo_->router_count());
  for (NodeIndex i = 0; i < topo_->router_count(); ++i) {
    routers_.push_back(
        std::make_unique<Router>(i, Identity::generate(rng_), cfg_.cache_capacity));
  }

  // Failure notifications from the link-state substrate: caches drop entries
  // whose source routes die (section 2.2 "Recovering" / 3.2 link failure).
  map_->subscribe([this](const linkstate::TopologyEvent& ev) {
    using Kind = linkstate::TopologyEvent::Kind;
    if (ev.kind == Kind::kNodeDown) {
      for (auto& r : routers_) r->cache().invalidate_through_router(ev.a);
    } else if (ev.kind == Kind::kLinkDown) {
      for (auto& r : routers_) r->cache().invalidate_through_link(ev.a, ev.b);
    }
  });

  bootstrap_router_ring();
}

void Network::bootstrap_router_ring() {
  // Section 3.1: each router starts a default virtual node holding the
  // router-ID; the default vnode joins by flooding, so after bring-up the
  // router-ID ring is complete.  We materialise the steady state directly
  // and, like the paper, charge nothing for router bring-up.  A lone
  // router's default vnode is a self-loop, as proto::Core::seed() installs
  // on the live side -- the ring rules then make it everything's
  // predecessor.
  std::vector<proto::RingPtr> members;
  members.reserve(routers_.size());
  for (const auto& r : routers_) {
    members.push_back({r->router_id(), r->index()});
  }
  const proto::CanonicalRing ring(std::move(members));
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const auto& [id, host] = ring[i];
    VirtualNode vn;
    vn.id = id;
    vn.pub = routers_[host]->identity().public_key();
    vn.is_default = true;
    vn.successors = canonical_group(ring, i, cfg_.successor_group);
    vn.predecessor = neighbor(ring.predecessor(i));
    routers_[host]->add_vnode(std::move(vn));
    directory_[id] = host;
  }
}

std::vector<proto::CanonicalRing> Network::component_rings() const {
  const auto comp = topo_->graph.components();
  std::map<NodeIndex, std::vector<proto::RingPtr>> members;
  for (const auto& [id, host] : directory_) {
    if (!topo_->graph.node_up(host)) continue;
    const auto cls = host_class_.find(id);
    if (cls != host_class_.end() && cls->second == HostClass::kEphemeral) {
      continue;
    }
    members[comp[host]].push_back({id, host});
  }
  std::vector<proto::CanonicalRing> rings;
  rings.reserve(members.size());
  for (auto& [component, m] : members) rings.emplace_back(std::move(m));
  return rings;
}

Network::Exchange Network::carry(NodeIndex a, NodeIndex b,
                                 sim::MsgCategory cat,
                                 const std::vector<std::uint8_t>& frame) {
  Exchange ex;
  Transfer& t = ex.t;
  if (a == b) {
    t.path = {a};
  } else {
    t.path = map_->path(a, b);
    if (t.path.empty()) return ex;
    const std::uint64_t packets = wire::hop_packets(frame.size());
    if (faults_ == nullptr || !faults_->message_faults_enabled()) {
      // Nothing can happen to the frame on the way: charge every hop at
      // once, at the path latency the SPF table holds.
      const std::uint64_t hops = t.path.size() - 1;
      t.messages = hops * packets;
      t.latency_ms = map_->latency_ms(a, b).value_or(0.0);
      sim_.counters().add(cat, t.messages);
      sim_.counters().add_bytes(cat, hops * frame.size());
    } else {
      // Link by link: a leg may drop the frame (the legs sent up to the drop
      // stay charged), duplicate it (the copy is charged and dies at the
      // next router) or delay it.  One draw per link covers the whole frame,
      // however many packets it spans.
      for (std::size_t i = 0; i + 1 < t.path.size(); ++i) {
        const NodeIndex u = t.path[i];
        const NodeIndex v = t.path[i + 1];
        const sim::FaultDecision d = faults_->on_link();
        t.messages += d.copies * packets;
        sim_.counters().add(cat, d.copies * packets);
        sim_.counters().add_bytes(cat, d.copies * frame.size());
        if (d.dropped) {
          if (recorder_ != nullptr) {
            recorder_->record(obs::HopRecord{
                .trace_id = 0,
                .t_ms = sim_.now_ms() + t.latency_ms,
                .domain = obs::HopDomain::kIntra,
                .node = u,
                .category = static_cast<std::uint8_t>(cat),
                .kind = obs::HopKind::kFaultDrop,
                .frame_bytes = static_cast<std::uint32_t>(frame.size()),
                .chased = NodeId{}});
          }
          return ex;
        }
        t.latency_ms += link_latency(u, v) + d.extra_latency_ms;
      }
    }
  }
  // The receiving router acts only on what it decodes off the wire.
  ex.received = simwire::receive(frame, a != b ? faults_ : nullptr);
  if (!ex.received.has_value()) {
    sim_.metrics().add(codec_rejected_id_);
    return ex;
  }
  t.ok = true;
  return ex;
}

Network::Exchange Network::reliable_exchange(NodeIndex a, NodeIndex b,
                                             sim::MsgCategory cat,
                                             const wire::msg::ControlMessage& m) {
  const std::vector<std::uint8_t> frame = simwire::encode(
      m, a < routers_.size() ? routers_[a]->router_id() : NodeId{},
      b < routers_.size() ? routers_[b]->router_id() : NodeId{},
      sim_.metrics(), encode_failures_id_);
  if (frame.empty()) return {};
  if (faults_ == nullptr || !faults_->message_faults_enabled()) {
    return carry(a, b, cat, frame);
  }
  Exchange ex;
  std::uint64_t messages = 0;
  const simwire::Retried r = simwire::retry(cfg_.retry, *faults_, [&] {
    ex = carry(a, b, cat, frame);
    messages += ex.t.messages;
    if (ex.t.ok) return simwire::Delivery::kDelivered;
    return ex.t.path.empty() ? simwire::Delivery::kNoPath
                             : simwire::Delivery::kLost;
  });
  ex.t.messages = messages;
  ex.t.latency_ms = ex.t.ok ? r.waited_ms + ex.t.latency_ms : r.waited_ms;
  return ex;
}

double Network::link_latency(NodeIndex u, NodeIndex v) const {
  for (const graph::Edge& e : topo_->graph.neighbors(u)) {
    if (e.to == v) return e.latency_ms;
  }
  return 0.0;
}

sim::FaultDecision Network::cross_link(NodeIndex u, NodeIndex v,
                                       std::size_t frame_bytes,
                                       RouteStats& stats) {
  stats.latency_ms += link_latency(u, v);
  ++stats.physical_hops;
  sim::FaultDecision fd;
  if (faults_ != nullptr && faults_->message_faults_enabled()) {
    fd = faults_->on_link();
    if (!fd.dropped) stats.latency_ms += fd.extra_latency_ms;
  }
  sim_.counters().add(sim::MsgCategory::kData, fd.copies);
  sim_.counters().add_bytes(sim::MsgCategory::kData, fd.copies * frame_bytes);
  return fd;
}

void Network::schedule_fault_plan(const sim::FaultPlan& plan) {
  // Scheduled flaps and crash windows replay through the same public
  // fail/restore entry points an operator would use; the idempotence guards
  // there make overlapping windows and manual intervention safe.
  for (const sim::LinkFlap& f : plan.link_flaps) {
    const NodeIndex u = f.u;
    const NodeIndex v = f.v;
    sim_.schedule_at(f.down_at_ms, [this, u, v] {
      if (!edge_flag_up(u, v)) return;
      if (faults_ != nullptr) faults_->note_flap();
      fail_link(u, v);
    });
    sim_.schedule_at(f.up_at_ms, [this, u, v] {
      if (edge_flag_up(u, v)) return;
      restore_link(u, v);
    });
  }
  for (const sim::CrashWindow& c : plan.crash_windows) {
    const NodeIndex node = c.node;
    sim_.schedule_at(c.down_at_ms, [this, node] {
      if (!topo_->graph.node_up(node)) return;
      if (faults_ != nullptr) faults_->note_crash();
      fail_router(node);
    });
    sim_.schedule_at(c.up_at_ms, [this, node] {
      if (topo_->graph.node_up(node)) return;
      restore_router(node);
    });
  }
}

void Network::cache_along_path(const std::vector<NodeIndex>& path,
                               const NodeId& id, NodeIndex host) {
  if (!cfg_.cache_control_paths) return;
  // Every router the control message traverses may cache a pointer to the
  // destination ID (section 3.1); the stored source route is the path
  // remainder toward the hosting router.
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == host) continue;
    SourceRoute suffix(path.begin() + static_cast<long>(i), path.end());
    if (suffix.back() != host) continue;  // only forward-pointing prefixes
    routers_[path[i]]->cache().insert(id, host, std::move(suffix));
  }
}

Network::LocateResult Network::locate_predecessor(NodeIndex from,
                                                  const NodeId& target,
                                                  sim::MsgCategory cat) {
  LocateResult res;
  if (!topo_->graph.node_up(from)) return res;
  NodeIndex cur = from;
  res.control_path.push_back(from);
  // Strictly decreasing clockwise distance of the chased pointer guarantees
  // termination (greedy progress, section 2.2 "Routing").
  NodeId best_dist = NodeId{}.minus(NodeId::from_u64(1));  // max distance
  std::optional<NodeId> last_chased;
  // IDs this walk has already found dead: re-chasing them out of another
  // router's cache would loop the cleanup (the walk still tears each one
  // down exactly once).
  std::set<NodeId> dead_this_walk;
  for (std::uint32_t step = 0; step < kMaxForwardingHops; ++step) {
    Router& r = *routers_[cur];
    if (VirtualNode* pred = r.predecessor_vnode_of(target); pred != nullptr) {
      res.ok = true;
      res.pred_router = cur;
      res.pred_id = pred->id;
      return res;
    }
    // Gather candidates: Algorithm 2 over VN state and the pointer cache.
    const std::optional<Candidate> vn = r.vn_best_match(target);
    std::optional<Candidate> cached;
    if (const CacheEntry* e = r.cache().best_match(target)) {
      cached = Candidate{e->id, e->host, false};
    }
    bool moved = false;
    for (const auto& [c, from_cache] : CandidatePair(target, vn, cached)) {
      const NodeId d = NodeId::distance_cw(c.id, target);
      if (!(d < best_dist)) continue;  // no progress via this candidate
      if (c.host == cur) continue;     // resident but not predecessor-owner
      if (dead_this_walk.contains(c.id)) {
        r.cache().erase(c.id);  // clean the copy here too, then skip it
        continue;
      }
      // One locate step rides the wire as a typed message; the next router
      // acts on the decoded target, not on shared memory.
      const std::uint8_t purpose =
          cat == sim::MsgCategory::kJoin
              ? 0
              : (cat == sim::MsgCategory::kRepair ? 1 : 2);
      const Exchange step =
          reliable_exchange(cur, c.host, cat, wire::msg::Locate{target, purpose});
      const Transfer& hop = step.t;
      if (!hop.ok) {
        // Pointer target unreachable (or retries exhausted under loss); a
        // cached pointer is simply dropped.
        r.cache().erase(c.id);
        continue;
      }
      assert(std::get<wire::msg::Locate>(*step.received).target == target);
      res.messages += hop.messages;
      res.latency_ms += hop.latency_ms;
      res.control_path.insert(res.control_path.end(), hop.path.begin() + 1,
                              hop.path.end());
      best_dist = d;
      cur = c.host;
      last_chased = c.id;
      moved = true;
      break;
    }
    if (!moved) {
      // Stale-pointer recovery, mirroring route(): if the previous hop
      // chased a cached ID that is no longer hosted here, tear the stale
      // entry down and restart greedy progress from ring state.  Every reset
      // erases an entry, so this terminates.
      if (last_chased.has_value() && !r.hosts(*last_chased)) {
        r.cache().erase(*last_chased);
        dead_this_walk.insert(*last_chased);
        last_chased.reset();
        best_dist = NodeId{}.minus(NodeId::from_u64(1));
        continue;
      }
      return res;  // stuck: broken ring or partition
    }
  }
  return res;
}

Network::Transfer Network::splice_in(VirtualNode& vn, NodeIndex pred_router,
                                     const NodeId& pred_id,
                                     sim::MsgCategory cat) {
  Transfer total;
  total.ok = true;

  Router& pred_r = *routers_[pred_router];
  VirtualNode* pred = pred_r.find_vnode(pred_id);
  assert(pred != nullptr);

  // The join reply carries the predecessor's successor view as a typed wire
  // message: everything in pred's group is still a successor of vn (vn sits
  // between pred and pred's old succ0).  vn adopts what the gateway decodes
  // off the wire below, not what this scope can see directly.  The reply is
  // built by the shared ring layer -- the same constructor proto::Core's
  // join-request handler uses on the live mesh -- so a gateway adopts the
  // identical neighborhood on either substrate.
  std::vector<proto::RingPtr> pred_group;
  pred_group.reserve(pred->successors.size());
  for (const NeighborPtr& s : pred->successors) {
    pred_group.push_back(proto::RingPtr{s.id, s.host});
  }
  wire::msg::JoinReply reply_msg =
      proto::make_join_reply(pred->id, pred_router, pred_group, vn.id);

  const NeighborPtr self{vn.id, vn.home};
  const NodeId succ0_id = reply_msg.successors.front().target;
  const auto succ0_host =
      static_cast<NodeIndex>(reply_msg.successors.front().home_as);

  // Predecessor adopts vn as its new first successor.  Keep the prior group
  // around: if the join reply below is lost, the adoption must roll back
  // exactly (insertion at capacity k evicts the deepest member, which a
  // plain removal would not restore).
  const std::vector<NeighborPtr> pred_group_before = pred->successors;
  insert_sorted_successor(*pred, self, cfg_.successor_group);
  pred_r.reindex_vnode(pred->id);

  // Ephemeral backpointers that now fall past vn migrate from pred to vn
  // (piggybacked on the join reply, no extra messages).
  for (const auto& [eid, gw] : pred_r.ephemeral_backpointers()) {
    if (proto::is_predecessor_of(vn.id, eid, succ0_id)) {
      reply_msg.migrated_ephemerals.push_back(eid);
    }
  }

  // Join reply: predecessor -> joining host's gateway, carrying the
  // successor list.  Routers along the way cache the new ID.
  const Exchange reply_ex =
      reliable_exchange(pred_router, vn.home, cat, reply_msg);
  const Transfer& reply = reply_ex.t;
  if (!reply.ok) {
    // The joining host never learned it was admitted, so the predecessor
    // must roll back the adoption (its reply timer expires).  Leaving vn in
    // pred's group would create a phantom successor: a ring member whose
    // vnode is never installed anywhere.
    pred->successors = pred_group_before;
    pred_r.reindex_vnode(pred->id);
    total.ok = false;
    return total;
  }
  total.messages += reply.messages;
  // The joining gateway's view of its ring neighborhood is whatever arrived
  // on the wire (CRC-verified and decoded by reliable_exchange).
  const auto& reply_rx = std::get<wire::msg::JoinReply>(*reply_ex.received);
  vn.successors.clear();
  for (const wire::FingerField& s : reply_rx.successors) {
    vn.successors.push_back(
        NeighborPtr{s.target, static_cast<NodeIndex>(s.home_as)});
  }
  vn.predecessor = NeighborPtr{
      reply_rx.predecessor, static_cast<NodeIndex>(reply_rx.predecessor_host)};
  // Routers on the reply path may cache the new ID, so they belong to the
  // directed-flood set cleared on host failure (section 3.2).
  vn.control_path.insert(vn.control_path.end(), reply.path.begin(),
                         reply.path.end());
  {
    // Cache vn.id (lives at vn.home) along the reply path, seen from each
    // traversed router toward vn.home.
    cache_along_path(reply.path, vn.id, vn.home);
    // And the predecessor in the reverse direction.
    std::vector<NodeIndex> rev(reply.path.rbegin(), reply.path.rend());
    cache_along_path(rev, pred->id, pred_router);
  }

  Router& home_r = *routers_[vn.home];
  for (const NodeId& eid : reply_rx.migrated_ephemerals) {
    const auto gw = pred_r.ephemeral_gateway(eid);
    if (gw.has_value()) {
      home_r.add_ephemeral_backpointer(eid, *gw);
      // The ephemeral's ring predecessor is now vn; keep its own pointer in
      // step, or a later teardown would look for the backpointer at the old
      // anchor and leak the migrated one.
      if (*gw < routers_.size()) {
        if (VirtualNode* evn = routers_[*gw]->find_vnode(eid)) {
          evn->predecessor = self;
        }
      }
    }
    pred_r.remove_ephemeral_backpointer(eid);
  }

  // Successor learns its new predecessor (sent from the gateway once the
  // reply arrives; parallel with the deeper-predecessor updates below).  The
  // install is applied from the decoded message at the receiving router.
  double branch_a = reply.latency_ms;
  {
    const Exchange notify_ex = reliable_exchange(
        vn.home, succ0_host, cat,
        wire::msg::PointerInstall{.subject = succ0_id,
                                  .neighbor = vn.id,
                                  .neighbor_host = vn.home,
                                  .op = 1});
    if (notify_ex.t.ok) {
      total.messages += notify_ex.t.messages;
      branch_a += notify_ex.t.latency_ms;
      const auto& install =
          std::get<wire::msg::PointerInstall>(*notify_ex.received);
      if (VirtualNode* succ =
              routers_[succ0_host]->find_vnode(install.subject)) {
        succ->predecessor = NeighborPtr{
            install.neighbor, static_cast<NodeIndex>(install.neighbor_host)};
      }
    }
  }

  // The k-1 deeper predecessors add vn to their successor groups so the
  // group invariant (each vnode knows its next k ring members) holds.
  double branch_b = 0.0;
  NeighborPtr walk = *vn.predecessor;
  NodeIndex walk_from = pred_router;
  for (std::size_t depth = 1; depth < cfg_.successor_group; ++depth) {
    VirtualNode* cur = routers_[walk.host]->find_vnode(walk.id);
    if (cur == nullptr || !cur->predecessor.has_value()) break;
    const NeighborPtr next = *cur->predecessor;
    const Exchange hop_ex = reliable_exchange(
        walk_from, next.host, cat,
        wire::msg::PointerInstall{.subject = next.id,
                                  .neighbor = vn.id,
                                  .neighbor_host = vn.home,
                                  .op = 0});
    if (!hop_ex.t.ok) break;
    total.messages += hop_ex.t.messages;
    branch_b += hop_ex.t.latency_ms;
    const auto& install =
        std::get<wire::msg::PointerInstall>(*hop_ex.received);
    VirtualNode* deeper = routers_[next.host]->find_vnode(install.subject);
    if (deeper == nullptr) break;
    insert_sorted_successor(
        *deeper,
        NeighborPtr{install.neighbor,
                    static_cast<NodeIndex>(install.neighbor_host)},
        cfg_.successor_group);
    routers_[next.host]->reindex_vnode(deeper->id);
    walk_from = next.host;
    walk = next;
  }

  total.latency_ms = std::max(branch_a, branch_b);
  return total;
}

JoinStats Network::join_host(const Identity& ident, NodeIndex gateway,
                             HostClass host_class) {
  JoinStats stats;
  const NodeId id = ident.id();
  if (gateway >= routers_.size() || !topo_->graph.node_up(gateway)) return stats;
  if (directory_.contains(id)) return stats;

  // Algorithm 1 line 1: authenticate(id).  The gateway challenges the host
  // with a nonce; the host proves private-key ownership of its
  // self-certified ID.  One packet over the host access link.
  const std::uint64_t nonce = rng_.next_u64();
  const OwnershipProof proof = ident.prove(nonce);
  if (!verify_ownership(id, ident.public_key(), nonce, proof,
                        ident.private_key())) {
    return stats;
  }
  stats = join_id(id, ident.public_key(), gateway, host_class);
  if (stats.ok) host_identities_.emplace(id, ident);
  return stats;
}

JoinStats Network::join_group_id(const NodeId& id, const PublicKey& pub,
                                 NodeIndex gateway, HostClass host_class) {
  if (gateway >= routers_.size() || !topo_->graph.node_up(gateway)) return {};
  if (directory_.contains(id)) return {};
  return join_id(id, pub, gateway, host_class);
}

JoinStats Network::join_id(const NodeId& id, const PublicKey& pub,
                           NodeIndex gateway, HostClass host_class) {
  JoinStats stats;
  // Sybil audit (section 2.1): the AS limits how many IDs a router may
  // host, bounding the footprint a compromised router can concoct.
  if (cfg_.max_resident_ids_per_router > 0 &&
      routers_[gateway]->resident_count() >
          cfg_.max_resident_ids_per_router) {
    return stats;
  }
  // Host -> gateway join request over the access link, as an encoded frame.
  // A join carrying a large finger table exceeds the MTU and charges the
  // paper's multi-packet counts (section 6.3); the common fingerless join is
  // one packet, as before.
  {
    wire::msg::JoinRequest req;
    // Derived, not drawn: consuming a protocol RNG draw here would shift
    // every later seeded decision and break run-for-run comparability with
    // pre-wire traces.  (The authentication nonce proper is drawn by
    // join_host before this runs.)
    req.nonce = id.lo() ^ id.hi();
    req.gateway = gateway;
    req.host_class = static_cast<std::uint8_t>(host_class);
    req.public_key = pub;
    const std::vector<std::uint8_t> frame =
        simwire::encode(req, id, routers_[gateway]->router_id(),
                        sim_.metrics(), encode_failures_id_);
    if (frame.empty()) return stats;
    // The access link makes no fault draw: the gateway decodes the frame as
    // the host sent it.
    const auto decoded = simwire::receive(frame, nullptr);
    assert(decoded.has_value() &&
           std::get<wire::msg::JoinRequest>(*decoded).gateway == gateway);
    if (!decoded.has_value()) {
      sim_.metrics().add(codec_rejected_id_);
      return stats;
    }
    const std::uint64_t packets = wire::hop_packets(frame.size());
    stats.messages += packets;
    sim_.counters().add(sim::MsgCategory::kJoin, packets);
    sim_.counters().add_bytes(sim::MsgCategory::kJoin, frame.size());
  }

  const LocateResult loc =
      locate_predecessor(gateway, id, sim::MsgCategory::kJoin);
  if (!loc.ok) return stats;
  stats.messages += loc.messages;

  if (host_class == HostClass::kEphemeral) {
    // Section 2.2, "Ephemeral hosts": no ring membership; the predecessor
    // keeps a source route to the host's gateway.  (The predecessor here is
    // the vnode, hence the backpointer lives at its hosting router.)
    VirtualNode vn;
    vn.id = id;
    vn.pub = pub;
    vn.host_class = HostClass::kEphemeral;
    const VirtualNode* pred =
        routers_[loc.pred_router]->find_vnode(loc.pred_id);
    assert(pred != nullptr);
    // add_vnode below may grow the same router's vnode map when the gateway
    // hosts the predecessor, invalidating `pred` -- copy what we need first.
    const NodeId pred_id = pred->id;
    vn.successors.push_back(NeighborPtr{pred_id, loc.pred_router});
    vn.predecessor = NeighborPtr{pred_id, loc.pred_router};
    vn.control_path = loc.control_path;
    routers_[gateway]->add_vnode(std::move(vn));
    routers_[loc.pred_router]->add_ephemeral_backpointer(id, gateway);
    wire::msg::JoinReply eph_reply;
    eph_reply.predecessor = pred_id;
    eph_reply.predecessor_host = loc.pred_router;
    eph_reply.successors.push_back(
        wire::FingerField{pred_id, loc.pred_router});
    const Exchange reply_ex = reliable_exchange(
        loc.pred_router, gateway, sim::MsgCategory::kJoin, eph_reply);
    stats.messages += reply_ex.t.messages;
    stats.latency_ms = loc.latency_ms + reply_ex.t.latency_ms;
  } else {
    VirtualNode vn;
    vn.id = id;
    vn.pub = pub;
    vn.home = gateway;
    vn.control_path = loc.control_path;
    const Transfer install = [&] {
      VirtualNode local = vn;  // splice computes pointers, then we register
      Transfer t = splice_in(local, loc.pred_router, loc.pred_id,
                             sim::MsgCategory::kJoin);
      if (t.ok) routers_[gateway]->add_vnode(std::move(local));
      return t;
    }();
    if (!install.ok) return stats;
    stats.messages += install.messages;
    stats.latency_ms = loc.latency_ms + install.latency_ms;
    // Top the group up to k so every stable vnode knows its next k ring
    // members (keeps successor-group state canonical network-wide).
    if (VirtualNode* reg = routers_[gateway]->find_vnode(id)) {
      stats.messages += refill_successors(*reg, sim::MsgCategory::kJoin);
    }
  }

  directory_[id] = gateway;
  host_class_[id] = host_class;
  stats.ok = true;
  sim_.metrics().add(joins_id_);
  if (obs::Tracer* t = sim_.tracer()) {
    t->complete("join", "rofl", sim_.now_ms() * 1000.0,
                stats.latency_ms * 1000.0, /*track=*/2,
                {obs::TraceArg{"gateway", std::uint64_t{gateway}},
                 obs::TraceArg{"messages", stats.messages}});
  }
  return stats;
}

JoinStats Network::join_random_host(HostClass host_class) {
  const Identity ident = Identity::generate(rng_);
  // Pick a live gateway uniformly.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto gw = static_cast<NodeIndex>(rng_.index(routers_.size()));
    if (topo_->graph.node_up(gw)) return join_host(ident, gw, host_class);
  }
  return {};
}

std::uint64_t Network::refill_successors(VirtualNode& vn, sim::MsgCategory cat,
                                         const std::optional<NodeId>& exclude) {
  if (vn.successors.size() >= cfg_.successor_group || vn.successors.empty()) {
    return 0;
  }
  // Ask the first live successor for its group and append what we miss
  // (section 3.2: "asking each of its successors ... to fill the gap").
  // `exclude` guards against copying back an ID that is mid-teardown and
  // may still linger in the peer's not-yet-cleaned list.
  const NeighborPtr head = vn.successors.front();
  const Exchange ex = reliable_exchange(
      vn.home, head.host, cat,
      wire::msg::PointerInstall{.subject = vn.id,
                                .neighbor = head.id,
                                .neighbor_host = head.host,
                                .op = 2});
  const Transfer& t = ex.t;
  if (!t.ok) return 0;
  const VirtualNode* succ = routers_[head.host]->find_vnode(head.id);
  if (succ != nullptr) {
    for (const NeighborPtr& s : succ->successors) {
      if (s.id == vn.id) continue;
      if (exclude.has_value() && s.id == *exclude) continue;
      insert_sorted_successor(vn, s, cfg_.successor_group);
    }
    routers_[vn.home]->reindex_vnode(vn.id);
  }
  return t.messages;
}

RepairStats Network::fail_host(NodeId id) {
  // Every message of a departure is teardown traffic.
  constexpr sim::MsgCategory cat = sim::MsgCategory::kTeardown;
  host_identities_.erase(id);
  host_class_.erase(id);
  RepairStats stats;
  const auto dir_it = directory_.find(id);
  if (dir_it == directory_.end()) return stats;
  const NodeIndex gw = dir_it->second;
  Router& gw_r = *routers_[gw];
  VirtualNode* vn = gw_r.find_vnode(id);
  if (vn == nullptr) return stats;

  if (vn->host_class == HostClass::kEphemeral) {
    // Teardown to the predecessor that holds the backpointer.
    if (vn->predecessor.has_value()) {
      const Exchange ex =
          reliable_exchange(gw, vn->predecessor->host, cat,
                            wire::msg::Teardown{.id = id, .reason = 3});
      stats.messages += ex.t.messages;
      const NodeId torn =
          ex.t.ok ? std::get<wire::msg::Teardown>(*ex.received).id : id;
      routers_[vn->predecessor->host]->remove_ephemeral_backpointer(torn);
      ++stats.pointers_torn;
    }
    gw_r.remove_vnode(id);
    directory_.erase(dir_it);
    return stats;
  }

  const std::optional<NeighborPtr> pred_ptr = vn->predecessor;
  const std::optional<NeighborPtr> succ_ptr =
      vn->successors.empty() ? std::nullopt
                             : std::optional<NeighborPtr>(vn->successors.front());
  const std::vector<NodeIndex> control_path = vn->control_path;
  // The departing vnode's ephemeral backpointers migrate to its predecessor.
  std::vector<std::pair<NodeId, NodeIndex>> orphans(
      gw_r.ephemeral_backpointers().begin(),
      gw_r.ephemeral_backpointers().end());

  gw_r.remove_vnode(id);
  directory_.erase(dir_it);

  // Teardown to the first successor: it loses its predecessor pointer and
  // relinks to the departing node's predecessor.
  if (succ_ptr.has_value()) {
    const Exchange ex =
        reliable_exchange(gw, succ_ptr->host, cat,
                          wire::msg::Teardown{.id = id, .reason = 0});
    stats.messages += ex.t.messages;
    if (ex.t.ok) {
      const NodeId torn = std::get<wire::msg::Teardown>(*ex.received).id;
      if (VirtualNode* succ = routers_[succ_ptr->host]->find_vnode(succ_ptr->id)) {
        if (succ->predecessor.has_value() && succ->predecessor->id == torn) {
          succ->predecessor = pred_ptr;
          ++stats.pointers_torn;
        }
      }
    }
  }

  // Teardowns walk the predecessor chain: every vnode holding `id` in its
  // successor group drops it.  Refills run in a second phase once every
  // holder has been cleaned -- otherwise a refill could copy the departing
  // ID right back out of a not-yet-cleaned neighbor (visible in small
  // rings, where everyone holds everyone).
  if (pred_ptr.has_value()) {
    std::vector<NeighborPtr> cleaned;
    NeighborPtr walk = *pred_ptr;
    NodeIndex from = gw;
    for (std::size_t depth = 0; depth < cfg_.successor_group; ++depth) {
      const Exchange ex =
          reliable_exchange(from, walk.host, cat,
                            wire::msg::Teardown{.id = id, .reason = 0});
      if (!ex.t.ok) break;
      stats.messages += ex.t.messages;
      const NodeId torn = std::get<wire::msg::Teardown>(*ex.received).id;
      VirtualNode* p = routers_[walk.host]->find_vnode(walk.id);
      if (p == nullptr) break;
      const bool had =
          std::any_of(p->successors.begin(), p->successors.end(),
                      [&](const NeighborPtr& s) { return s.id == torn; });
      if (had) {
        remove_successor(*p, torn);
        // The survivor of a two-member ring is left alone: a self-loop.
        if (p->successors.empty()) p->successors.push_back(walk);
        ++stats.pointers_torn;
        routers_[walk.host]->reindex_vnode(p->id);
        cleaned.push_back(walk);
      }
      // The nearest predecessor inherits orphaned ephemeral backpointers.
      if (depth == 0) {
        for (const auto& [eid, egw] : orphans) {
          routers_[walk.host]->add_ephemeral_backpointer(eid, egw);
          // Re-point each orphan's own predecessor at the inheriting vnode,
          // so its eventual teardown finds the backpointer where it now
          // lives instead of at the departed anchor.
          if (egw < routers_.size()) {
            if (VirtualNode* evn = routers_[egw]->find_vnode(eid)) {
              evn->predecessor = walk;
            }
          }
        }
      }
      if (!p->predecessor.has_value()) break;
      from = walk.host;
      walk = *p->predecessor;
    }
    for (const NeighborPtr& w : cleaned) {
      VirtualNode* p = routers_[w.host]->find_vnode(w.id);
      if (p == nullptr) continue;
      stats.messages += refill_successors(*p, cat, id);
    }
  }

  // Directed flood (section 3.2, "Host failure"): a source-routed flood over
  // the constrained router set -- the routers that carried this ID's control
  // messages -- clearing their cached pointers.
  if (!control_path.empty()) {
    for (const NodeIndex r : control_path) {
      if (r < routers_.size()) routers_[r]->cache().erase(id);
    }
    const std::uint64_t flood_msgs = control_path.size() - 1;
    stats.messages += flood_msgs;
    sim_.counters().add(cat, flood_msgs);
    // Each leg of the flood carries the same encoded teardown frame.
    sim_.counters().add_bytes(cat, flood_msgs * teardown_frame_bytes_);
  }
  return stats;
}

RepairStats Network::leave_host(NodeId id) {
  // A graceful departure issues the same directed teardown flood as a crash
  // (section 3.2): the departing host knows its control path and purges the
  // cached pointers that still name it.  Without the flood those entries
  // linger until a data packet trips stale-pointer recovery -- a coherence
  // hole the invariant auditor flags.
  return fail_host(id);
}

NodeIndex Network::failover_router(NodeIndex failed) const {
  // Routers agree in advance on a deterministic failover order (section
  // 3.2): the next live router in index order.
  for (std::size_t k = 1; k < routers_.size(); ++k) {
    const auto cand =
        static_cast<NodeIndex>((failed + k) % routers_.size());
    if (topo_->graph.node_up(cand)) return cand;
  }
  return graph::kInvalidNode;
}

std::uint32_t Network::tear_unreachable_pointers() {
  std::uint32_t torn = 0;
  for (auto& r : routers_) {
    if (!topo_->graph.node_up(r->index())) continue;
    std::vector<NodeId> dirty;
    for (const auto& [vid, vn_const] : r->vnodes()) {
      VirtualNode* vn = r->find_vnode(vid);
      const std::size_t before = vn->successors.size();
      std::erase_if(vn->successors, [&](const NeighborPtr& s) {
        if (!map_->reachable(r->index(), s.host)) return true;
        return routers_[s.host]->find_vnode(s.id) == nullptr;
      });
      if (vn->predecessor.has_value()) {
        const NeighborPtr p = *vn->predecessor;
        if (!map_->reachable(r->index(), p.host) ||
            routers_[p.host]->find_vnode(p.id) == nullptr) {
          vn->predecessor.reset();
          ++torn;
        }
      }
      if (vn->successors.size() != before) {
        torn += static_cast<std::uint32_t>(before - vn->successors.size());
        dirty.push_back(vid);
      }
    }
    for (const NodeId& vid : dirty) r->reindex_vnode(vid);
  }
  return torn;
}

RepairStats Network::repair_partitions() {
  RepairStats stats;
  // The repair pass below queries reachability/paths from essentially every
  // live router; recompute the whole SPF set up front (parallel across the
  // worker pool, deterministic merge) instead of filling the cache one
  // serial Dijkstra at a time.
  map_->recompute_all_spf();
  stats.pointers_torn = tear_unreachable_pointers();

  // Zero-ID convergence (section 3.2): routers distribute the smallest ID
  // they know of (piggybacked on link-state advertisements) until every
  // component agrees on its minimum; only then do rings merge.  The
  // protocol runs explicitly here and its advertisement traffic is charged.
  {
    ZeroIdProtocol zero(&topo_->graph);
    for (const auto& r : routers_) {
      if (!topo_->graph.node_up(r->index())) continue;
      std::optional<NodeId> smallest;
      for (const auto& [vid, vn] : r->vnodes()) {
        if (vn.host_class == HostClass::kEphemeral) continue;
        smallest = vid;  // vnodes_ is sorted: first stable id is smallest
        break;
      }
      zero.set_local_min(r->index(), smallest);
    }
    const auto conv = zero.run_to_convergence();
    // "In practice, the zero node advertisements are piggybacked on
    // link-state advertisements": they consume LSA bytes, not extra
    // packets, so they are accounted on the link-state channel and do not
    // inflate the repair packet counts of figure 7.
    sim_.counters().add(sim::MsgCategory::kLinkState, conv.messages);
    sim_.counters().add_bytes(
        sim::MsgCategory::kLinkState,
        conv.messages * wire::msg::control_wire_size(wire::msg::Lsa{}));
    assert(zero.verify_consistent());
  }

  for (const proto::CanonicalRing& ring : component_rings()) {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const auto& [vid, vhost] = ring[i];
      VirtualNode* vn = routers_[vhost]->find_vnode(vid);
      if (vn == nullptr) continue;
      const std::vector<NeighborPtr> want =
          canonical_group(ring, i, cfg_.successor_group);
      const NeighborPtr want_pred = neighbor(ring.predecessor(i));

      // Charge repair messages only for pointers that actually change:
      // unaffected vnodes cost nothing, matching the paper's finding that
      // repair overhead tracks the number of affected identifiers.
      bool changed = false;
      if (vn->successors != want) {
        for (const NeighborPtr& w : want) {
          const bool had = std::any_of(
              vn->successors.begin(), vn->successors.end(),
              [&](const NeighborPtr& s) { return s.id == w.id && s.host == w.host; });
          if (!had) {
            const Exchange ex = reliable_exchange(
                vhost, w.host, sim::MsgCategory::kRepair,
                wire::msg::Repair{.subject = vid,
                                  .neighbor = w.id,
                                  .neighbor_host = w.host,
                                  .op = 0});
            stats.messages += ex.t.messages;
          }
        }
        vn->successors = want;
        changed = true;
      }
      if (vn->predecessor != want_pred) {
        const Exchange ex = reliable_exchange(
            vhost, want_pred.host, sim::MsgCategory::kRepair,
            wire::msg::Repair{.subject = vid,
                              .neighbor = want_pred.id,
                              .neighbor_host = want_pred.host,
                              .op = 1});
        stats.messages += ex.t.messages;
        vn->predecessor = want_pred;
        changed = true;
      }
      if (changed) {
        routers_[vhost]->reindex_vnode(vid);
        ++stats.ids_rejoined;
      }
    }
  }

  // Re-anchor ephemeral backpointers whose predecessor moved or became
  // unreachable.
  for (const auto& [id, gw] : directory_) {
    const auto cls = host_class_.find(id);
    if (cls == host_class_.end() || cls->second != HostClass::kEphemeral) continue;
    if (!topo_->graph.node_up(gw)) continue;
    const LocateResult loc =
        locate_predecessor(gw, id, sim::MsgCategory::kRepair);
    if (!loc.ok) continue;
    stats.messages += loc.messages;
    Router& pred_r = *routers_[loc.pred_router];
    // Canonicalize: exactly one anchor for this id, at the current
    // predecessor.  Backpointers left behind at former predecessors (ring
    // membership changed, router restored with pre-crash state) would
    // otherwise accumulate and misdirect delivery to routers the vnode has
    // left.
    for (auto& rr : routers_) {
      if (rr->index() != loc.pred_router &&
          rr->ephemeral_gateway(id).has_value()) {
        rr->remove_ephemeral_backpointer(id);
      }
    }
    if (pred_r.ephemeral_gateway(id) != gw) {
      pred_r.add_ephemeral_backpointer(id, gw);
      VirtualNode* evn = routers_[gw]->find_vnode(id);
      if (evn != nullptr) {
        evn->predecessor = NeighborPtr{loc.pred_id, loc.pred_router};
      }
    }
  }
  if (obs::Tracer* t = sim_.tracer()) {
    t->instant("repair", "rofl", sim_.now_ms() * 1000.0, /*track=*/2,
               {obs::TraceArg{"messages", stats.messages},
                obs::TraceArg{"ids_rejoined", std::uint64_t{stats.ids_rejoined}},
                obs::TraceArg{"pointers_torn",
                              std::uint64_t{stats.pointers_torn}}});
  }
  return stats;
}

RepairStats Network::fail_router(NodeIndex r) {
  RepairStats stats;
  if (r >= routers_.size() || !topo_->graph.node_up(r)) return stats;

  // Snapshot the resident IDs before the crash erases them.
  struct Lost {
    Identity ident;
    HostClass cls;
  };
  std::vector<Lost> lost_hosts;
  std::vector<NodeId> lost_ids;
  for (const auto& [id, vn] : routers_[r]->vnodes()) {
    lost_ids.push_back(id);
    if (vn.is_default) continue;
    const auto it = host_identities_.find(id);
    if (it != host_identities_.end()) {
      // Group-held IDs (anycast/multicast) have no per-host identity and are
      // not auto-rejoined; their members re-register themselves.
      lost_hosts.push_back(Lost{it->second, host_class_.at(id)});
    }
  }

  // The crash: LSA flood + cache invalidation via the subscription.
  map_->fail_node(r);
  for (const NodeId& id : lost_ids) directory_.erase(id);

  // Ring repair around everything the router hosted or was pointed at by.
  const RepairStats ring = repair_partitions();
  stats.messages += ring.messages;
  stats.pointers_torn += ring.pointers_torn;

  // Each disconnected host rejoins via its deterministic failover router
  // (section 3.2, "Router failure").
  const NodeIndex fo = failover_router(r);
  if (fo != graph::kInvalidNode) {
    for (const Lost& h : lost_hosts) {
      host_identities_.erase(h.ident.id());
      host_class_.erase(h.ident.id());
      const JoinStats j = join_host(h.ident, fo, h.cls);
      if (j.ok) {
        stats.messages += j.messages;
        ++stats.ids_rejoined;
      }
    }
  }
  return stats;
}

RepairStats Network::restore_router(NodeIndex r) {
  RepairStats stats;
  if (r >= routers_.size() || topo_->graph.node_up(r)) return stats;
  // Clear any stale state from before the crash, then come back up.
  std::vector<NodeId> stale;
  for (const auto& [id, vn] : routers_[r]->vnodes()) stale.push_back(id);
  for (const NodeId& id : stale) routers_[r]->remove_vnode(id);
  routers_[r]->cache().clear();
  // Ephemeral backpointers recorded before the crash are stale too: the
  // vnodes they anchor were rehomed (or torn down) while this router was
  // dark, and their current predecessors hold the live anchors.
  std::vector<NodeId> stale_eph;
  for (const auto& [eid, egw] : routers_[r]->ephemeral_backpointers()) {
    (void)egw;
    stale_eph.push_back(eid);
  }
  for (const NodeId& eid : stale_eph) {
    routers_[r]->remove_ephemeral_backpointer(eid);
  }
  map_->restore_node(r);

  // The router's default vnode rejoins the ring.
  VirtualNode vn;
  vn.id = routers_[r]->router_id();
  vn.pub = routers_[r]->identity().public_key();
  vn.is_default = true;
  vn.home = r;
  routers_[r]->add_vnode(std::move(vn));
  directory_[routers_[r]->router_id()] = r;
  const RepairStats fix = repair_partitions();
  stats.messages += fix.messages;
  stats.ids_rejoined = fix.ids_rejoined;
  return stats;
}

bool Network::edge_flag_up(NodeIndex u, NodeIndex v) const {
  // The raw administrative state of the edge, independent of whether its
  // endpoint routers happen to be up (Graph::link_up conflates the two).
  for (const graph::Edge& e : topo_->graph.neighbors(u)) {
    if (e.to == v) return e.up;
  }
  return false;
}

RepairStats Network::fail_link(NodeIndex u, NodeIndex v) {
  // Idempotence guard: when a scheduled flap and a manual call (or two
  // overlapping flap windows) both fail the same link, the second call must
  // be a no-op.  The link-state substrate floods unconditionally, so without
  // the guard a redundant fail re-charges an LSA flood and re-invalidates
  // every pointer cache that routes over the (already dead) link.
  if (!edge_flag_up(u, v)) return {};
  map_->fail_link(u, v);
  return repair_partitions();
}

RepairStats Network::restore_link(NodeIndex u, NodeIndex v) {
  if (edge_flag_up(u, v)) return {};
  map_->restore_link(u, v);
  return repair_partitions();
}

RouteStats Network::route(NodeIndex src_router, const NodeId& dest,
                          std::uint64_t trace_id) {
  RouteStats stats;
  if (src_router >= routers_.size() || !topo_->graph.node_up(src_router)) {
    return stats;
  }
  sim_.metrics().add(routes_id_);
  // Hot path stays one null check when no recorder is installed; with one,
  // every forwarding decision becomes a ring write keyed by the trace id.
  if (recorder_ != nullptr) {
    stats.trace_id = trace_id != 0 ? trace_id : recorder_->new_trace();
  }
  const auto rec = [&](obs::HopKind kind, NodeIndex node, const NodeId& chased) {
    if (recorder_ == nullptr) return;
    recorder_->record(obs::HopRecord{
        .trace_id = stats.trace_id,
        .t_ms = sim_.now_ms() + stats.latency_ms,
        .domain = obs::HopDomain::kIntra,
        .node = node,
        .category = static_cast<std::uint8_t>(sim::MsgCategory::kData),
        .kind = kind,
        .frame_bytes = static_cast<std::uint32_t>(data_frame_bytes_),
        .chased = chased});
  };
  rec(obs::HopKind::kStart, src_router, dest);

  NodeIndex cur = src_router;
  routers_[cur]->count_traversal();
  // The walk's router path is kept only for data-path snooping, so a greedy
  // hop with snooping off allocates nothing.
  std::vector<NodeIndex> traversed;
  if (cfg_.cache_data_paths) traversed.push_back(cur);
  std::optional<Candidate> chasing;
  // When the chased pointer came from a cache, remember whose cache, so the
  // teardown on stale discovery reaches the pointer holder (invariant (b)).
  NodeIndex chasing_origin = graph::kInvalidNode;
  NodeId committed_dist = NodeId{}.minus(NodeId::from_u64(1));
  std::set<NodeId> dead_this_walk;

  for (std::uint32_t step = 0; step < kMaxForwardingHops; ++step) {
    Router& r = *routers_[cur];
    // Algorithm 2's VN.best_match comes first: the one descent that finds
    // the closest known ID also answers whether dest is resident here.
    const std::optional<Candidate> vn = r.vn_best_match(dest);
    // Delivery checks: resident vnode, or ephemeral backpointer here.
    if (r.hosts(dest, vn)) {
      stats.delivered = true;
      sim_.metrics().add(delivered_id_);
      rec(obs::HopKind::kDeliver, cur, dest);
      // Optional data-plane snooping: traversed routers cache the
      // destination now that its location is confirmed.
      if (cfg_.cache_data_paths) {
        cache_along_path(traversed, dest, cur);
      }
      return stats;
    }
    // An ephemeral backpointer names a gateway, not a residency proof:
    // after a rehoming (partition repair, router restore) a stale entry can
    // point at a router the vnode has left.  Delivering there would be a
    // false delivery, so verify residency; on a miss tear the dead pointer
    // down and fall through to greedy forwarding.
    const auto live_egw = [&]() -> std::optional<NodeIndex> {
      const auto g = r.ephemeral_gateway(dest);
      if (!g.has_value()) return std::nullopt;
      if (*g < routers_.size() && routers_[*g]->hosts(dest)) return g;
      r.remove_ephemeral_backpointer(dest);
      rec(obs::HopKind::kStalePointer, cur, dest);
      return std::nullopt;
    };
    if (const auto egw = live_egw()) {
      rec(obs::HopKind::kEphemeralGateway, cur, dest);
      const auto path = map_->path(cur, *egw);
      if (path.empty()) {
        rec(obs::HopKind::kDrop, cur, dest);
        return stats;
      }
      if (faults_ != nullptr && faults_->message_faults_enabled()) {
        // The final leg to the ephemeral gateway is ordinary data-plane
        // traffic: cross it link by link so each hop can drop the packet.
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          if (cross_link(path[i], path[i + 1], data_frame_bytes_, stats)
                  .dropped) {
            rec(obs::HopKind::kFaultDrop, path[i], dest);
            return stats;
          }
          routers_[path[i + 1]]->count_traversal();
        }
      } else {
        for (std::size_t i = 1; i < path.size(); ++i) {
          routers_[path[i]]->count_traversal();
        }
        const auto hops = static_cast<std::uint32_t>(path.size() - 1);
        stats.physical_hops += hops;
        stats.latency_ms += map_->latency_ms(cur, *egw).value_or(0.0);
        sim_.counters().add(sim::MsgCategory::kData, hops);
        sim_.counters().add_bytes(sim::MsgCategory::kData,
                                  hops * data_frame_bytes_);
      }
      stats.delivered = true;
      sim_.metrics().add(delivered_id_);
      rec(obs::HopKind::kDeliver, *egw, dest);
      return stats;
    }

    // Algorithm 2: best resident/successor candidate vs best cached pointer.
    std::optional<Candidate> cached;
    if (const CacheEntry* e = r.cache().best_match(dest);
        e != nullptr && map_->route_valid(e->path, e->route_up_at)) {
      cached = Candidate{e->id, e->host, false};
    }

    bool switched = false;
    for (const auto& [c, from_cache] : CandidatePair(dest, vn, cached)) {
      if (dead_this_walk.contains(c.id)) {
        r.cache().erase(c.id);
        continue;
      }
      const NodeId d = NodeId::distance_cw(c.id, dest);
      if (d < committed_dist) {
        chasing = c;
        chasing_origin = from_cache ? cur : graph::kInvalidNode;
        committed_dist = d;
        ++stats.ring_hops;
        switched = true;
        rec(from_cache ? obs::HopKind::kCachePointer
                       : obs::HopKind::kRingPointer,
            cur, c.id);
        break;
      }
    }
    if (!chasing.has_value()) {
      rec(obs::HopKind::kDrop, cur, dest);
      return stats;  // no way to make progress
    }
    if (!switched && cur == chasing->host) {
      if (r.hosts(chasing->id)) {
        // The chased ID is alive here and offers no further progress: the
        // destination genuinely does not exist in this component.
        return stats;
      }
      // Stale pointer: the chased ID left this router without this cache
      // entry being flooded away.  Discovering the stale route tears it down
      // at the discovery point AND -- via a teardown message back along the
      // path -- at the router whose cache supplied it (invariant (b) of
      // section 3.2).  Forwarding restarts from ring state; each reset
      // removes stale entries, so this terminates.
      sim_.metrics().add(stale_ptrs_id_);
      rec(obs::HopKind::kStalePointer, cur, chasing->id);
      r.cache().erase(chasing->id);
      dead_this_walk.insert(chasing->id);
      if (chasing_origin != graph::kInvalidNode && chasing_origin != cur) {
        // One-shot (unreliable) teardown back to the cache that supplied the
        // stale pointer; the holder erases the ID it decodes off the wire.
        const std::vector<std::uint8_t> frame = simwire::encode(
            wire::msg::Teardown{.id = chasing->id, .reason = 2},
            routers_[cur]->router_id(), routers_[chasing_origin]->router_id(),
            sim_.metrics(), encode_failures_id_);
        const Exchange back =
            frame.empty()
                ? Exchange{}
                : carry(cur, chasing_origin, sim::MsgCategory::kTeardown,
                        frame);
        routers_[chasing_origin]->cache().erase(
            back.t.ok ? std::get<wire::msg::Teardown>(*back.received).id
                      : chasing->id);
      }
      chasing.reset();
      chasing_origin = graph::kInvalidNode;
      committed_dist = NodeId{}.minus(NodeId::from_u64(1));
      continue;
    }

    const auto next = map_->next_hop(cur, chasing->host);
    if (!next.has_value() || *next == cur) {
      // Path to the chased pointer died; drop it (and any matching cache
      // entry) and re-evaluate from scratch at this router.
      r.cache().erase(chasing->id);
      chasing.reset();
      continue;
    }
    if (cross_link(cur, *next, data_frame_bytes_, stats).dropped) {
      rec(obs::HopKind::kFaultDrop, cur, chasing->id);
      return stats;
    }
    cur = *next;
    if (cfg_.cache_data_paths) traversed.push_back(cur);
    routers_[cur]->count_traversal();
    rec(obs::HopKind::kForward, cur, chasing->id);
  }
  rec(obs::HopKind::kDrop, cur, dest);
  return stats;
}

Network::CacheTotals Network::cache_totals() const {
  CacheTotals t;
  for (const auto& r : routers_) {
    const PointerCache& c = r->cache();
    t.hits += c.hits();
    t.misses += c.misses();
    t.evictions += c.evictions();
    t.stale_drops += c.stale_drops();
    t.entries += c.size();
  }
  return t;
}

std::optional<NodeIndex> Network::hosting_router(const NodeId& id) const {
  const auto it = directory_.find(id);
  if (it == directory_.end()) return std::nullopt;
  return it->second;
}

std::uint32_t Network::shortest_hops(NodeIndex src_router,
                                     const NodeId& dest) const {
  if (src_router >= routers_.size() || !topo_->graph.node_up(src_router)) {
    return 0;
  }
  const auto host = hosting_router(dest);
  if (!host.has_value()) return 0;
  return map_->hop_distance(src_router, *host).value_or(0);
}

bool Network::verify_rings(std::string* err, bool strict) const {
  const auto fail = [err](const auto&... what) {
    if (err != nullptr) {
      std::ostringstream os;
      (os << ... << what);
      *err = os.str();
    }
    return false;
  };
  for (const proto::CanonicalRing& ring : component_rings()) {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const auto& [vid, vhost] = ring[i];
      const VirtualNode* vn = routers_[vhost]->find_vnode(vid);
      if (vn == nullptr) {
        return fail("directory lists ", vid, " at router ", vhost,
                    " but no vnode exists");
      }
      const NeighborPtr next = neighbor(ring.successor(i));
      const NeighborPtr* succ = vn->first_successor();
      if (succ == nullptr || *succ != next) {
        std::ostringstream got;
        if (succ != nullptr) got << " got " << succ->id << "@" << succ->host;
        return fail("vnode ", vid, " at router ", vhost,
                    " successor mismatch: expected ", next.id, "@", next.host,
                    got.str());
      }
      if (!strict) continue;
      const std::vector<NeighborPtr> want =
          canonical_group(ring, i, cfg_.successor_group);
      if (vn->successors.size() != want.size()) {
        return fail("vnode ", vid, " group size ", vn->successors.size(),
                    " != ", want.size());
      }
      for (std::size_t s = 0; s < want.size(); ++s) {
        if (vn->successors[s] != want[s]) {
          return fail("vnode ", vid, " successor[", s, "] mismatch");
        }
      }
      if (vn->predecessor != neighbor(ring.predecessor(i))) {
        return fail("vnode ", vid, " predecessor mismatch");
      }
    }
  }
  return true;
}

double Network::mean_state_entries() const {
  std::uint64_t total = 0;
  std::size_t live = 0;
  for (const auto& r : routers_) {
    if (!topo_->graph.node_up(r->index())) continue;
    total += r->state_entries();
    ++live;
  }
  return live == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(live);
}

std::uint64_t Network::resident_state_bits() const {
  std::uint64_t ids = 0;
  for (const auto& r : routers_) {
    if (!topo_->graph.node_up(r->index())) continue;
    ids += r->resident_count();
  }
  return ids * 128;
}

void Network::reset_traffic_counters() {
  for (auto& r : routers_) r->reset_traversals();
}

}  // namespace rofl::intra
