#include "interdomain/inter_network.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "rofl/sim_wire.hpp"

namespace rofl::inter {
namespace {

/// Forwarding loop guard: the most AS segments one walk may take.
constexpr std::uint32_t kMaxSegments = 4096;

constexpr NodeId max_distance() {
  return NodeId{}.minus(NodeId::from_u64(1));
}

}  // namespace

InterNetwork::InterNetwork(const graph::AsTopology* base, InterConfig cfg,
                           std::uint64_t seed)
    : base_(base), base_copy_(*base), cfg_(cfg), rng_(seed) {
  assert(base != nullptr);
  if (cfg_.peering_mode == PeeringMode::kVirtualAs) {
    work_ = base_copy_.with_virtual_peering_ases();
  } else {
    work_ = base_copy_;
  }
  nodes_.resize(work_.as_count());
  routes_id_ = sim_.metrics().counter("inter.routes");
  delivered_id_ = sim_.metrics().counter("inter.routes.delivered");
  peer_crossings_id_ = sim_.metrics().counter("inter.peer_crossings");
  backtracks_id_ = sim_.metrics().counter("inter.backtracks");
  probes_id_ = sim_.metrics().counter("inter.escalation_probes");
  encode_failures_id_ = sim_.metrics().counter("inter.encode_failures");
  codec_rejected_id_ = sim_.metrics().counter("inter.codec_rejected");
  data_frame_bytes_ = wire::Packet{}.wire_size();
  // Subtree bloom filters: required for the bloom peering rule and for
  // guarding pointer caches; build them whenever either feature is on.
  if (cfg_.peering_mode == PeeringMode::kBloom ||
      cfg_.cache_capacity_per_as > 0) {
    for (auto& n : nodes_) {
      n.subtree_bloom =
          std::make_unique<BloomFilter>(cfg_.bloom_bits, cfg_.bloom_hashes);
    }
  }
}

// ---------------------------------------------------------------------------
// ancestor masks

void InterNetwork::rebuild_ancestor_masks() const {
  const std::size_t n = work_.as_count();
  const std::size_t stride = (n + 63) / 64;
  ancestor_masks_.assign(n * stride, 0);
  for (AsIndex des = 0; des < n; ++des) {
    if (!work_.as_up(des)) continue;
    // Backup providers are excluded: joins do not register across backup
    // links (section 4.2), so subtree membership must not use them either.
    const auto g = work_.up_hierarchy(des, /*include_backup=*/false);
    for (const AsIndex anc : g.nodes) {
      ancestor_masks_[static_cast<std::size_t>(anc) * stride + des / 64] |=
          (1ull << (des % 64));
    }
  }
  masks_valid_ = true;
}

bool InterNetwork::is_ancestor(AsIndex anc, AsIndex des) const {
  if (anc == des) return true;
  if (!masks_valid_) rebuild_ancestor_masks();
  const std::size_t n = work_.as_count();
  const std::size_t stride = (n + 63) / 64;
  return (ancestor_masks_[static_cast<std::size_t>(anc) * stride + des / 64] >>
          (des % 64)) & 1u;
}

// ---------------------------------------------------------------------------
// anchor selection

std::vector<InterNetwork::Anchor> InterNetwork::anchors_for(
    AsIndex home, JoinStrategy strategy,
    std::optional<AsIndex> via_provider) const {
  std::vector<Anchor> out;
  const auto up = work_.up_hierarchy(home);
  if (up.nodes.empty()) return out;

  auto top_anchor = [&]() -> Anchor {
    // The global ring's root: a hierarchy member with no live providers
    // (the tier-1 virtual AS in the converted topology).  A mere
    // max-BFS-level pick can land on a mid-level peering-clique virtual AS
    // that happens to sit at the same depth, which would strand the ID in
    // a tiny non-global ring.
    std::optional<Anchor> root;
    Anchor fallback{up.nodes.front(), 0};
    for (const AsIndex a : up.nodes) {
      const unsigned lvl = up.level.at(a);
      if (lvl > fallback.level) fallback = Anchor{a, lvl};
      const auto provs = work_.providers(a);
      const bool is_root = std::none_of(
          provs.begin(), provs.end(), [&](AsIndex p) {
            return work_.as_up(p) && work_.link_up(a, p);
          });
      if (!is_root) continue;
      if (!root.has_value() || lvl > root->level ||
          (lvl == root->level && work_.is_virtual(a) &&
           !work_.is_virtual(root->as))) {
        root = Anchor{a, lvl};
      }
    }
    return root.value_or(fallback);
  };

  switch (strategy) {
    case JoinStrategy::kEphemeral:
      // Global successor only (section 6.3, "ephemeral" joining strategy).
      out.push_back(top_anchor());
      break;
    case JoinStrategy::kSingleHomed: {
      // One path toward the core: the internal ring plus a deterministic
      // primary-provider chain.
      AsIndex cur = home;
      unsigned lvl = 0;
      out.push_back(Anchor{cur, lvl});
      while (true) {
        const auto provs = work_.providers(cur);
        AsIndex next = graph::kInvalidAs;
        // Forced first hop (multi-address multihoming / TE suffixes).
        if (lvl == 0 && via_provider.has_value()) {
          if (work_.as_up(*via_provider) && work_.link_up(cur, *via_provider) &&
              work_.relationship(cur, *via_provider) ==
                  graph::AsRel::kProvider) {
            ++lvl;
            out.push_back(Anchor{*via_provider, lvl});
            cur = *via_provider;
            continue;
          }
        }
        for (const AsIndex p : provs) {
          if (!work_.as_up(p) || !work_.link_up(cur, p)) continue;
          // Prefer real providers; fall back to a virtual AS (the peering
          // clique) to reach the global ring from the top tier.
          if (next == graph::kInvalidAs) next = p;
          if (!work_.is_virtual(p) && work_.is_virtual(next)) next = p;
          if (!work_.is_virtual(p) && p < next && !work_.is_virtual(next)) {
            next = p;
          }
        }
        if (next == graph::kInvalidAs) break;
        ++lvl;
        out.push_back(Anchor{next, lvl});
        cur = next;
      }
      break;
    }
    case JoinStrategy::kRecursiveMultihomed:
      // All ASes above in the topology, excluding joins across peering
      // links (virtual ASes) -- except top-level virtual ASes, without
      // which the rings of different tier-1 subtrees would never merge.
      for (const AsIndex a : up.nodes) {
        const bool top_virtual =
            work_.is_virtual(a) && work_.providers(a).empty();
        if (work_.is_virtual(a) && !top_virtual) continue;
        out.push_back(Anchor{a, up.level.at(a)});
      }
      break;
    case JoinStrategy::kPeering:
      // Joins across all adjacent peering links too: every member of the
      // converted up-hierarchy.  Under the bloom peering mode this
      // deliberately degenerates to the multihomed join (the optimization
      // the paper reports in figure 8a).
      for (const AsIndex a : up.nodes) {
        out.push_back(Anchor{a, up.level.at(a)});
      }
      break;
  }
  std::sort(out.begin(), out.end(), [](const Anchor& a, const Anchor& b) {
    if (a.level != b.level) return a.level < b.level;
    return a.as < b.as;
  });
  return out;
}

// ---------------------------------------------------------------------------
// ring registries

std::optional<std::pair<NodeId, AsIndex>> InterNetwork::ring_succ(
    AsIndex anchor, const NodeId& id) const {
  const auto& ring = nodes_[anchor].ring;
  if (ring.empty()) return std::nullopt;
  auto it = ring.upper_bound(id);
  if (it == ring.end()) it = ring.begin();
  if (it->first == id) {
    ++it;
    if (it == ring.end()) it = ring.begin();
  }
  if (it->first == id) return std::nullopt;  // only us
  return std::make_pair(it->first, it->second);
}

std::optional<std::pair<NodeId, AsIndex>> InterNetwork::ring_pred(
    AsIndex anchor, const NodeId& id) const {
  const auto& ring = nodes_[anchor].ring;
  if (ring.empty()) return std::nullopt;
  auto it = ring.lower_bound(id);
  if (it == ring.begin()) it = ring.end();
  --it;
  if (it->first == id) {
    if (it == ring.begin()) it = ring.end();
    --it;
  }
  if (it->first == id) return std::nullopt;
  return std::make_pair(it->first, it->second);
}

std::size_t InterNetwork::ring_size(AsIndex anchor) const {
  return nodes_[anchor].ring.size();
}

// ---------------------------------------------------------------------------
// pointer maintenance

std::uint32_t InterNetwork::rebuild_pointers(InterVNode& vn) {
  std::vector<LevelPointer> fresh;
  for (const auto& [anchor, level] : vn.anchors) {
    if (!work_.as_up(anchor)) continue;
    const auto s = ring_succ(anchor, vn.id);
    if (!s.has_value()) continue;
    // Prune (Algorithm 3): the pointer is redundant only if a kept pointer
    // at a lower anchor *on the same up-path* (i.e. inside this anchor's
    // subtree) already targets the same successor.  Comparing across sibling
    // branches would wrongly drop pointers of multihomed IDs.
    const bool redundant = std::any_of(
        fresh.begin(), fresh.end(), [&](const LevelPointer& p) {
          return p.target == s->first &&
                 (p.anchor == anchor || is_ancestor(anchor, p.anchor));
        });
    if (redundant) continue;
    auto route = route_to_target(vn.home, anchor, s->first, s->second);
    if (!route.has_value() || !route_live(work_, *route)) continue;
    fresh.push_back(LevelPointer{anchor, level, s->first, s->second,
                                 std::move(*route)});
  }
  std::uint32_t changed = 0;
  if (fresh.size() != vn.successors.size()) {
    changed = static_cast<std::uint32_t>(
        std::max(fresh.size(), vn.successors.size()));
  } else {
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (fresh[i].target != vn.successors[i].target ||
          fresh[i].anchor != vn.successors[i].anchor ||
          fresh[i].target_home != vn.successors[i].target_home) {
        ++changed;
      }
    }
  }
  if (changed > 0) {
    vn.successors = std::move(fresh);
    reindex_as(vn.home);
  }
  return changed;
}

std::optional<AsRoute> InterNetwork::route_to_target(AsIndex from,
                                                     AsIndex anchor,
                                                     const NodeId& id,
                                                     AsIndex home) const {
  const auto hv = nodes_[home].hosted.find(id);
  if (hv != nodes_[home].hosted.end() && hv->second.via_provider.has_value() &&
      anchor != home) {
    const AsIndex via = *hv->second.via_provider;
    if (work_.as_up(via) && work_.link_up(home, via)) {
      auto head = build_route(work_, from, anchor, via, /*use_backup=*/false,
                              &climbs_);
      if (head.has_value()) {
        head->push_back(home);
        return head;
      }
    }
    // The preferred access branch is down: fall back to any live descent
    // (the ID re-anchors over surviving providers, section 2.3).
  }
  return build_route(work_, from, anchor, home, /*use_backup=*/false,
                     &climbs_);
}

void InterNetwork::index_vnode(const InterVNode& vn) {
  auto& known = nodes_[vn.home].known;
  auto add = [&](const NodeId& id, AsIndex home, AsIndex anchor) {
    auto& entry = known[id];
    entry.home = home;
    if (anchor != graph::kInvalidAs &&
        std::find(entry.anchors.begin(), entry.anchors.end(), anchor) ==
            entry.anchors.end()) {
      entry.anchors.push_back(anchor);
    }
  };
  // The hosted ID itself: anchored at its home (usable in any subtree that
  // contains the home AS).
  add(vn.id, vn.home, vn.home);
  for (const LevelPointer& p : vn.successors) {
    add(p.target, p.target_home, p.anchor);
  }
  for (const Finger& f : vn.fingers) {
    add(f.target, f.target_home, f.anchor);
  }
}

void InterNetwork::reindex_as(AsIndex as) {
  nodes_[as].known.clear();
  for (const auto& [id, vn] : nodes_[as].hosted) index_vnode(vn);
}

// ---------------------------------------------------------------------------
// lookups

std::uint64_t InterNetwork::simulate_lookup(AsIndex from, const NodeId& target,
                                            AsIndex anchor) const {
  const auto pred = ring_pred(anchor, target);
  if (!pred.has_value()) {
    // Empty ring at this level: the join registers with the anchor via the
    // provider chain (bootstrap registration, section 4.1 "Joining").
    const auto up = build_route(work_, from, anchor, anchor,
                                /*use_backup=*/false, &climbs_);
    return up.has_value() ? physical_hops(work_, *up) : 0;
  }
  const AsIndex pred_home = pred->second;
  AsIndex cur = from;
  std::uint64_t msgs = 0;
  NodeId best = max_distance();
  for (std::uint32_t guard = 0; guard < kMaxSegments; ++guard) {
    if (cur == pred_home) return msgs;
    const auto cand = best_candidate(cur, target, anchor);
    bool moved = false;
    if (cand.has_value()) {
      const NodeId d = NodeId::distance_cw(cand->id, target);
      if (d < best && cand->home != cur) {
        msgs += route_hops(cand->route);
        cur = cand->home;
        best = d;
        moved = true;
      }
    }
    if (!moved) {
      // No local progress: fall back to the bootstrap path -- climb to the
      // anchor and descend to a registered member (the anchor keeps a short
      // list of identifiers in its subtree for exactly this purpose).
      const auto boot = build_route(work_, cur, anchor, pred_home,
                                    /*use_backup=*/false, &climbs_);
      if (!boot.has_value()) return msgs;
      msgs += physical_hops(work_, *boot);
      return msgs;
    }
  }
  return msgs;
}

InterNetwork::WireExchange InterNetwork::reliable_exchange(
    std::uint64_t msgs, const wire::msg::ControlMessage& m) {
  WireExchange ex;
  // Every AS-level leg of the exchange carries the same typed frame; encode
  // it once and charge its size per transmitted leg.
  const std::vector<std::uint8_t> frame = simwire::encode(
      m, NodeId{}, NodeId{}, sim_.metrics(), encode_failures_id_);
  if (frame.empty()) return ex;
  const std::uint64_t packets = wire::hop_packets(frame.size());
  if (faults_ == nullptr || !faults_->message_faults_enabled() || msgs == 0) {
    assert(wire::msg::decode_control(frame).has_value());
    ex.msgs = msgs * packets;
    ex.bytes = msgs * frame.size();
    ex.ok = true;
    return ex;
  }
  // The interdomain model is message-count-abstract, so loss applies per
  // AS-level transmission: an attempt survives only if every one of its
  // `msgs` legs does, and a lost one charges the legs sent before the drop.
  ex.ok = simwire::retry(cfg_.retry, *faults_, [&] {
            const sim::PathDecision d = faults_->on_path(msgs);
            ex.msgs += d.transmissions * packets;
            ex.bytes += d.transmissions * frame.size();
            if (d.dropped) return simwire::Delivery::kLost;
            if (!simwire::receive(frame, faults_).has_value()) {
              sim_.metrics().add(codec_rejected_id_);
              return simwire::Delivery::kLost;
            }
            return simwire::Delivery::kDelivered;
          }).outcome == simwire::Delivery::kDelivered;
  return ex;
}

// ---------------------------------------------------------------------------
// fingers

void InterNetwork::select_fingers(InterVNode& vn) {
  if (cfg_.fingers_per_id == 0) return;
  const unsigned b = cfg_.finger_digit_bits;
  vn.fingers.clear();

  // Section 4.1: "ROFL tries to select fingers at each level of the
  // hierarchy", preferring entries reachable via the fewest up-links.  We
  // therefore fill one prefix table per anchor, lowest level first, from the
  // IDs registered in that anchor's ring (so every finger target lies inside
  // the anchor's subtree and using it can never violate isolation).
  for (const auto& [anchor, level] : vn.anchors) {
    if (vn.fingers.size() >= cfg_.fingers_per_id) break;
    if (!work_.as_up(anchor)) continue;
    const auto& ring = nodes_[anchor].ring;
    if (ring.size() < 2) continue;
    unsigned empty_rows = 0;
    for (unsigned i = 0; i + b <= 128 && empty_rows < 2 &&
                         vn.fingers.size() < cfg_.fingers_per_id;
         i += b) {
      const std::uint64_t own_digit = vn.id.digit(i, b);
      bool row_hit = false;
      for (std::uint64_t j = 0; j < (1ull << b); ++j) {
        if (j == own_digit) continue;
        if (vn.fingers.size() >= cfg_.fingers_per_id) break;
        const NodeId lo = NodeId::compose(vn.id, i, j, b, /*fill_ones=*/false);
        const NodeId hi = NodeId::compose(vn.id, i, j, b, /*fill_ones=*/true);
        const auto it = ring.lower_bound(lo);
        if (it == ring.end() || it->first > hi || it->first == vn.id) continue;
        auto route = route_to_target(vn.home, anchor, it->first, it->second);
        if (!route.has_value()) continue;
        vn.fingers.push_back(Finger{i, j, it->first, it->second, anchor,
                                    level, std::move(*route)});
        row_hit = true;
      }
      empty_rows = row_hit ? 0 : empty_rows + 1;
    }
  }
}

// ---------------------------------------------------------------------------
// join

InterJoinStats InterNetwork::join_host(const Identity& ident, AsIndex home,
                                       JoinStrategy strategy) {
  InterJoinStats stats;
  const NodeId id = ident.id();
  if (home >= base_copy_.as_count() || !work_.as_up(home)) return stats;
  if (directory_.contains(id)) return stats;

  // Self-certification check at the hosting router (section 2.1).
  const std::uint64_t nonce = rng_.next_u64();
  if (!verify_ownership(id, ident.public_key(), nonce, ident.prove(nonce),
                        ident.private_key())) {
    return stats;
  }
  stats = join_id(id, home, strategy, std::nullopt);
  if (stats.ok) identities_.emplace(id, ident);
  return stats;
}

InterJoinStats InterNetwork::join_group_id(const NodeId& id, AsIndex home,
                                           JoinStrategy strategy,
                                           std::optional<AsIndex> via_provider) {
  if (home >= base_copy_.as_count() || !work_.as_up(home)) return {};
  if (directory_.contains(id)) return {};
  return join_id(id, home, strategy, via_provider);
}

InterJoinStats InterNetwork::join_id(const NodeId& id, AsIndex home,
                                     JoinStrategy strategy,
                                     std::optional<AsIndex> via_provider) {
  InterJoinStats stats;
  stats.messages += 1;  // host -> hosting router
  // The interdomain host announces itself with a bare join request (fingers
  // ride the intradomain exchange, section 6.3).
  stats.bytes += wire::msg::control_wire_size(wire::msg::JoinRequest{});

  InterVNode vn;
  vn.id = id;
  vn.home = home;
  vn.strategy = strategy;
  vn.via_provider = via_provider;
  const auto anchors = anchors_for(home, strategy, via_provider);
  if (anchors.empty()) return stats;

  // Locate the predecessor at each level (Algorithm 3), bottom-up, charging
  // the walk unless the level's successor repeats the previous one and the
  // redundant-lookup optimization is on (section 6.3).  Under a fault
  // injector each level's exchange runs through retry-with-backoff; a level
  // whose retries are exhausted is skipped -- the ID joins the rings it
  // could reach, and the next repair() pass re-drives the missing levels.
  std::optional<NodeId> prev_succ;
  bool prev_valid = false;
  std::vector<Anchor> joined;
  joined.reserve(anchors.size());
  for (const Anchor& a : anchors) {
    const auto s = ring_succ(a.as, id);
    const bool redundant = cfg_.prune_redundant_lookups && prev_valid &&
                           s.has_value() && prev_succ.has_value() &&
                           s->first == *prev_succ;
    if (!redundant) {
      // Each leg of the merge exchange carries a ring-merge registration.
      const wire::msg::RingMerge rm{
          .id = id,
          .home_as = home,
          .anchor_as = a.as,
          .level = static_cast<std::uint16_t>(a.level),
          .op = 0};
      const WireExchange ex =
          reliable_exchange(simulate_lookup(home, id, a.as) + 1, rm);
      stats.messages += ex.msgs;
      stats.bytes += ex.bytes;
      if (!ex.ok) continue;
    }
    prev_succ = s.has_value() ? std::optional<NodeId>(s->first) : std::nullopt;
    prev_valid = true;
    nodes_[a.as].ring[id] = home;
    joined.push_back(a);
  }
  if (joined.empty()) {
    // Every level was lost: the join failed outright, leaving no partial
    // state behind.  The retransmission traffic is still charged.
    sim_.counters().add(sim::MsgCategory::kJoin, stats.messages);
    sim_.counters().add_bytes(sim::MsgCategory::kJoin, stats.bytes);
    return stats;
  }
  for (const Anchor& a : joined) vn.anchors.emplace_back(a.as, a.level);

  directory_[id] = home;
  strategies_[id] = strategy;

  // Install our own pruned successor set and splice ourselves into each
  // predecessor's state.
  (void)rebuild_pointers(vn);
  select_fingers(vn);
  stats.messages += vn.fingers.size();  // finger acquisition traffic
  stats.bytes +=
      vn.fingers.size() * wire::msg::control_wire_size(wire::msg::Locate{});
  auto [it, inserted] = nodes_[home].hosted.emplace(id, std::move(vn));
  assert(inserted);
  index_vnode(it->second);
  // Record this ID at every finger target ("list of IDs pointing to it",
  // section 4.1) so targets can tear our fingers down when they depart.
  for (const Finger& f : it->second.fingers) {
    const auto tv = nodes_[f.target_home].hosted.find(f.target);
    if (tv != nodes_[f.target_home].hosted.end()) {
      tv->second.finger_back_refs.insert(id);
    }
  }

  for (const Anchor& a : joined) {
    const auto p = ring_pred(a.as, id);
    if (!p.has_value()) continue;
    auto& pred_node = nodes_[p->second];
    const auto pv = pred_node.hosted.find(p->first);
    if (pv == pred_node.hosted.end()) continue;
    const std::uint32_t changed = rebuild_pointers(pv->second);
    stats.messages += changed;
    stats.bytes +=
        changed * wire::msg::control_wire_size(wire::msg::PointerInstall{});
  }

  // Subtree bloom summaries along the whole up-hierarchy.
  if (nodes_[home].subtree_bloom != nullptr) {
    const auto up = work_.up_hierarchy(home, /*include_backup=*/false);
    for (const AsIndex a : up.nodes) {
      if (nodes_[a].subtree_bloom != nullptr) {
        nodes_[a].subtree_bloom->insert(id);
      }
    }
  }

  sim_.counters().add(sim::MsgCategory::kJoin, stats.messages);
  sim_.counters().add_bytes(sim::MsgCategory::kJoin, stats.bytes);
  stats.ok = true;
  if (obs::Tracer* t = sim_.tracer()) {
    t->instant("inter.join", "interdomain", sim_.now_ms() * 1000.0,
               /*track=*/3,
               {obs::TraceArg{"home", std::uint64_t{home}},
                obs::TraceArg{"messages", stats.messages}});
  }
  return stats;
}

InterJoinStats InterNetwork::join_random_host(JoinStrategy strategy) {
  const Identity ident = Identity::generate(rng_);
  // Weight the home AS by host count (skitter-style distribution).
  const std::uint64_t total = base_copy_.total_hosts();
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::uint64_t pick = rng_.below(std::max<std::uint64_t>(1, total));
    AsIndex home = 0;
    for (AsIndex a = 0; a < base_copy_.as_count(); ++a) {
      const std::uint64_t h = base_copy_.host_count(a);
      if (pick < h) {
        home = a;
        break;
      }
      pick -= h;
    }
    if (work_.as_up(home)) return join_host(ident, home, strategy);
  }
  return {};
}

InterRepairStats InterNetwork::leave_host(NodeId id) {
  InterRepairStats stats;
  const auto dir = directory_.find(id);
  if (dir == directory_.end()) return stats;
  const AsIndex home = dir->second;
  const auto hv = nodes_[home].hosted.find(id);
  if (hv == nodes_[home].hosted.end()) return stats;

  const auto anchors = hv->second.anchors;
  const std::set<NodeId> back_refs = std::move(hv->second.finger_back_refs);
  nodes_[home].hosted.erase(hv);
  directory_.erase(dir);
  identities_.erase(id);
  strategies_.erase(id);
  reindex_as(home);

  // Tear down fingers pointing at the departed ID (the back-reference list
  // of section 4.1); one notification per owner.
  for (const NodeId& owner : back_refs) {
    const auto odir = directory_.find(owner);
    if (odir == directory_.end()) continue;
    auto& onode = nodes_[odir->second];
    const auto ov = onode.hosted.find(owner);
    if (ov == onode.hosted.end()) continue;
    const std::size_t before = ov->second.fingers.size();
    std::erase_if(ov->second.fingers,
                  [&](const Finger& f) { return f.target == id; });
    if (ov->second.fingers.size() != before) {
      ++stats.messages;
      stats.bytes += wire::msg::control_wire_size(
          wire::msg::Teardown{.id = id, .reason = 1});
      reindex_as(odir->second);
    }
  }
  // Cached pointers to the departed ID are purged lazily network-wide.
  for (auto& node : nodes_) {
    if (node.cache.erase(id) > 0) std::erase(node.cache_fifo, id);
  }

  for (const auto& [anchor, level] : anchors) {
    nodes_[anchor].ring.erase(id);
    ++stats.pointers_torn;
    stats.messages += 1;  // teardown toward the level predecessor
    stats.bytes += wire::msg::control_wire_size(
        wire::msg::Teardown{.id = id, .reason = 1});
    const auto p = ring_pred(anchor, id);
    if (!p.has_value()) continue;
    auto& pred_node = nodes_[p->second];
    const auto pv = pred_node.hosted.find(p->first);
    if (pv == pred_node.hosted.end()) continue;
    const std::uint32_t changed = rebuild_pointers(pv->second);
    stats.messages += changed;
    stats.bytes +=
        changed * wire::msg::control_wire_size(wire::msg::PointerInstall{});
  }
  sim_.counters().add(sim::MsgCategory::kTeardown, stats.messages);
  sim_.counters().add_bytes(sim::MsgCategory::kTeardown, stats.bytes);
  return stats;
}

// ---------------------------------------------------------------------------
// data plane

std::optional<InterNetwork::RCandidate> InterNetwork::best_candidate(
    AsIndex as, const NodeId& dest, std::optional<AsIndex> within) const {
  const AsNode& node = nodes_[as];
  std::optional<RCandidate> best;

  auto consider = [&](const NodeId& id, AsIndex home, AsRoute route) {
    if (home == as) return;  // self entries offer no movement
    if (best.has_value() && !NodeId::closer_to(dest, id, best->id)) return;
    if (!route_live(work_, route)) return;
    best = RCandidate{id, home, std::move(route)};
  };

  // Greedy index scan: walk backwards from dest, stopping at the first
  // entries that satisfy the subtree constraint.  Routing at level
  // `within` only visits members of ring(within): a sub-ring member that
  // never merged into the constraining ring (a single-homed ID whose chain
  // exits via a sibling branch) would be a dead end for the walk.  The
  // membership is owner-visible state -- ring neighbors exchange anchor
  // sets during joins and maintenance.
  if (!node.known.empty()) {
    auto it = node.known.upper_bound(dest);
    std::size_t scanned = 0;
    const std::size_t max_scan = node.known.size();
    while (scanned < max_scan) {
      if (it == node.known.begin()) it = node.known.end();
      --it;
      ++scanned;
      const auto& [id, entry] = *it;
      if (within.has_value() && !nodes_[*within].ring.contains(id)) continue;
      if (entry.home != as) {
        AsIndex use_anchor = graph::kInvalidAs;
        for (const AsIndex a : entry.anchors) {
          if (!within.has_value() || is_ancestor(*within, a) || a == *within) {
            use_anchor = a;
            break;
          }
        }
        if (use_anchor != graph::kInvalidAs) {
          auto route = route_to_target(as, use_anchor, id, entry.home);
          if (route.has_value()) {
            consider(id, entry.home, std::move(*route));
            // Sorted scan: once a candidate was accepted it is the closest
            // usable one; a rejected route (dead links) keeps the scan going.
            if (best.has_value()) break;
          }
        }
      } else if (id == dest) {
        break;  // hosted here; caller handles delivery
      }
    }
  }

  // Pointer cache (figure 8c), guarded by the subtree bloom (section 4.1):
  // free to shortcut only when dest is not below this AS.
  if (cfg_.cache_capacity_per_as > 0 && !node.cache.empty()) {
    const bool below =
        node.subtree_bloom != nullptr && node.subtree_bloom->may_contain(dest);
    if (!below) {
      auto it = node.cache.upper_bound(dest);
      if (it == node.cache.begin()) it = node.cache.end();
      --it;
      const auto& [cid, chome] = *it;
      if (within.has_value() && !nodes_[*within].ring.contains(cid)) {
        // skip non-members (see above)
      } else if (chome != as &&
                 (!within.has_value() || is_ancestor(*within, chome))) {
        // Route via the lowest common ancestor.
        const auto up = work_.up_hierarchy(as, /*include_backup=*/false);
        std::vector<std::pair<unsigned, AsIndex>> ordered;
        for (const AsIndex a : up.nodes) ordered.emplace_back(up.level.at(a), a);
        std::sort(ordered.begin(), ordered.end());
        for (const auto& [lvl, anc] : ordered) {
          if (!is_ancestor(anc, chome)) continue;
          if (within.has_value() && !(is_ancestor(*within, anc) || anc == *within)) {
            continue;
          }
          auto route = route_to_target(as, anc, cid, chome);
          if (route.has_value()) consider(cid, chome, std::move(*route));
          break;
        }
      }
    }
  }
  return best;
}

void InterNetwork::cache_insert(AsIndex as, const NodeId& id, AsIndex home) {
  if (cfg_.cache_capacity_per_as == 0 || as == home) return;
  auto& node = nodes_[as];
  if (node.cache.contains(id)) return;
  if (node.cache.size() >= cfg_.cache_capacity_per_as &&
      !node.cache_fifo.empty()) {
    node.cache.erase(node.cache_fifo.front());
    node.cache_fifo.erase(node.cache_fifo.begin());
  }
  node.cache.emplace(id, home);
  node.cache_fifo.push_back(id);
}

void InterNetwork::record_hop(std::uint64_t trace_id, obs::HopKind kind,
                              AsIndex as, const NodeId& chased) {
  if (recorder_ == nullptr) return;
  recorder_->record(obs::HopRecord{
      .trace_id = trace_id,
      .t_ms = sim_.now_ms(),
      .domain = obs::HopDomain::kInter,
      .node = as,
      .category = static_cast<std::uint8_t>(sim::MsgCategory::kData),
      .kind = kind,
      .chased = chased});
}

InterRouteStats InterNetwork::route(AsIndex src_as, const NodeId& dest,
                                    std::vector<AsIndex>* traversed,
                                    std::uint64_t trace_id) {
  std::vector<AsIndex> local_trace;
  std::vector<AsIndex>* trace = traversed != nullptr ? traversed : &local_trace;
  trace->push_back(src_as);
  InterRouteStats stats;
  sim_.metrics().add(routes_id_);
  if (recorder_ != nullptr) {
    stats.trace_id = trace_id != 0 ? trace_id : recorder_->new_trace();
  }
  record_hop(stats.trace_id, obs::HopKind::kStart, src_as, dest);

  std::vector<AsIndex> crossed_peers;
  if (work_.as_up(src_as)) {
    if (nodes_[src_as].hosted.contains(dest)) {
      stats.delivered = true;
      record_hop(stats.trace_id, obs::HopKind::kDeliver, src_as, dest);
    } else {
      // Canon-style level escalation: walk the source's up-hierarchy in BFS
      // (level) order and commit to the first ancestor whose ring registers
      // the destination -- the earliest common ancestor on any provider
      // branch -- then route greedily *within that subtree*.  This is what
      // gives ROFL its isolation property (section 4.1).  Registration
      // probes are control messages, not data-path hops.  In bloom peering
      // mode each ancestor also consults its peers' subtree filters before
      // relaying further upward (section 4.2), backtracking on a false
      // positive.
      const auto up = work_.up_hierarchy(src_as);
      std::uint32_t probes = 0;
      for (const AsIndex a : up.nodes) {
        ++probes;
        if (nodes_[a].ring.contains(dest) ||
            (a == src_as && nodes_[a].hosted.contains(dest))) {
          record_hop(stats.trace_id, obs::HopKind::kLevelEscalate, a, dest);
          const InterRouteStats sub =
              route_constrained(src_as, dest, a, trace, stats.trace_id);
          stats.as_hops += sub.as_hops;
          stats.segments += sub.segments;
          if (sub.delivered) {
            stats.delivered = true;
            break;
          }
          continue;  // stale registration: keep escalating
        }
        if (cfg_.peering_mode != PeeringMode::kBloom) continue;
        bool delivered_via_peer = false;
        for (const AsIndex peer : base_copy_.peers(a)) {
          if (!base_copy_.as_up(peer) || !base_copy_.link_up(a, peer)) continue;
          if (nodes_[peer].subtree_bloom == nullptr ||
              !nodes_[peer].subtree_bloom->may_contain(dest)) {
            continue;
          }
          // Climb to the ancestor, cross the peering link, and search only
          // the peer's down-hierarchy.
          const auto climb = build_route(work_, src_as, a, a,
                                         /*use_backup=*/false, &climbs_);
          if (!climb.has_value() || !route_live(work_, *climb)) continue;
          const std::uint32_t climb_hops = physical_hops(work_, *climb) + 1;
          stats.as_hops += climb_hops;
          ++stats.peer_links_used;
          for (std::size_t i = 1; i < climb->size(); ++i) {
            trace->push_back((*climb)[i]);
          }
          trace->push_back(peer);
          crossed_peers.push_back(peer);
          sim_.metrics().add(peer_crossings_id_);
          record_hop(stats.trace_id, obs::HopKind::kPeeringCross, peer, dest);
          const InterRouteStats sub =
              route_constrained(peer, dest, peer, trace, stats.trace_id);
          stats.as_hops += sub.as_hops;
          stats.segments += sub.segments;
          if (sub.delivered) {
            stats.delivered = true;
            delivered_via_peer = true;
            break;
          }
          // False positive: the packet returns over the same path and the
          // escalation continues (both directions charged).
          stats.as_hops += sub.as_hops + climb_hops;
          ++stats.backtracks;
          sim_.metrics().add(backtracks_id_);
        }
        if (delivered_via_peer) break;
      }
      sim_.counters().add(sim::MsgCategory::kControl, probes);
      sim_.counters().add_bytes(
          sim::MsgCategory::kControl,
          probes * wire::msg::control_wire_size(
                       wire::msg::Locate{.target = dest, .purpose = 2}));
      sim_.metrics().add(probes_id_, probes);
    }
  }
  if (stats.delivered) {
    sim_.metrics().add(delivered_id_);
  } else {
    record_hop(stats.trace_id, obs::HopKind::kDrop, src_as, dest);
  }

  // Stretch baseline: shortest valley-free BGP path on the raw topology.
  const auto dst_home = home_of(dest);
  if (dst_home.has_value()) {
    stats.bgp_hops = bgp_policy_hops(base_copy_, src_as, *dst_home).value_or(0);
  }

  // Isolation check (section 4.1): every traversed AS must fall under some
  // earliest common ancestor of source and destination.
  if (stats.delivered && dst_home.has_value()) {
    const auto up_s = work_.up_hierarchy(src_as, /*include_backup=*/false);
    // The destination participates only in the rings it joined (its anchor
    // set); isolation is relative to that merged hierarchy.  For multihomed
    // and peering joins the anchor set equals the full up-hierarchy; for
    // single-homed and ephemeral joins it is the joined chain.
    std::vector<AsIndex> dst_anchors;
    if (const InterVNode* dv = find_vnode(dest)) {
      for (const auto& [a, lvl] : dv->anchors) dst_anchors.push_back(a);
    } else {
      const auto up_d = work_.up_hierarchy(*dst_home, /*include_backup=*/false);
      dst_anchors = up_d.nodes;
    }
    std::vector<AsIndex> common;
    for (const AsIndex a : up_s.nodes) {
      if (std::find(dst_anchors.begin(), dst_anchors.end(), a) !=
          dst_anchors.end()) {
        common.push_back(a);
      }
    }
    // "Earliest" common ancestors: the ones fewest provider-levels above
    // the source (with multihoming several branches can tie).  The
    // guarantee is that the data path stays inside the subtree of one of
    // these nearest common ancestors.
    unsigned best_level = ~0u;
    for (const AsIndex w : common) {
      best_level = std::min(best_level, up_s.level.at(w));
    }
    std::vector<AsIndex> minimal;
    for (const AsIndex w : common) {
      if (up_s.level.at(w) == best_level) minimal.push_back(w);
    }
    for (const AsIndex t : *trace) {
      if (work_.is_virtual(t)) continue;
      bool covered = std::any_of(
          minimal.begin(), minimal.end(),
          [&](AsIndex w) { return is_ancestor(w, t); });
      // Under the bloom peering rule the packet may legitimately climb the
      // source's own up-hierarchy, cross a peering link, and descend the
      // peer's subtree -- that is the containment guarantee for peered
      // traffic (section 4.2), including pairs with no common provider
      // ancestor at all.
      if (!covered && !crossed_peers.empty()) {
        covered = up_s.contains(t) ||
                  std::any_of(crossed_peers.begin(), crossed_peers.end(),
                              [&](AsIndex p) { return is_ancestor(p, t); });
      }
      if (!covered) {
        stats.isolation_held = false;
        break;
      }
    }
    // Populate caches along the traversed path (control/forwarding driven
    // cache fill, section 4.1 "Exploiting reference locality").
    if (cfg_.cache_capacity_per_as > 0) {
      for (const AsIndex t : *trace) {
        if (!work_.is_virtual(t)) cache_insert(t, dest, *dst_home);
      }
    }
  }
  sim_.counters().add(sim::MsgCategory::kData, stats.as_hops);
  sim_.counters().add_bytes(sim::MsgCategory::kData,
                            std::uint64_t{stats.as_hops} * data_frame_bytes_);
  return stats;
}

InterRouteStats InterNetwork::route_constrained(
    AsIndex src_as, const NodeId& dest, std::optional<AsIndex> within,
    std::vector<AsIndex>* traversed, std::uint64_t trace_id) {
  InterRouteStats stats;
  stats.trace_id = trace_id;
  if (!work_.as_up(src_as)) return stats;
  AsIndex cur = src_as;
  NodeId committed = max_distance();
  bool bootstrapped = false;

  for (std::uint32_t seg = 0; seg < kMaxSegments; ++seg) {
    if (nodes_[cur].hosted.contains(dest)) {
      stats.delivered = true;
      record_hop(trace_id, obs::HopKind::kDeliver, cur, dest);
      return stats;
    }
    const auto cand = best_candidate(cur, dest, within);
    const bool progress =
        cand.has_value() && NodeId::distance_cw(cand->id, dest) < committed;
    if (!progress) {
      // Bootstrap via the anchor's short registration list (section 4.1:
      // "their providers need only maintain a short list of such
      // identifiers"): when the current AS holds no useful pointers -- e.g.
      // right after crossing a peering link, or when the source AS itself
      // hosts no identifiers -- the packet is handed to the ring's
      // smallest-ID member (the zero node of section 3.2) and greedy
      // routing continues from there.  One bootstrap per descent.
      if (within.has_value() && !bootstrapped) {
        bootstrapped = true;
        const auto& ring = nodes_[*within].ring;
        if (!ring.empty() && ring.begin()->second != cur) {
          const auto [zid, zhome] = *ring.begin();
          auto boot = route_to_target(cur, *within, zid, zhome);
          if (boot.has_value() && route_live(work_, *boot)) {
            record_hop(trace_id, obs::HopKind::kBootstrap, cur, zid);
            stats.as_hops += route_hops(*boot);
            ++stats.segments;
            for (std::size_t i = 1; i < boot->size(); ++i) {
              traversed->push_back((*boot)[i]);
            }
            // The jump is not necessarily numeric progress; reset the
            // greedy bound to the zero node's position.
            committed = NodeId::distance_cw(zid, dest);
            cur = zhome;
            continue;
          }
        }
      }
      return stats;  // no way forward: dest absent from this subtree
    }

    committed = NodeId::distance_cw(cand->id, dest);
    record_hop(trace_id, obs::HopKind::kRingPointer, cur, cand->id);
    stats.as_hops += route_hops(cand->route);
    ++stats.segments;
    for (std::size_t i = 1; i < cand->route.size(); ++i) {
      traversed->push_back(cand->route[i]);
      record_hop(trace_id, obs::HopKind::kForward, cand->route[i], cand->id);
    }
    cur = cand->home;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// failures

void InterNetwork::reanchor_all(InterRepairStats& stats) {
  // Section 2.3 "Recovering": after AS-level topology changes, an AS prunes
  // G_X to working links and redetermines the successors of its IDs over
  // that graph.  Recompute each hosted ID's anchor set, fix the ring
  // registrations, and rebuild its pointers; only actual changes are
  // charged.
  // Pass 1: fix anchor sets and ring registrations everywhere, so pass 2
  // rebuilds pointers against fully updated registries.
  for (AsIndex home = 0; home < work_.as_count(); ++home) {
    if (!work_.as_up(home)) continue;
    for (auto& [id, vn] : nodes_[home].hosted) {
      // Virtual-server copies keep the customer's anchor set pinned: the
      // whole point of the mechanism is that the rings do not churn.
      if (vn.virtual_server_for.has_value()) continue;
      const auto fresh = anchors_for(home, vn.strategy, vn.via_provider);
      std::vector<std::pair<AsIndex, unsigned>> fresh_pairs;
      fresh_pairs.reserve(fresh.size());
      for (const Anchor& a : fresh) fresh_pairs.emplace_back(a.as, a.level);
      if (fresh_pairs == vn.anchors) continue;
      for (const auto& [anchor, level] : vn.anchors) {
        const bool kept = std::any_of(
            fresh_pairs.begin(), fresh_pairs.end(),
            [&, anchor = anchor](const auto& f) { return f.first == anchor; });
        if (!kept) {
          nodes_[anchor].ring.erase(id);
          ++stats.pointers_torn;
          ++stats.messages;  // deregistration / teardown
          stats.bytes += wire::msg::control_wire_size(
              wire::msg::RingMerge{.id = id, .op = 1});
        }
      }
      // Register at the new anchors.  Under a fault injector a registration
      // can fail despite retries; it is then left out of the recorded anchor
      // set, so the comparison above keeps failing and the next repair pass
      // retries it (convergence once the loss clears).
      std::vector<std::pair<AsIndex, unsigned>> registered;
      registered.reserve(fresh_pairs.size());
      for (const auto& [anchor, level] : fresh_pairs) {
        if (nodes_[anchor].ring.contains(id)) {
          registered.emplace_back(anchor, level);
          continue;
        }
        const wire::msg::RingMerge rm{
            .id = id,
            .home_as = home,
            .anchor_as = anchor,
            .level = static_cast<std::uint16_t>(level),
            .op = 0};
        const WireExchange ex =
            reliable_exchange(simulate_lookup(home, id, anchor), rm);
        stats.messages += ex.msgs;
        stats.bytes += ex.bytes;
        if (!ex.ok) continue;
        nodes_[anchor].ring[id] = home;
        registered.emplace_back(anchor, level);
      }
      vn.anchors = std::move(registered);
    }
  }
  // Pass 2: rebuild every vnode's pointer set; only changes are charged.
  for (AsIndex home = 0; home < work_.as_count(); ++home) {
    if (!work_.as_up(home)) continue;
    bool touched = false;
    for (auto& [id, vn] : nodes_[home].hosted) {
      const std::uint32_t changed = rebuild_pointers(vn);
      if (changed > 0) {
        stats.pointers_torn += changed;
        stats.messages += changed;
        stats.bytes +=
            changed * wire::msg::control_wire_size(wire::msg::Repair{});
        touched = true;
      }
    }
    if (touched) reindex_as(home);
  }
  // Pass 3: refresh subtree bloom summaries along each ID's *current*
  // up-hierarchy.  A restored link or AS can add ancestors that never saw
  // the ID's join-time insertion, and a bloom false negative breaks the
  // soundness guarantee the summaries are routed on.  Insertion is
  // idempotent, so re-inserting everything is safe; stale positives left at
  // former ancestors are allowed (blooms cannot delete) and only cost a
  // wasted probe.
  for (AsIndex home = 0; home < work_.as_count(); ++home) {
    if (!work_.as_up(home) || nodes_[home].subtree_bloom == nullptr) continue;
    if (nodes_[home].hosted.empty()) continue;
    const auto up = work_.up_hierarchy(home, /*include_backup=*/false);
    for (const AsIndex a : up.nodes) {
      if (nodes_[a].subtree_bloom == nullptr) continue;
      for (const auto& [id, vn] : nodes_[home].hosted) {
        nodes_[a].subtree_bloom->insert(id);
      }
    }
  }
  if (obs::Tracer* t = sim_.tracer()) {
    t->instant("inter.reanchor", "interdomain", sim_.now_ms() * 1000.0,
               /*track=*/3,
               {obs::TraceArg{"messages", stats.messages},
                obs::TraceArg{"pointers_torn",
                              std::uint64_t{stats.pointers_torn}}});
  }
}

InterRepairStats InterNetwork::repair() {
  InterRepairStats stats;
  reanchor_all(stats);
  sim_.counters().add(sim::MsgCategory::kRepair, stats.messages);
  sim_.counters().add_bytes(sim::MsgCategory::kRepair, stats.bytes);
  return stats;
}

InterRepairStats InterNetwork::fail_as(AsIndex as) {
  InterRepairStats stats;
  if (as >= base_copy_.as_count() || !base_copy_.as_up(as)) return stats;
  base_copy_.set_as_up(as, false);
  work_.set_as_up(as, false);
  masks_valid_ = false;
  climbs_.clear();

  // IDs hosted at the failed AS disappear from every ring they joined.
  std::vector<NodeId> dead;
  for (const auto& [id, vn] : nodes_[as].hosted) {
    dead.push_back(id);
    for (const auto& [anchor, level] : vn.anchors) {
      nodes_[anchor].ring.erase(id);
    }
  }
  stats.ids_lost = static_cast<std::uint32_t>(dead.size());
  for (const NodeId& id : dead) directory_.erase(id);

  // Remote pointers to (or through) the failed AS are torn down, fingers
  // pruned, and every surviving ID's anchors/registrations re-derived over
  // the pruned graph; overhead tracks the number of dead identifiers, as
  // section 6.3 reports.
  for (AsIndex a = 0; a < work_.as_count(); ++a) {
    if (a == as || !work_.as_up(a)) continue;
    bool touched = false;
    for (auto& [id, vn] : nodes_[a].hosted) {
      const std::size_t nf = vn.fingers.size();
      std::erase_if(vn.fingers, [&](const Finger& f) {
        return f.target_home == as ||
               std::find(f.route.begin(), f.route.end(), as) != f.route.end();
      });
      if (nf != vn.fingers.size()) touched = true;
    }
    if (touched) reindex_as(a);
    // Cached pointers to dead IDs are dropped lazily; drop eagerly here.
    for (const NodeId& id : dead) {
      if (nodes_[a].cache.erase(id) > 0) {
        std::erase(nodes_[a].cache_fifo, id);
      }
    }
  }
  reanchor_all(stats);
  sim_.counters().add(sim::MsgCategory::kRepair, stats.messages);
  sim_.counters().add_bytes(sim::MsgCategory::kRepair, stats.bytes);
  return stats;
}

InterRepairStats InterNetwork::fail_as_with_virtual_servers(
    AsIndex customer, AsIndex provider) {
  InterRepairStats stats;
  if (customer >= base_copy_.as_count() || !base_copy_.as_up(customer)) {
    return stats;
  }
  if (provider >= work_.as_count() || !work_.as_up(provider)) return stats;
  if (base_copy_.relationship(customer, provider) != graph::AsRel::kProvider) {
    return stats;  // virtual servers live at a direct provider
  }

  // Migrate each hosted vnode to the provider: same ID, same registrations,
  // new home.  One transfer message per ID (state shipped over the access
  // link before it goes dark / from the provider's standing copy).
  std::vector<NodeId> moved;
  for (auto& [id, vn] : nodes_[customer].hosted) {
    InterVNode copy = vn;
    copy.home = provider;
    copy.via_provider.reset();
    copy.virtual_server_for = customer;
    nodes_[provider].hosted.emplace(id, std::move(copy));
    directory_[id] = provider;
    for (const auto& [anchor, level] : vn.anchors) {
      auto it = nodes_[anchor].ring.find(id);
      if (it != nodes_[anchor].ring.end()) it->second = provider;
    }
    moved.push_back(id);
    ++stats.messages;
    // The transfer re-registers the ID's ring entries under the provider.
    stats.bytes += wire::msg::control_wire_size(wire::msg::RingMerge{
        .id = id, .home_as = provider, .anchor_as = customer, .op = 0});
  }
  nodes_[customer].hosted.clear();
  nodes_[customer].known.clear();
  virtual_server_host_[customer] = provider;

  base_copy_.set_as_up(customer, false);
  work_.set_as_up(customer, false);
  masks_valid_ = false;
  climbs_.clear();
  // The customer's own anchor (its internal ring) is down; re-derive
  // pointers.  Because every migrated ID keeps its higher-level
  // registrations, remote state barely changes.
  reanchor_all(stats);
  reindex_as(provider);
  stats.ids_lost = 0;  // nothing lost: that is the point
  (void)moved;
  sim_.counters().add(sim::MsgCategory::kRepair, stats.messages);
  sim_.counters().add_bytes(sim::MsgCategory::kRepair, stats.bytes);
  return stats;
}

InterRepairStats InterNetwork::restore_as(AsIndex as) {
  InterRepairStats stats;
  if (as >= base_copy_.as_count() || base_copy_.as_up(as)) return stats;
  base_copy_.set_as_up(as, true);
  work_.set_as_up(as, true);
  masks_valid_ = false;
  climbs_.clear();

  // Virtual-server return: migrate the IDs back from the provider; their
  // ring registrations never churned, so this is a re-point, not a rejoin.
  const auto vs = virtual_server_host_.find(as);
  if (vs != virtual_server_host_.end()) {
    const AsIndex provider = vs->second;
    std::vector<NodeId> coming_home;
    for (const auto& [id, vn] : nodes_[provider].hosted) {
      if (vn.virtual_server_for == as) coming_home.push_back(id);
    }
    for (const NodeId& id : coming_home) {
      auto node = nodes_[provider].hosted.extract(id);
      node.mapped().home = as;
      node.mapped().virtual_server_for.reset();
      nodes_[as].hosted.insert(std::move(node));
      directory_[id] = as;
      for (const auto& [anchor, level] : nodes_[as].hosted.at(id).anchors) {
        auto it = nodes_[anchor].ring.find(id);
        if (it != nodes_[anchor].ring.end()) it->second = as;
      }
      ++stats.messages;
      stats.bytes += wire::msg::control_wire_size(wire::msg::RingMerge{
          .id = id, .home_as = as, .anchor_as = provider, .op = 0});
    }
    virtual_server_host_.erase(vs);
    reindex_as(provider);
    reindex_as(as);
    reanchor_all(stats);
    sim_.counters().add(sim::MsgCategory::kRepair, stats.messages);
  sim_.counters().add_bytes(sim::MsgCategory::kRepair, stats.bytes);
    return stats;
  }

  // Rejoin the IDs that were hosted here.
  std::vector<std::pair<Identity, JoinStrategy>> rejoin;
  for (const auto& [id, vn] : nodes_[as].hosted) {
    const auto it = identities_.find(id);
    if (it != identities_.end()) {
      rejoin.emplace_back(it->second, strategies_.at(id));
    }
  }
  nodes_[as].hosted.clear();
  nodes_[as].known.clear();
  for (auto& [ident, strategy] : rejoin) {
    identities_.erase(ident.id());
    strategies_.erase(ident.id());
    const InterJoinStats js = join_host(ident, as, strategy);
    stats.messages += js.messages;
  }
  // IDs elsewhere whose up-hierarchies regained this AS re-register and
  // re-derive pointers (zero-ID style convergence at each level).
  reanchor_all(stats);
  return stats;
}

InterRepairStats InterNetwork::fail_link(AsIndex a, AsIndex b) {
  InterRepairStats stats;
  base_copy_.set_link_up(a, b, false);
  work_.set_link_up(a, b, false);
  masks_valid_ = false;
  climbs_.clear();
  reanchor_all(stats);
  sim_.counters().add(sim::MsgCategory::kRepair, stats.messages);
  sim_.counters().add_bytes(sim::MsgCategory::kRepair, stats.bytes);
  return stats;
}

InterRepairStats InterNetwork::restore_link(AsIndex a, AsIndex b) {
  InterRepairStats stats;
  base_copy_.set_link_up(a, b, true);
  work_.set_link_up(a, b, true);
  masks_valid_ = false;
  climbs_.clear();
  // Zero-ID style reconvergence at each level: registrations and pointers
  // re-derive over the restored graph.
  reanchor_all(stats);
  sim_.counters().add(sim::MsgCategory::kRepair, stats.messages);
  sim_.counters().add_bytes(sim::MsgCategory::kRepair, stats.bytes);
  return stats;
}

// ---------------------------------------------------------------------------
// introspection

std::optional<AsIndex> InterNetwork::home_of(const NodeId& id) const {
  const auto it = directory_.find(id);
  if (it == directory_.end()) return std::nullopt;
  return it->second;
}

const InterVNode* InterNetwork::find_vnode(const NodeId& id) const {
  const auto home = home_of(id);
  if (!home.has_value()) return nullptr;
  const auto it = nodes_[*home].hosted.find(id);
  return it == nodes_[*home].hosted.end() ? nullptr : &it->second;
}

bool InterNetwork::verify_rings(std::string* err,
                                std::size_t max_anchors) const {
  std::size_t checked = 0;
  for (AsIndex anchor = 0; anchor < work_.as_count(); ++anchor) {
    const auto& ring = nodes_[anchor].ring;
    if (ring.size() < 2 || !work_.as_up(anchor)) continue;
    if (max_anchors > 0 && checked >= max_anchors) break;
    ++checked;
    for (auto it = ring.begin(); it != ring.end(); ++it) {
      const auto& [id, home] = *it;
      const auto expect = ring_succ(anchor, id);
      const auto hv = nodes_[home].hosted.find(id);
      if (hv == nodes_[home].hosted.end()) {
        if (err != nullptr) {
          std::ostringstream os;
          os << "ring@" << anchor << " lists " << id << " but AS " << home
             << " does not host it";
          *err = os.str();
        }
        return false;
      }
      // Derived successor at this level: closest target among pointers
      // anchored within subtree(anchor) whose target is itself a member of
      // this ring.  (With mixed join strategies, lower rings are not
      // subsets of higher ones -- e.g. a multihomed ID skips virtual-AS
      // rings -- so the membership filter is required.)
      std::optional<NodeId> derived;
      for (const LevelPointer& p : hv->second.successors) {
        if (!(is_ancestor(anchor, p.anchor) || p.anchor == anchor)) continue;
        if (!ring.contains(p.target)) continue;
        if (!derived.has_value() ||
            NodeId::distance_cw(id, p.target) <
                NodeId::distance_cw(id, *derived)) {
          derived = p.target;
        }
      }
      if (!expect.has_value()) continue;
      if (!derived.has_value() || *derived != expect->first) {
        if (err != nullptr) {
          std::ostringstream os;
          os << "ring@" << anchor << " member " << id
             << " derived successor mismatch (expected " << expect->first;
          if (derived.has_value()) os << ", got " << *derived;
          os << ")";
          *err = os.str();
        }
        return false;
      }
    }
  }
  return true;
}

std::uint64_t InterNetwork::total_pointer_count() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) {
    for (const auto& [id, vn] : node.hosted) n += vn.successors.size();
  }
  return n;
}

std::uint64_t InterNetwork::total_finger_count() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) {
    for (const auto& [id, vn] : node.hosted) n += vn.fingers.size();
  }
  return n;
}

double InterNetwork::mean_state_bits_per_as() const {
  std::uint64_t bits = 0;
  std::size_t live = 0;
  for (AsIndex a = 0; a < work_.as_count(); ++a) {
    if (!work_.as_up(a) || work_.is_virtual(a)) continue;
    ++live;
    const auto& node = nodes_[a];
    for (const auto& [id, vn] : node.hosted) {
      bits += 128;  // the resident ID
      for (const LevelPointer& p : vn.successors) {
        bits += 128 + 32 * static_cast<std::uint64_t>(p.route.size());
      }
      for (const Finger& f : vn.fingers) {
        bits += 128 + 32 * static_cast<std::uint64_t>(f.route.size());
      }
    }
    bits += 160 * static_cast<std::uint64_t>(node.ring.size());
    bits += 160 * static_cast<std::uint64_t>(node.cache.size());
  }
  return live == 0 ? 0.0 : static_cast<double>(bits) / static_cast<double>(live);
}

double InterNetwork::mean_bloom_bits_per_as() const {
  std::uint64_t bits = 0;
  std::size_t live = 0;
  for (AsIndex a = 0; a < work_.as_count(); ++a) {
    if (!work_.as_up(a) || work_.is_virtual(a)) continue;
    ++live;
    if (nodes_[a].subtree_bloom != nullptr) {
      bits += nodes_[a].subtree_bloom->bit_count();
    }
  }
  return live == 0 ? 0.0 : static_cast<double>(bits) / static_cast<double>(live);
}

}  // namespace rofl::inter
