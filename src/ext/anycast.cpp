#include "ext/anycast.hpp"

namespace rofl::ext {

intra::JoinStats anycast_join(intra::Network& net, const GroupId& g,
                              std::uint32_t suffix,
                              graph::NodeIndex gateway) {
  // Prove group-key ownership against a fresh nonce, then join the member
  // ID through the regular (G,x) hook.
  const std::uint64_t nonce = net.rng().next_u64();
  const OwnershipProof proof = g.identity().prove(nonce);
  if (!verify_ownership(g.identity().id(), g.identity().public_key(), nonce,
                        proof, g.identity().private_key())) {
    return {};
  }
  return net.join_group_id(g.with_suffix(suffix), g.identity().public_key(),
                           gateway);
}

AnycastResult anycast_route(intra::Network& net, graph::NodeIndex src,
                            const GroupId& g,
                            std::optional<std::uint32_t> preferred_suffix,
                            bool absorb_en_route) {
  AnycastResult res;
  if (src >= net.router_count() || !net.topology().graph.node_up(src)) {
    return res;
  }
  const NodeId steer =
      preferred_suffix.has_value() ? g.with_suffix(*preferred_suffix) : g.high();

  graph::NodeIndex cur = src;
  res.path.push_back(cur);
  NodeId committed = NodeId{}.minus(NodeId::from_u64(1));
  std::optional<intra::Candidate> chasing;

  const std::uint32_t guard = intra::kMaxForwardingHops;
  for (std::uint32_t step = 0; step < guard; ++step) {
    intra::Router& r = net.router(cur);
    // Delivery rule: the first router hosting any member of G absorbs the
    // packet ("the first server in G for which the packet encounters a
    // route").  In ownership mode, only the member owning the steering
    // suffix (the greedy target itself) may absorb.
    if (absorb_en_route) {
      for (const auto& [vid, vn] : r.vnodes()) {
        if (g.contains(vid)) {
          res.delivered = true;
          res.member = vid;
          return res;
        }
      }
    }
    // Greedy toward (G, r): routers treat all suffixes of G equally, so a
    // candidate inside the group counts as an exact hit to chase.
    const std::optional<intra::Candidate> vn = r.vn_best_match(steer);
    std::optional<intra::Candidate> cached;
    if (const intra::CacheEntry* e = r.cache().best_match(steer);
        e != nullptr && net.map().route_valid(e->path, e->route_up_at)) {
      cached = intra::Candidate{e->id, e->host, false};
    }
    bool switched = false;
    for (const auto& [c, from_cache] :
         intra::CandidatePair(steer, vn, cached)) {
      const NodeId d = NodeId::distance_cw(c.id, steer);
      if (d < committed) {
        chasing = c;
        committed = d;
        switched = true;
        break;
      }
    }
    if (!chasing.has_value()) return res;
    // Ownership mode: deliver as soon as the chased target is a group
    // member hosted right here (covers both arrival and the case where the
    // owner is resident at the current router).
    if (!absorb_en_route && g.contains(chasing->id) &&
        r.hosts(chasing->id)) {
      res.delivered = true;
      res.member = chasing->id;
      return res;
    }
    if (!switched && cur == chasing->host) {
      if (r.hosts(chasing->id)) {
        // In ownership mode the chased member absorbs on arrival; in absorb
        // mode arriving here with a non-member means the group is empty
        // around the steering point: a miss.
        if (!absorb_en_route && g.contains(chasing->id)) {
          res.delivered = true;
          res.member = chasing->id;
        }
        return res;
      }
      r.cache().erase(chasing->id);
      chasing.reset();
      committed = NodeId{}.minus(NodeId::from_u64(1));
      continue;
    }
    const auto next = net.map().next_hop(cur, chasing->host);
    if (!next.has_value() || *next == cur) {
      r.cache().erase(chasing->id);
      chasing.reset();
      continue;
    }
    cur = *next;
    res.path.push_back(cur);
    ++res.physical_hops;
    net.simulator().counters().add(sim::MsgCategory::kData, 1);
  }
  return res;
}

}  // namespace rofl::ext
