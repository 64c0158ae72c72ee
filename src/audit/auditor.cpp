#include "audit/auditor.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace rofl::audit {

namespace {

sim::Simulator& driver_sim(intra::Network* net, inter::InterNetwork* inter) {
  return net != nullptr ? net->simulator() : inter->simulator();
}

// FNV-1a 64, rendered as hex; good enough for a run-to-run equality gate.
std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = kDigits[v & 0xF];
  return out;
}

}  // namespace

std::string_view to_string(Severity s) {
  return s == Severity::kHard ? "hard" : "soft";
}

std::size_t AuditReport::hard_count() const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(), [](const Violation& v) {
        return v.severity == Severity::kHard;
      }));
}

std::size_t AuditReport::soft_count() const {
  return violations.size() - hard_count();
}

std::string AuditReport::to_string() const {
  std::string out = "audit #" + std::to_string(audit_index) + " @ " +
                    std::to_string(t_ms) + "ms: " + std::to_string(checks) +
                    " checks, ";
  if (clean()) {
    out += "clean\n";
    return out;
  }
  out += std::to_string(violations.size()) + " violations (" +
         std::to_string(hard_count()) + " hard, " +
         std::to_string(soft_count()) + " soft)\n";
  for (const Violation& v : violations) {
    out += "  [";
    out += audit::to_string(v.severity);
    out += "] " + v.check + ": " + v.detail;
    if (v.trace_id != 0) out += " (trace " + std::to_string(v.trace_id) + ")";
    out += "\n";
  }
  return out;
}

Auditor::Auditor(intra::Network* net, inter::InterNetwork* inter,
                 intra::SessionManager* sessions)
    : net_(net), inter_(inter), sessions_(sessions) {
  assert(net_ != nullptr || inter_ != nullptr);
  obs::Registry& reg = driver_sim(net_, inter_).metrics();
  runs_id_ = reg.counter("audit.runs");
  hard_id_ = reg.counter("audit.hard");
  soft_id_ = reg.counter("audit.soft");
}

bool Auditor::lossy() const {
  const auto active = [](const sim::FaultInjector* f) {
    return f != nullptr && f->message_faults_enabled();
  };
  return (net_ != nullptr && active(net_->fault_injector())) ||
         (inter_ != nullptr && active(inter_->fault_injector()));
}

void Auditor::add(AuditReport& report, Severity severity, std::string check,
                  std::string detail, obs::HopDomain domain, std::uint32_t node,
                  const NodeId& subject) {
  std::uint64_t tid = 0;
  // Prefer the recorder of the engine the violation belongs to; fall back to
  // any installed recorder (they are usually shared anyway).
  obs::FlightRecorder* rec = nullptr;
  if (domain == obs::HopDomain::kInter && inter_ != nullptr) {
    rec = inter_->flight_recorder();
  }
  if (rec == nullptr && net_ != nullptr) rec = net_->flight_recorder();
  if (rec == nullptr && inter_ != nullptr) rec = inter_->flight_recorder();
  if (rec != nullptr) {
    tid = rec->new_trace();
    obs::HopRecord hr;
    hr.trace_id = tid;
    hr.t_ms = driver_sim(net_, inter_).now_ms();
    hr.domain = domain;
    hr.node = node;
    hr.category = static_cast<std::uint8_t>(sim::MsgCategory::kControl);
    hr.kind = obs::HopKind::kAuditViolation;
    hr.chased = subject;
    rec->record(hr);
  }
  report.violations.push_back(
      Violation{severity, std::move(check), std::move(detail), tid});
}

AuditReport Auditor::run() {
  AuditReport rep;
  rep.t_ms = driver_sim(net_, inter_).now_ms();
  rep.audit_index = audits_run_;
  if (net_ != nullptr) check_intra(rep);
  if (sessions_ != nullptr) check_sessions(rep);
  if (inter_ != nullptr) check_inter(rep);
  ++audits_run_;
  const std::size_t hard = rep.hard_count();
  const std::size_t soft = rep.soft_count();
  total_hard_ += hard;
  total_soft_ += soft;
  obs::Registry& reg = driver_sim(net_, inter_).metrics();
  reg.add(runs_id_, 1);
  if (hard != 0) reg.add(hard_id_, hard);
  if (soft != 0) reg.add(soft_id_, soft);
  reports_.push_back(rep);
  return rep;
}

void Auditor::schedule_every(double interval_ms, double until_ms) {
  // A step that is not positive never passes the horizon.
  if (!(interval_ms > 0.0)) return;
  sim::Simulator& sim = driver_sim(net_, inter_);
  for (std::uint64_t k = 1;; ++k) {
    const double t = interval_ms * static_cast<double>(k);
    if (t > until_ms) break;
    sim.schedule_at(t, [this] { (void)run(); });
  }
}

std::string Auditor::reports_digest() const {
  std::uint64_t h = 0xCBF29CE484222325ull;
  std::uint64_t hard = 0;
  std::uint64_t soft = 0;
  for (const AuditReport& rep : reports_) {
    h = fnv1a(h, "audit#" + std::to_string(rep.audit_index) + "@" +
                     std::to_string(rep.t_ms) +
                     ":checks=" + std::to_string(rep.checks));
    for (const Violation& v : rep.violations) {
      // trace_id deliberately excluded: the digest must be identical whether
      // or not a flight recorder happens to be installed.
      h = fnv1a(h, std::string(";") + std::string(audit::to_string(v.severity)) +
                       " " + v.check + " " + v.detail);
    }
    hard += rep.hard_count();
    soft += rep.soft_count();
  }
  return "n=" + std::to_string(reports_.size()) + ";hard=" +
         std::to_string(hard) + ";soft=" + std::to_string(soft) + ";fnv=" +
         hex64(h);
}

// ---------------------------------------------------------------------------
// intradomain

void Auditor::check_intra(AuditReport& rep) {
  std::string err;
  ++rep.checks;
  if (!net_->verify_rings(&err)) {
    add(rep, lossy() ? Severity::kSoft : Severity::kHard, "intra.ring.order",
        err, obs::HopDomain::kIntra, 0, kZeroId);
  }
  check_intra_ring(rep);
  check_intra_directory(rep);
  check_intra_caches(rep);
  check_intra_ephemerals(rep);
}

void Auditor::check_intra_ring(AuditReport& rep) {
  const Severity racy = lossy() ? Severity::kSoft : Severity::kHard;
  const auto& dir = net_->directory();
  const graph::Graph& g = net_->topology().graph;
  for (graph::NodeIndex i = 0; i < net_->router_count(); ++i) {
    if (!g.node_up(i)) continue;  // a dark router's state is inert until
                                  // restore_router scrubs it
    const intra::Router& r = net_->router(i);
    for (const auto& [id, vn] : r.vnodes()) {
      if (vn.host_class == intra::HostClass::kEphemeral) continue;
      for (std::size_t s = 0; s < vn.successors.size(); ++s) {
        const intra::NeighborPtr& p = vn.successors[s];
        ++rep.checks;
        const auto it = dir.find(p.id);
        if (it == dir.end()) {
          add(rep, racy, "intra.ring.dangling",
              "router " + std::to_string(i) + " vnode " + id.to_string() +
                  " successor[" + std::to_string(s) + "] names departed ID " +
                  p.id.to_string(),
              obs::HopDomain::kIntra, i, p.id);
          continue;
        }
        if (it->second != p.host) {
          // The first successor drives forwarding and teardown; deeper group
          // members are refreshed lazily from the head, so only succ0 is
          // load-bearing at every instant.
          add(rep, s == 0 ? racy : Severity::kSoft, "intra.ring.host-hint",
              "router " + std::to_string(i) + " vnode " + id.to_string() +
                  " successor[" + std::to_string(s) + "] " + p.id.to_string() +
                  " points at router " + std::to_string(p.host) +
                  " but the ID lives at " + std::to_string(it->second),
              obs::HopDomain::kIntra, i, p.id);
        }
      }
      // Bidirectional agreement on the ring edge: succ0's predecessor must
      // name this vnode (checked only when the two routers can currently
      // talk; cross-partition pointers are torn, not stale).
      if (const intra::NeighborPtr* s0 = vn.first_successor()) {
        const auto it = dir.find(s0->id);
        if (it != dir.end() && it->second == s0->host && g.node_up(s0->host) &&
            net_->map().reachable(i, s0->host)) {
          ++rep.checks;
          const intra::VirtualNode* sv =
              net_->router(s0->host).find_vnode(s0->id);
          if (sv != nullptr) {
            if (!sv->predecessor.has_value()) {
              add(rep, racy, "intra.ring.pred-agreement",
                  "vnode " + s0->id.to_string() + " at router " +
                      std::to_string(s0->host) +
                      " has no predecessor but is successor0 of " +
                      id.to_string() + " at router " + std::to_string(i),
                  obs::HopDomain::kIntra, static_cast<std::uint32_t>(s0->host),
                  s0->id);
            } else if (sv->predecessor->id != id) {
              add(rep, racy, "intra.ring.pred-agreement",
                  "vnode " + s0->id.to_string() + " at router " +
                      std::to_string(s0->host) + " names predecessor " +
                      sv->predecessor->id.to_string() + " but is successor0 of " +
                      id.to_string() + " at router " + std::to_string(i),
                  obs::HopDomain::kIntra, static_cast<std::uint32_t>(s0->host),
                  s0->id);
            }
          }
        }
      }
      if (vn.predecessor.has_value()) {
        ++rep.checks;
        if (!dir.contains(vn.predecessor->id)) {
          add(rep, racy, "intra.ring.pred-dangling",
              "router " + std::to_string(i) + " vnode " + id.to_string() +
                  " predecessor names departed ID " +
                  vn.predecessor->id.to_string(),
              obs::HopDomain::kIntra, i, vn.predecessor->id);
        }
      }
    }
  }
}

void Auditor::check_intra_directory(AuditReport& rep) {
  const auto& dir = net_->directory();
  const graph::Graph& g = net_->topology().graph;
  // Directory entries are maintained synchronously by join/leave/fail paths
  // (no message can be lost between the state change and the bookkeeping),
  // so residency stays hard even under an active fault injector.
  for (const auto& [id, host] : dir) {
    ++rep.checks;
    if (host >= net_->router_count() || !g.node_up(host)) {
      add(rep, Severity::kHard, "intra.dir.down-host",
          "directory maps " + id.to_string() + " to dark router " +
              std::to_string(host),
          obs::HopDomain::kIntra, static_cast<std::uint32_t>(host), id);
      continue;
    }
    if (net_->router(host).find_vnode(id) == nullptr) {
      add(rep, Severity::kHard, "intra.dir.no-vnode",
          "directory maps " + id.to_string() + " to router " +
              std::to_string(host) + " but no vnode is resident there",
          obs::HopDomain::kIntra, static_cast<std::uint32_t>(host), id);
    }
  }
  for (graph::NodeIndex i = 0; i < net_->router_count(); ++i) {
    if (!g.node_up(i)) continue;
    for (const auto& [id, vn] : net_->router(i).vnodes()) {
      ++rep.checks;
      const auto it = dir.find(id);
      if (it == dir.end() || it->second != i) {
        add(rep, Severity::kHard, "intra.dir.unregistered",
            "router " + std::to_string(i) + " hosts vnode " + id.to_string() +
                (it == dir.end() ? " absent from the directory"
                                 : " which the directory maps to router " +
                                       std::to_string(it->second)),
            obs::HopDomain::kIntra, i, id);
      }
    }
  }
}

void Auditor::check_intra_caches(AuditReport& rep) {
  const auto& dir = net_->directory();
  const graph::Graph& g = net_->topology().graph;
  for (graph::NodeIndex i = 0; i < net_->router_count(); ++i) {
    if (!g.node_up(i)) continue;
    const intra::PointerCache& c = net_->router(i).cache();
    ++rep.checks;
    if (!c.invariants_ok()) {
      add(rep, Severity::kHard, "intra.cache.struct",
          "pointer cache at router " + std::to_string(i) +
              " failed its structural self-check",
          obs::HopDomain::kIntra, i, kZeroId);
    }
    c.for_each([&](const intra::CacheEntry& e) {
      ++rep.checks;
      // Shape is pinned by cache_along_path: the cached route is the IGP-path
      // suffix from the caching router to the host.
      if (e.path.empty() || e.path.front() != i || e.path.back() != e.host) {
        add(rep, Severity::kHard, "intra.cache.route-shape",
            "cache entry " + e.id.to_string() + " at router " +
                std::to_string(i) + " has a malformed source route (" +
                std::to_string(e.path.size()) + " hops, host " +
                std::to_string(e.host) + ")",
            obs::HopDomain::kIntra, i, e.id);
        return;
      }
      // LSA-driven purges are synchronous, so no entry may traverse a dead
      // link or router at any instant -- hard even under message loss.
      if (!net_->map().route_valid(e.path)) {
        add(rep, Severity::kHard, "intra.cache.route-dead",
            "cache entry " + e.id.to_string() + " at router " +
                std::to_string(i) + " rides a source route crossing dead " +
                "links (LSA purge missed it)",
            obs::HopDomain::kIntra, i, e.id);
        return;
      }
      // Staleness toward a departed/rehomed ID is expected (reverse-path
      // caching cannot be purged globally); it is torn down on first use.
      const auto it = dir.find(e.id);
      if (it == dir.end()) {
        add(rep, Severity::kSoft, "intra.cache.stale-id",
            "cache entry at router " + std::to_string(i) +
                " points at departed ID " + e.id.to_string(),
            obs::HopDomain::kIntra, i, e.id);
        return;
      }
      if (it->second != e.host) {
        add(rep, Severity::kSoft, "intra.cache.stale-host",
            "cache entry " + e.id.to_string() + " at router " +
                std::to_string(i) + " names router " + std::to_string(e.host) +
                " but the ID lives at " + std::to_string(it->second),
            obs::HopDomain::kIntra, i, e.id);
      }
    });
  }
}

void Auditor::check_intra_ephemerals(AuditReport& rep) {
  const auto& dir = net_->directory();
  const graph::Graph& g = net_->topology().graph;
  std::map<NodeId, std::vector<graph::NodeIndex>> anchors;
  for (graph::NodeIndex i = 0; i < net_->router_count(); ++i) {
    if (!g.node_up(i)) continue;
    for (const auto& [eid, egw] : net_->router(i).ephemeral_backpointers()) {
      anchors[eid].push_back(i);
      ++rep.checks;
      bool live = egw < net_->router_count() && g.node_up(egw);
      if (live) {
        const intra::VirtualNode* evn = net_->router(egw).find_vnode(eid);
        live = evn != nullptr &&
               evn->host_class == intra::HostClass::kEphemeral;
      }
      // A stale backpointer is lazily repaired: the forwarder tears it down
      // on first use and falls back to greedy routing.
      if (!live) {
        add(rep, Severity::kSoft, "intra.ephemeral.stale",
            "router " + std::to_string(i) + " anchors ephemeral " +
                eid.to_string() + " at router " + std::to_string(egw) +
                " which no longer hosts it",
            obs::HopDomain::kIntra, i, eid);
      }
    }
  }
  for (const auto& [eid, where] : anchors) {
    ++rep.checks;
    if (where.size() > 1) {
      std::string routers;
      for (const graph::NodeIndex w : where) {
        if (!routers.empty()) routers += ",";
        routers += std::to_string(w);
      }
      add(rep, Severity::kSoft, "intra.ephemeral.duplicate-anchor",
          "ephemeral " + eid.to_string() + " is anchored at routers " + routers,
          obs::HopDomain::kIntra, static_cast<std::uint32_t>(where.front()),
          eid);
    }
  }
  for (graph::NodeIndex i = 0; i < net_->router_count(); ++i) {
    if (!g.node_up(i)) continue;
    for (const auto& [id, vn] : net_->router(i).vnodes()) {
      if (vn.host_class != intra::HostClass::kEphemeral) continue;
      if (!dir.contains(id)) continue;  // flagged by the directory converse
      ++rep.checks;
      if (!anchors.contains(id)) {
        add(rep, Severity::kSoft, "intra.ephemeral.unanchored",
            "ephemeral " + id.to_string() + " at router " + std::to_string(i) +
                " has no backpointer anywhere (unreachable until repair)",
            obs::HopDomain::kIntra, i, id);
      }
    }
  }
}

void Auditor::check_sessions(AuditReport& rep) {
  if (net_ == nullptr) return;
  const auto& dir = net_->directory();
  for (const auto& [id, s] : sessions_->sessions_) {
    if (s.gateway == graph::kInvalidNode) continue;  // not yet ticked
    ++rep.checks;
    const auto it = dir.find(id);
    // Both shapes self-heal on the session's next keepalive tick (retire /
    // rehome), so they are staleness, not corruption.
    if (it == dir.end()) {
      add(rep, Severity::kSoft, "session.orphan",
          "session tracks " + id.to_string() +
              " which has left the ring (retires on next tick)",
          obs::HopDomain::kIntra, static_cast<std::uint32_t>(s.gateway), id);
    } else if (it->second != s.gateway) {
      add(rep, Severity::kSoft, "session.stale-gateway",
          "session for " + id.to_string() + " last saw gateway " +
              std::to_string(s.gateway) + " but the ID now lives at " +
              std::to_string(it->second),
          obs::HopDomain::kIntra, static_cast<std::uint32_t>(s.gateway), id);
    }
  }
}

// ---------------------------------------------------------------------------
// interdomain

void Auditor::check_inter(AuditReport& rep) {
  const Severity racy = lossy() ? Severity::kSoft : Severity::kHard;
  std::string err;
  ++rep.checks;
  if (!inter_->verify_rings(&err)) {
    add(rep, racy, "inter.ring.order", err, obs::HopDomain::kInter, 0,
        kZeroId);
  }
  const auto& dir = inter_->directory_;
  const graph::AsTopology& work = inter_->work_;
  const std::size_t as_count = inter_->nodes_.size();

  for (const auto& [id, home] : dir) {
    ++rep.checks;
    if (static_cast<std::size_t>(home) >= as_count || !work.as_up(home)) {
      add(rep, Severity::kHard, "inter.dir.down-home",
          "directory maps " + id.to_string() + " to dark AS " +
              std::to_string(home),
          obs::HopDomain::kInter, static_cast<std::uint32_t>(home), id);
      continue;
    }
    if (!inter_->nodes_[home].hosted.contains(id)) {
      add(rep, Severity::kHard, "inter.dir.no-vnode",
          "directory maps " + id.to_string() + " to AS " +
              std::to_string(home) + " but no vnode is hosted there",
          obs::HopDomain::kInter, static_cast<std::uint32_t>(home), id);
    }
  }

  for (std::size_t ai = 0; ai < as_count; ++ai) {
    const auto a = static_cast<graph::AsIndex>(ai);
    if (!work.as_up(a)) continue;
    const auto& n = inter_->nodes_[ai];

    for (const auto& [id, vn] : n.hosted) {
      ++rep.checks;
      const auto it = dir.find(id);
      if (it == dir.end() || it->second != a) {
        add(rep, Severity::kHard, "inter.dir.unregistered",
            "AS " + std::to_string(a) + " hosts " + id.to_string() +
                (it == dir.end() ? " absent from the directory"
                                 : " which the directory maps to AS " +
                                       std::to_string(it->second)),
            obs::HopDomain::kInter, a, id);
      }
      // Every anchor the vnode claims must hold a matching ring
      // registration (a dropped registration message legitimately leaves
      // this dangling until repair() -- hence the lossy downgrade).
      for (const auto& [anchor, level] : vn.anchors) {
        ++rep.checks;
        if (static_cast<std::size_t>(anchor) >= as_count) continue;
        const auto& ring = inter_->nodes_[anchor].ring;
        const auto rit = ring.find(id);
        if (rit == ring.end()) {
          add(rep, racy, "inter.ring.missing",
              id.to_string() + " claims anchor AS " + std::to_string(anchor) +
                  " (level " + std::to_string(level) +
                  ") but is not in that ring registry",
              obs::HopDomain::kInter, static_cast<std::uint32_t>(anchor), id);
        } else if (rit->second != a) {
          add(rep, racy, "inter.ring.home",
              "ring at AS " + std::to_string(anchor) + " records " +
                  id.to_string() + " at AS " + std::to_string(rit->second) +
                  " but it is hosted at AS " + std::to_string(a),
              obs::HopDomain::kInter, static_cast<std::uint32_t>(anchor), id);
        }
      }
      for (const inter::LevelPointer& lp : vn.successors) {
        ++rep.checks;
        const auto t = dir.find(lp.target);
        if (t == dir.end()) {
          add(rep, racy, "inter.ptr.dangling",
              id.to_string() + " at AS " + std::to_string(a) +
                  " holds a level-" + std::to_string(lp.level) +
                  " pointer to departed ID " + lp.target.to_string(),
              obs::HopDomain::kInter, a, lp.target);
          continue;
        }
        if (t->second != lp.target_home) {
          add(rep, racy, "inter.ptr.home",
              id.to_string() + " at AS " + std::to_string(a) +
                  " points at " + lp.target.to_string() + " via AS " +
                  std::to_string(lp.target_home) + " but the ID lives at AS " +
                  std::to_string(t->second),
              obs::HopDomain::kInter, a, lp.target);
          continue;
        }
        if (!lp.route.empty() &&
            (lp.route.front() != a || lp.route.back() != lp.target_home)) {
          add(rep, racy, "inter.ptr.route",
              id.to_string() + " at AS " + std::to_string(a) +
                  " holds a source route that does not run owner->target (" +
                  std::to_string(lp.route.front()) + ".." +
                  std::to_string(lp.route.back()) + ")",
              obs::HopDomain::kInter, a, lp.target);
        }
      }
      for (const inter::Finger& f : vn.fingers) {
        ++rep.checks;
        const auto t = dir.find(f.target);
        // Finger back-refs make teardown notify finger owners, so a
        // dangling finger is real breakage fault-free.
        if (t == dir.end()) {
          add(rep, racy, "inter.finger.dangling",
              id.to_string() + " at AS " + std::to_string(a) +
                  " holds a finger to departed ID " + f.target.to_string(),
              obs::HopDomain::kInter, a, f.target);
        } else if (t->second != f.target_home) {
          add(rep, Severity::kSoft, "inter.finger.home",
              id.to_string() + " finger to " + f.target.to_string() +
                  " names AS " + std::to_string(f.target_home) +
                  " but the ID lives at AS " + std::to_string(t->second),
              obs::HopDomain::kInter, a, f.target);
        }
      }
    }

    for (const auto& [id, host] : n.ring) {
      ++rep.checks;
      const auto it = dir.find(id);
      if (it == dir.end()) {
        add(rep, racy, "inter.registry.dead-id",
            "ring registry at AS " + std::to_string(a) +
                " names departed ID " + id.to_string(),
            obs::HopDomain::kInter, a, id);
        continue;
      }
      if (it->second != host) {
        add(rep, racy, "inter.registry.home",
            "ring registry at AS " + std::to_string(a) + " records " +
                id.to_string() + " at AS " + std::to_string(host) +
                " but the directory says AS " + std::to_string(it->second),
            obs::HopDomain::kInter, a, id);
        continue;
      }
      if (static_cast<std::size_t>(host) >= as_count) continue;
      const auto hv = inter_->nodes_[host].hosted.find(id);
      if (hv == inter_->nodes_[host].hosted.end()) continue;  // dir.no-vnode
      ++rep.checks;
      const bool anchored = std::any_of(
          hv->second.anchors.begin(), hv->second.anchors.end(),
          [&](const std::pair<graph::AsIndex, unsigned>& p) {
            return p.first == a;
          });
      if (!anchored) {
        add(rep, racy, "inter.registry.unanchored",
            "ring registry at AS " + std::to_string(a) + " holds " +
                id.to_string() + " but the vnode does not list that anchor",
            obs::HopDomain::kInter, a, id);
      }
    }

    for (const auto& [id, home] : n.cache) {
      ++rep.checks;
      const auto it = dir.find(id);
      if (it == dir.end() || it->second != home) {
        add(rep, Severity::kSoft, "inter.cache.stale",
            "AS " + std::to_string(a) + " caches " + id.to_string() +
                " at AS " + std::to_string(home) +
                (it == dir.end() ? " (departed)" : " (rehomed)"),
            obs::HopDomain::kInter, a, id);
      }
    }
  }

  // Bloom soundness: a false negative breaks the peering shortcut silently
  // (the packet skips a subtree that does hold the ID), and no protocol rule
  // ever permits one -- hard even under loss.
  for (std::size_t hi = 0; hi < as_count; ++hi) {
    const auto home = static_cast<graph::AsIndex>(hi);
    if (!work.as_up(home)) continue;
    const auto& hosted = inter_->nodes_[hi].hosted;
    if (hosted.empty()) continue;
    const graph::UpHierarchy up = work.up_hierarchy(home, false);
    for (const graph::AsIndex a : up.nodes) {
      if (static_cast<std::size_t>(a) >= as_count) continue;
      if (inter_->nodes_[a].subtree_bloom == nullptr || !work.as_up(a)) {
        continue;
      }
      for (const auto& [id, vn] : hosted) {
        // Virtual-server IDs are pinned to the (dark) customer's hierarchy,
        // not the provider's, so the provider's ancestors owe them nothing.
        if (vn.virtual_server_for.has_value()) continue;
        ++rep.checks;
        if (!inter_->nodes_[a].subtree_bloom->may_contain(id)) {
          add(rep, Severity::kHard, "inter.bloom.negative",
              "subtree bloom at AS " + std::to_string(a) +
                  " reports false negative for " + id.to_string() +
                  " hosted in its subtree at AS " + std::to_string(home),
              obs::HopDomain::kInter, static_cast<std::uint32_t>(a), id);
        }
      }
    }
  }
}

}  // namespace rofl::audit
