#include "net/mesh.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <map>
#include <ostream>
#include <thread>

#include "net/loopback.hpp"
#include "net/udp.hpp"
#include "proto/ring.hpp"
#include "util/rng.hpp"
#include "wire/packet.hpp"

namespace rofl::net {

namespace {

LiveRouterConfig router_config(const MeshConfig& cfg, RouterId self) {
  LiveRouterConfig rc;
  rc.self = self;
  rc.bootstrap = 0;
  rc.fingers = cfg.fingers;
  rc.max_outstanding = cfg.max_outstanding;
  rc.conditions = cfg.conditions;
  // Independent fault stream per router, derived from the mesh seed.
  rc.fault_seed = cfg.seed * 1'000'003ull + self + 1;
  rc.timeline_window_ms = cfg.timeline_window_ms;
  return rc;
}

/// Distributes identities: seeds host 0 at the bootstrap router, queues the
/// rest on their gateways.
void assign_hosts(const MeshConfig& cfg, std::vector<Identity> ids,
                  const std::vector<LiveRouter*>& routers) {
  for (std::uint32_t h = 0; h < ids.size(); ++h) {
    const RouterId gw = h % cfg.routers;
    // Entries for routers another process owns are null (spawn-mode workers
    // only instantiate their own router).
    if (h == 0) {
      if (routers[0] != nullptr) routers[0]->seed(ids[h]);
    } else if (routers[gw] != nullptr) {
      routers[gw]->enqueue_join(std::move(ids[h]));
    }
  }
}

void merge_router(MeshResult& result, LiveRouter& r) {
  result.metrics.merge_from(r.registry());
  result.joins_completed += r.joins_completed();
  if (result.timeline != nullptr && r.timeline() != nullptr) {
    result.timeline->merge_from(*r.timeline());
  }
}

MeshResult make_result(const MeshConfig& cfg) {
  MeshResult result;
  if (cfg.timeline_window_ms > 0.0) {
    obs::Timeline::Config tc;
    tc.window_ms = cfg.timeline_window_ms;
    result.timeline = std::make_unique<obs::Timeline>(tc);
  }
  return result;
}

/// On a missed deadline with ROFL_NET_DEBUG=1, dump what kept each router
/// busy -- the fastest way to see *which* exchange is wedged.
void maybe_debug_dump(bool converged, const std::vector<LiveRouter*>& raw) {
  if (converged || std::getenv("ROFL_NET_DEBUG") == nullptr) return;
  for (LiveRouter* r : raw) {
    if (r != nullptr) r->debug_dump(std::cerr);
  }
}

std::vector<std::pair<NodeId, RouterId>> expected_owners(
    const MeshConfig& cfg, const std::vector<Identity>& ids) {
  std::vector<std::pair<NodeId, RouterId>> expected;
  expected.reserve(ids.size());
  for (std::uint32_t h = 0; h < ids.size(); ++h) {
    const RouterId gw = h % cfg.routers;
    // A departed router took its resident ids with it; the audit checks the
    // ring the survivors stitched together.
    if (cfg.leave_router >= 0 &&
        gw == static_cast<RouterId>(cfg.leave_router)) {
      continue;
    }
    expected.emplace_back(ids[h].id(), gw);
  }
  return expected;
}

/// Lookup targets: draws over the joined identity set, deterministic in the
/// mesh seed but independent of the identity stream itself.  Every target is
/// a joined id, so a correct mesh resolves all of them as hits.
std::vector<NodeId> make_lookup_targets(const MeshConfig& cfg,
                                        const std::vector<Identity>& ids) {
  Rng rng(cfg.seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<NodeId> targets;
  targets.reserve(cfg.lookups);
  for (std::uint32_t i = 0; i < cfg.lookups; ++i) {
    targets.push_back(ids[rng.below(ids.size())].id());
  }
  return targets;
}

/// Distributes the lookup probes round-robin across the gateways.
void assign_lookups(const MeshConfig& cfg, const std::vector<NodeId>& targets,
                    const std::vector<LiveRouter*>& routers) {
  for (std::uint32_t i = 0; i < targets.size(); ++i) {
    LiveRouter* r = routers[i % cfg.routers];
    if (r != nullptr) r->enqueue_lookup(targets[i]);
  }
}

/// True when `cfg` requests a departure; validated by the CLI (never the
/// bootstrap, in range).
bool wants_leave(const MeshConfig& cfg) {
  return cfg.leave_router >= 1 &&
         static_cast<std::uint32_t>(cfg.leave_router) < cfg.routers;
}

/// Loopback phase: every router steps at the same virtual instant, one round
/// per 0.25 ms tick, until all are quiescent or `budget_ms` of virtual time
/// has passed since the phase started.  Deterministic end to end -- same
/// seed, same byte counts.
bool step_virtual(const std::vector<LiveRouter*>& routers, double& now,
                  double budget_ms) {
  constexpr double kTickMs = 0.25;
  const double deadline = now + budget_ms;
  while (now < deadline) {
    for (LiveRouter* r : routers) r->step(now);
    if (std::all_of(routers.begin(), routers.end(),
                    [](const LiveRouter* r) { return r->quiescent(); })) {
      return true;
    }
    now += kTickMs;
  }
  return false;
}

/// Longest an idle UDP router waits on its socket before it steps again.
/// A busy router's step waits on the socket itself (LiveRouter::kSliceMs).
constexpr double kIdleWaitMs = 0.5;

/// Steps a UDP router once, then, if it is idle, waits on its socket so a
/// peer's frame is answered as soon as it lands.  Returns the router's
/// quiescence as of the step.
bool step_udp(LiveRouter& router) {
  router.step(UdpTransport::wall_ms());
  const bool idle = router.quiescent();
  if (idle) {
    router.transport().wait(UdpTransport::wall_ms() + kIdleWaitMs);
  }
  return idle;
}

/// UDP phase: one event-loop thread per router on the wall clock, started
/// fresh for each phase.  Between phases no router thread runs, so the driver
/// can enqueue lookups or start the departure without racing router
/// internals (which stay single-threaded); while threads are live it reads
/// only the per-router quiet flags, every millisecond, so a phase's elapsed
/// time is measured to the millisecond.
bool step_threads(const std::vector<LiveRouter*>& routers, double budget_ms) {
  std::atomic<bool> stop{false};
  std::vector<std::atomic<bool>> quiet(routers.size());
  std::vector<std::thread> threads;
  threads.reserve(routers.size());
  for (std::size_t r = 0; r < routers.size(); ++r) {
    threads.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        quiet[r].store(step_udp(*routers[r]), std::memory_order_release);
      }
    });
  }
  const double start = UdpTransport::wall_ms();
  bool converged = false;
  while (UdpTransport::wall_ms() - start < budget_ms) {
    converged = std::all_of(quiet.begin(), quiet.end(), [](const auto& q) {
      return q.load(std::memory_order_acquire);
    });
    if (converged) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return converged;
}

// -- spawn mode serialization -------------------------------------------------

// One vnode's state record, big-endian: id, succ, both owners in one word
// (succ_owner << 32 | pred_owner), pred -- 56 bytes.
constexpr std::size_t kVnodeWire = 3 * wire::kNodeIdBytes + 8;

void serialize_vnode(std::vector<std::uint8_t>& out, const Vnode& v) {
  const std::size_t at = out.size();
  out.resize(at + kVnodeWire);
  std::uint8_t* p = out.data() + at;
  wire::store_node_id(p, v.id);
  wire::store_node_id(p + 16, v.succ);
  wire::store_be64(p + 32, std::uint64_t{v.succ_owner} << 32 | v.pred_owner);
  wire::store_node_id(p + 40, v.pred);
}

Vnode deserialize_vnode(const std::uint8_t* p) {
  Vnode v;
  v.id = wire::load_node_id(p);
  v.succ = wire::load_node_id(p + 16);
  const std::uint64_t owners = wire::load_be64(p + 32);
  v.succ_owner = static_cast<RouterId>(owners >> 32);
  v.pred_owner = static_cast<RouterId>(owners & 0xFFFFFFFFu);
  v.pred = wire::load_node_id(p + 40);
  return v;
}

constexpr std::size_t kVnodesPerChunk =
    (kMaxDatagram - kPumpHeaderBytes) / kVnodeWire;

}  // namespace

std::vector<Identity> make_identities(std::uint64_t seed,
                                      std::uint32_t hosts) {
  Rng rng(seed);
  std::vector<Identity> ids;
  ids.reserve(hosts);
  for (std::uint32_t h = 0; h < hosts; ++h) {
    ids.push_back(Identity::generate(rng));
  }
  return ids;
}

MeshAuditReport audit_ring(
    const std::vector<std::pair<RouterId, Vnode>>& collected,
    std::vector<std::pair<NodeId, RouterId>> expected) {
  MeshAuditReport rep;
  rep.population = collected.size();
  rep.expected = expected.size();
  const auto defect = [&rep](const std::string& what) {
    ++rep.error_count;
    if (rep.errors.size() < 10) rep.errors.push_back(what);
  };

  std::map<NodeId, std::pair<RouterId, Vnode>> by_id;
  for (const auto& [owner, v] : collected) {
    if (!by_id.emplace(v.id, std::make_pair(owner, v)).second) {
      defect("duplicate id " + v.id.to_string());
    }
  }
  if (rep.population != rep.expected) {
    defect("population " + std::to_string(rep.population) + " != expected " +
           std::to_string(rep.expected));
  }

  std::vector<proto::RingPtr> members;
  members.reserve(expected.size());
  for (const auto& [id, owner] : expected) members.push_back({id, owner});
  const proto::CanonicalRing ring(std::move(members));
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const auto& [id, want_owner] = ring[i];
    const auto it = by_id.find(id);
    if (it == by_id.end()) {
      defect("missing id " + id.to_string());
      continue;
    }
    const auto& [owner, v] = it->second;
    if (owner != want_owner) {
      defect("id " + id.to_string() + " homed on router " +
             std::to_string(owner) + ", expected " +
             std::to_string(want_owner));
    }
    const auto& [next_id, next_owner] = ring.successor(i);
    const auto& [prev_id, prev_owner] = ring.predecessor(i);
    if (v.succ != next_id || v.succ_owner != next_owner) {
      defect("id " + id.to_string() + " succ " + v.succ.to_string() + "@" +
             std::to_string(v.succ_owner) + ", expected " +
             next_id.to_string() + "@" + std::to_string(next_owner));
    }
    if (v.pred != prev_id || v.pred_owner != prev_owner) {
      defect("id " + id.to_string() + " pred " + v.pred.to_string() + "@" +
             std::to_string(v.pred_owner) + ", expected " +
             prev_id.to_string() + "@" + std::to_string(prev_owner));
    }
  }
  return rep;
}

MeshResult run_mesh(const MeshConfig& cfg) {
  const bool loopback = cfg.backend == MeshBackend::kLoopback;
  LoopbackHub hub;
  std::vector<std::unique_ptr<Transport>> transports;
  std::vector<UdpTransport*> udp;
  std::vector<std::unique_ptr<LiveRouter>> routers;
  std::vector<LiveRouter*> raw;
  for (RouterId r = 0; r < cfg.routers; ++r) {
    if (loopback) {
      transports.push_back(std::make_unique<LoopbackTransport>(r, &hub));
    } else {
      auto t = std::make_unique<UdpTransport>(r, /*port=*/0);
      udp.push_back(t.get());
      transports.push_back(std::move(t));
    }
    if (cfg.rate_pps > 0.0) transports.back()->set_rate_limit(cfg.rate_pps);
    routers.push_back(std::make_unique<LiveRouter>(router_config(cfg, r),
                                                   transports.back().get()));
    raw.push_back(routers.back().get());
  }
  for (UdpTransport* a : udp) {
    for (RouterId b = 0; b < udp.size(); ++b) a->set_peer(b, udp[b]->port());
  }
  const std::vector<Identity> ids = make_identities(cfg.seed, cfg.hosts);
  assign_hosts(cfg, ids, raw);

  // The backend picks the clock and how a phase is stepped; the phase
  // sequence below is shared.
  double now = 0.0;  // loopback's virtual clock
  const auto clock = [&] { return loopback ? now : UdpTransport::wall_ms(); };
  const auto run_phase = [&] {
    return loopback ? step_virtual(raw, now, cfg.deadline_ms)
                    : step_threads(raw, cfg.deadline_ms);
  };

  const double start = clock();
  // Phase 1: the join storm.
  bool converged = run_phase();
  // Phase 2: data-plane lookups over the converged ring.
  if (converged && cfg.lookups > 0) {
    assign_lookups(cfg, make_lookup_targets(cfg, ids), raw);
    converged = run_phase();
  }
  // Phase 3: one router departs cleanly.
  bool leave_completed = !wants_leave(cfg);
  if (wants_leave(cfg) && converged) {
    LiveRouter& leaver = *raw[static_cast<RouterId>(cfg.leave_router)];
    leaver.begin_leave(clock());
    converged = run_phase();
    leave_completed = leaver.departed();
  }
  const double elapsed = clock() - start;
  for (UdpTransport* t : udp) t->stop();

  MeshResult result = make_result(cfg);
  result.converged = converged;
  result.leave_completed = leave_completed;
  result.elapsed_ms = elapsed;
  maybe_debug_dump(converged, raw);
  std::vector<std::pair<RouterId, Vnode>> collected;
  const double end = clock();
  for (RouterId r = 0; r < cfg.routers; ++r) {
    raw[r]->finish(end);
    merge_router(result, *raw[r]);
    result.lookups_completed += raw[r]->lookups_completed();
    result.lookups_hit += raw[r]->lookups_hit();
    for (const auto& [id, v] : raw[r]->vnodes()) collected.emplace_back(r, v);
  }
  result.audit = audit_ring(collected, expected_owners(cfg, ids));
  return result;
}

// -- spawn mode ---------------------------------------------------------------

int run_mesh_worker(const MeshConfig& cfg, RouterId self) {
  const RouterId driver = cfg.routers;  // the driver sits past the routers
  UdpTransport transport(self,
                         static_cast<std::uint16_t>(cfg.base_port + self));
  for (RouterId r = 0; r <= cfg.routers; ++r) {
    transport.set_peer(r, static_cast<std::uint16_t>(cfg.base_port + r));
  }
  if (cfg.rate_pps > 0.0) transport.set_rate_limit(cfg.rate_pps);
  LiveRouter router(router_config(cfg, self), &transport);
  assign_hosts(cfg, make_identities(cfg.seed, cfg.hosts),
               [&] {
                 std::vector<LiveRouter*> raw(cfg.routers, nullptr);
                 raw[self] = &router;
                 return raw;
               }());

  // Pre-serialized state chunks are built lazily once kStop arrives.
  std::vector<std::vector<std::uint8_t>> chunks;
  bool stopping = false;
  double next_signal_ms = 0.0;
  const double start = UdpTransport::wall_ms();
  while (true) {
    if (UdpTransport::wall_ms() - start > cfg.deadline_ms + 10'000.0) {
      return 3;  // orphaned
    }
    step_udp(router);
    const double now = UdpTransport::wall_ms();

    RxFrame h;
    while (router.poll_harness(h)) {
      if (h.op == PumpOp::kStop && !stopping) {
        stopping = true;
        next_signal_ms = 0.0;
        std::vector<std::uint8_t> buf;
        for (const auto& [id, v] : router.vnodes()) {
          serialize_vnode(buf, v);
          if (buf.size() >= kVnodesPerChunk * kVnodeWire) {
            chunks.push_back(std::move(buf));
            buf.clear();
          }
        }
        if (!buf.empty() || chunks.empty()) chunks.push_back(std::move(buf));
      } else if (h.op == PumpOp::kStateAck) {
        return 0;
      }
    }

    if (now >= next_signal_ms) {
      next_signal_ms = now + 300.0;
      if (stopping) {
        // Retransmit the whole table until the driver acks; it dedups by
        // chunk index, so repeats are harmless.
        for (std::size_t i = 0; i < chunks.size(); ++i) {
          const std::uint32_t arg = static_cast<std::uint32_t>(i) << 16 |
                                    static_cast<std::uint32_t>(chunks.size());
          transport.send(driver, PumpOp::kStateChunk, arg, chunks[i], now);
        }
      } else if (router.quiescent()) {
        transport.send(driver, PumpOp::kDone,
                       static_cast<std::uint32_t>(router.joins_completed()),
                       {}, now);
      }
    }
  }
}

int run_mesh_spawn(const MeshConfig& cfg, const std::string& exe,
                   std::ostream& out) {
  const RouterId driver_id = cfg.routers;
  UdpTransport transport(
      driver_id, static_cast<std::uint16_t>(cfg.base_port + driver_id));
  for (RouterId r = 0; r < cfg.routers; ++r) {
    transport.set_peer(r, static_cast<std::uint16_t>(cfg.base_port + r));
  }

  std::vector<pid_t> pids;
  const auto arg = [](auto v) { return std::to_string(v); };
  for (RouterId r = 0; r < cfg.routers; ++r) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::vector<std::string> argv_s = {
          exe, "net", "--worker", arg(r), "--routers", arg(cfg.routers),
          "--hosts", arg(cfg.hosts), "--fingers", arg(cfg.fingers),
          "--seed", arg(cfg.seed), "--base-port", arg(cfg.base_port),
          "--deadline-ms", arg(cfg.deadline_ms),
          "--loss", arg(cfg.conditions.loss),
          "--dup", arg(cfg.conditions.duplicate),
          "--jitter", arg(cfg.conditions.jitter_ms),
          "--corrupt", arg(cfg.conditions.corrupt),
          "--rate", arg(cfg.rate_pps),
          "--outstanding", arg(cfg.max_outstanding)};
      std::vector<char*> argv;
      argv.reserve(argv_s.size() + 1);
      for (auto& s : argv_s) argv.push_back(s.data());
      argv.push_back(nullptr);
      ::execv(exe.c_str(), argv.data());
      ::_exit(127);  // exec failed
    }
    if (pid < 0) {
      out << "net: fork failed for worker " << r << "\n";
      for (const pid_t p : pids) ::kill(p, SIGKILL);
      for (const pid_t p : pids) ::waitpid(p, nullptr, 0);
      return 1;
    }
    pids.push_back(pid);
  }

  std::vector<bool> done(cfg.routers, false);
  std::vector<std::uint64_t> done_joins(cfg.routers, 0);
  // chunks[worker][index]; sized on the first chunk that reveals the total.
  std::vector<std::vector<std::vector<std::uint8_t>>> chunks(cfg.routers);
  std::vector<bool> state_complete(cfg.routers, false);
  bool stop_sent = false;
  double next_signal_ms = 0.0;
  const double start = UdpTransport::wall_ms();
  bool ok = true;

  while (true) {
    const double now = UdpTransport::wall_ms();
    if (now - start > cfg.deadline_ms) {
      out << "net: deadline after " << (now - start) / 1000.0
          << "s; killing workers\n";
      ok = false;
      break;
    }
    RxFrame rx;
    while (transport.poll(rx)) {
      if (rx.src >= cfg.routers) continue;
      if (rx.op == PumpOp::kDone) {
        done[rx.src] = true;
        done_joins[rx.src] = rx.arg;
      } else if (rx.op == PumpOp::kStateChunk) {
        const std::uint32_t index = rx.arg >> 16;
        const std::uint32_t total = rx.arg & 0xFFFF;
        auto& w = chunks[rx.src];
        if (w.size() != total) w.assign(total, {});
        if (index < total && w[index].empty()) {
          w[index] = std::move(rx.frame);
          // Empty chunks exist (a worker can own zero vnodes); mark with a
          // sentinel byte so "received" is distinguishable.
          if (w[index].empty()) w[index] = {0xFF};
        }
        state_complete[rx.src] =
            !w.empty() && std::all_of(w.begin(), w.end(), [](const auto& c) {
              return !c.empty();
            });
      }
    }

    const bool all_done =
        std::all_of(done.begin(), done.end(), [](bool d) { return d; });
    const bool all_state = std::all_of(state_complete.begin(),
                                       state_complete.end(),
                                       [](bool s) { return s; });
    if (all_state) break;
    if (all_done) stop_sent = true;
    if (now >= next_signal_ms) {
      next_signal_ms = now + 200.0;
      for (RouterId r = 0; r < cfg.routers; ++r) {
        if (stop_sent && !state_complete[r]) {
          transport.send(r, PumpOp::kStop, 0, {}, now);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Ack state so workers exit, then reap (escalating to SIGKILL on timeout).
  const double ack_until = UdpTransport::wall_ms() + 5'000.0;
  for (RouterId r = 0; r < cfg.routers; ++r) {
    transport.send(r, PumpOp::kStateAck, 0, {}, UdpTransport::wall_ms());
  }
  std::vector<bool> reaped(cfg.routers, false);
  while (UdpTransport::wall_ms() < ack_until) {
    bool all = true;
    for (RouterId r = 0; r < cfg.routers; ++r) {
      if (reaped[r]) continue;
      if (::waitpid(pids[r], nullptr, WNOHANG) == pids[r]) {
        reaped[r] = true;
      } else {
        all = false;
        transport.send(r, PumpOp::kStateAck, 0, {}, UdpTransport::wall_ms());
      }
    }
    if (all) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (RouterId r = 0; r < cfg.routers; ++r) {
    if (!reaped[r]) {
      ::kill(pids[r], SIGKILL);
      ::waitpid(pids[r], nullptr, 0);
    }
  }
  transport.stop();
  if (!ok) return 1;

  std::vector<std::pair<RouterId, Vnode>> collected;
  for (RouterId r = 0; r < cfg.routers; ++r) {
    for (const auto& c : chunks[r]) {
      if (c.size() == 1 && c[0] == 0xFF) continue;  // empty-table sentinel
      for (std::size_t off = 0; off + kVnodeWire <= c.size();
           off += kVnodeWire) {
        collected.emplace_back(r, deserialize_vnode(c.data() + off));
      }
    }
  }
  const std::vector<Identity> ids = make_identities(cfg.seed, cfg.hosts);
  const MeshAuditReport audit = audit_ring(collected, expected_owners(cfg, ids));
  std::uint64_t joins = 0;
  for (const std::uint64_t j : done_joins) joins += j;

  out << "net: spawn mesh routers=" << cfg.routers << " hosts=" << cfg.hosts
      << " joins=" << joins << " population=" << audit.population << "/"
      << audit.expected << " audit=" << (audit.ok() ? "clean" : "DEFECTS")
      << "\n";
  for (const auto& e : audit.errors) out << "net:   defect: " << e << "\n";
  return audit.ok() ? 0 : 1;
}

}  // namespace rofl::net
