#include "audit/churn.hpp"

#include <algorithm>
#include <optional>

#include "graph/isp_topology.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeline.hpp"

namespace rofl::audit {

namespace {

/// First live router at or after pick (mod router count); kInvalidNode when
/// every router is dark.
graph::NodeIndex live_router(const intra::Network& net, std::uint64_t pick) {
  const std::size_t n = net.router_count();
  for (std::size_t attempt = 0; attempt < n; ++attempt) {
    const auto r = static_cast<graph::NodeIndex>((pick + attempt) % n);
    if (net.topology().graph.node_up(r)) return r;
  }
  return graph::kInvalidNode;
}

/// FNV-1a 64 over a route outcome's raw fields and the stretch oracle's
/// shortest hop count for the same pair; trace_id is excluded so the digest
/// is identical whether or not a flight recorder is installed.
std::uint64_t fnv_route(std::uint64_t h, const intra::RouteStats& rs,
                        std::uint32_t shortest_hops) {
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001B3ull;
    }
  };
  const std::uint8_t delivered = rs.delivered ? 1 : 0;
  mix(&delivered, sizeof(delivered));
  mix(&rs.physical_hops, sizeof(rs.physical_hops));
  mix(&rs.ring_hops, sizeof(rs.ring_hops));
  mix(&shortest_hops, sizeof(shortest_hops));
  mix(&rs.latency_ms, sizeof(rs.latency_ms));
  return h;
}

std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = kDigits[v & 0xF];
  return out;
}

/// Mutable run state shared by the scheduled event closures.  Closures
/// capture {pointer, index} (16 bytes), well inside the simulator's inline
/// action buffer.
struct ChurnRunner {
  intra::Network* net = nullptr;
  const std::vector<ChurnEvent>* schedule = nullptr;
  ChurnRunResult* res = nullptr;
  std::vector<NodeId> roster;  // hosts joined by this run and still live
  std::uint64_t routes_fnv = 0xCBF29CE484222325ull;

  void exec(std::size_t i) {
    const ChurnEvent& e = (*schedule)[i];
    switch (e.op) {
      case ChurnOp::kJoinStable:
      case ChurnOp::kJoinEphemeral: {
        const graph::NodeIndex gw = live_router(*net, e.pick);
        if (gw == graph::kInvalidNode || !e.ident.has_value()) {
          ++res->joins_failed;
          return;
        }
        const auto cls = e.op == ChurnOp::kJoinEphemeral
                             ? intra::HostClass::kEphemeral
                             : intra::HostClass::kStable;
        if (net->join_host(*e.ident, gw, cls).ok) {
          roster.push_back(e.ident->id());
          ++res->joins;
        } else {
          ++res->joins_failed;
        }
        return;
      }
      case ChurnOp::kLeave: {
        if (roster.empty()) return;
        const std::size_t v = static_cast<std::size_t>(e.pick % roster.size());
        (void)net->leave_host(roster[v]);
        roster.erase(roster.begin() + static_cast<std::ptrdiff_t>(v));
        ++res->leaves;
        return;
      }
      case ChurnOp::kCrash: {
        if (roster.empty()) return;
        const std::size_t v = static_cast<std::size_t>(e.pick % roster.size());
        (void)net->fail_host(roster[v]);
        roster.erase(roster.begin() + static_cast<std::ptrdiff_t>(v));
        ++res->crashes;
        return;
      }
      case ChurnOp::kRoute: {
        if (roster.empty()) return;
        // Decorrelate the source pick from the destination pick without a
        // second stored draw.
        const graph::NodeIndex src =
            live_router(*net, e.pick * 0x9E3779B97F4A7C15ull + 1);
        if (src == graph::kInvalidNode) return;
        const NodeId dest = roster[static_cast<std::size_t>(
            e.pick % roster.size())];
        // Two packets per flow, both folded into the pinned routes digest:
        // the second meets the caches after the first one's stale-pointer
        // teardowns and LRU touches.
        for (int pkt = 0; pkt < 2; ++pkt) {
          ++res->routes;
          const intra::RouteStats rs = net->route(src, dest);
          if (rs.delivered) ++res->delivered;
          routes_fnv =
              fnv_route(routes_fnv, rs, net->shortest_hops(src, dest));
        }
        return;
      }
    }
  }
};

}  // namespace

std::string_view to_string(ChurnOp op) {
  switch (op) {
    case ChurnOp::kJoinStable: return "join";
    case ChurnOp::kJoinEphemeral: return "join-ephemeral";
    case ChurnOp::kLeave: return "leave";
    case ChurnOp::kCrash: return "crash";
    case ChurnOp::kRoute: return "route";
  }
  return "?";
}

std::vector<ChurnEvent> make_churn_schedule(const ChurnConfig& cfg,
                                            std::uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  const std::uint64_t total_weight =
      std::uint64_t{cfg.join_weight} + cfg.join_ephemeral_weight +
      cfg.leave_weight + cfg.crash_weight + cfg.route_weight;
  std::vector<ChurnEvent> events;
  events.reserve(cfg.events);
  for (std::size_t i = 0; i < cfg.events; ++i) {
    ChurnEvent e;
    e.t_ms = cfg.start_ms + (cfg.end_ms - cfg.start_ms) * rng.uniform();
    std::uint64_t w = total_weight == 0 ? 0 : rng.below(total_weight);
    if (w < cfg.join_weight) {
      e.op = ChurnOp::kJoinStable;
    } else if ((w -= cfg.join_weight) < cfg.join_ephemeral_weight) {
      e.op = ChurnOp::kJoinEphemeral;
    } else if ((w -= cfg.join_ephemeral_weight) < cfg.leave_weight) {
      e.op = ChurnOp::kLeave;
    } else if ((w -= cfg.leave_weight) < cfg.crash_weight) {
      e.op = ChurnOp::kCrash;
    } else {
      e.op = ChurnOp::kRoute;
    }
    if (e.op == ChurnOp::kJoinStable || e.op == ChurnOp::kJoinEphemeral) {
      e.ident = Identity::generate(rng);
    }
    e.pick = rng.next_u64();
    events.push_back(std::move(e));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.t_ms < b.t_ms;
                   });
  return events;
}

ChurnRunResult run_churn(const ChurnRunParams& params,
                         const std::vector<ChurnEvent>& schedule) {
  ChurnRunResult res;

  Rng trng(params.seed);
  graph::IspParams ip;
  ip.name = "churn";
  ip.router_count = params.router_count;
  ip.pop_count = params.pop_count;
  const graph::IspTopology topo = graph::make_isp_topology(ip, trng);

  intra::Network net(&topo, params.net_cfg, params.seed + 1);
  obs::FlightRecorder recorder(1 << 14);
  net.set_flight_recorder(&recorder);

  std::optional<sim::FaultInjector> injector;
  if (params.use_faults) {
    injector.emplace(params.faults, params.seed ^ 0xF417C0DEull,
                     &net.simulator().metrics());
    net.set_fault_injector(&*injector);
    net.schedule_fault_plan(params.faults);
  }

  ChurnRunner runner;
  runner.net = &net;
  runner.schedule = &schedule;
  runner.res = &res;

  // Initial population from a stream independent of the event schedule.
  Rng irng(params.seed * 9 + 7);
  for (std::size_t i = 0; i < params.initial_hosts; ++i) {
    const Identity ident = Identity::generate(irng);
    const graph::NodeIndex gw = live_router(net, irng.next_u64());
    if (gw != graph::kInvalidNode && net.join_host(ident, gw).ok) {
      runner.roster.push_back(ident.id());
      ++res.joins;
    } else {
      ++res.joins_failed;
    }
  }

  // Timeline attaches after the initial population: the setup burst is the
  // baseline snapshot, so the windowed series show the churn phase alone.
  std::optional<obs::Timeline> timeline;
  if (params.timeline_window_ms > 0.0) {
    timeline.emplace(&net.simulator().metrics(),
                     obs::Timeline::Config{params.timeline_window_ms,
                                           params.timeline_capacity});
    net.simulator().set_timeline(&*timeline);
  }

  // The run ends only after the last churn event AND every fault window.
  double last = 0.0;
  for (const ChurnEvent& e : schedule) last = std::max(last, e.t_ms);
  if (params.use_faults) {
    for (const sim::LinkFlap& f : params.faults.link_flaps) {
      last = std::max(last, f.up_at_ms);
    }
    for (const sim::CrashWindow& w : params.faults.crash_windows) {
      last = std::max(last, w.up_at_ms);
    }
  }
  const double horizon = last + params.settle_ms;

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    ChurnRunner* r = &runner;
    net.simulator().schedule_at(schedule[i].t_ms, [r, i] { r->exec(i); });
  }

  Auditor auditor(&net);
  auditor.schedule_every(params.audit_interval_ms, horizon);

  net.simulator().run_until(horizon);

  // Snapshot before the faults-off repair so two same-seed runs compare the
  // churn phase itself.
  res.metrics_json = net.simulator().metrics().to_json(2) + "\n";
  if (timeline.has_value()) {
    timeline->flush(net.simulator().now_ms());
    res.timeline_jsonl = timeline->to_jsonl();
    res.timeline_window_ms = params.timeline_window_ms;
    for (const char* name : {"sim.events", "msgs.join", "msgs.repair",
                             "msgs.teardown", "msgs.data"}) {
      res.timeline_series.emplace_back(name, timeline->counter_series(name));
    }
    net.simulator().set_timeline(nullptr);
  }

  net.set_fault_injector(nullptr);
  (void)net.repair_partitions();
  std::string err;
  res.converged = net.verify_rings(&err, /*strict=*/true);
  res.err = err;

  // One final fault-free audit after repair; lands in the digest too.
  (void)auditor.run();

  res.audits = auditor.audits_run();
  res.hard = auditor.total_hard();
  res.soft = auditor.total_soft();
  res.digest = auditor.reports_digest();
  res.routes_digest = "n=" + std::to_string(res.routes) + ";delivered=" +
                      std::to_string(res.delivered) + ";fnv=" +
                      hex64(runner.routes_fnv);
  res.reports = auditor.reports();
  res.events_dispatched = net.simulator().events_dispatched();
  return res;
}

}  // namespace rofl::audit
