// roflsim -- command-line driver for the ROFL library.
//
// Runs self-contained experiments from the shell without writing C++:
//
//   roflsim topology  [--isp NAME | --internet] [--seed S]
//   roflsim intra     [--isp NAME] [--hosts N] [--routes N] [--cache N]
//                     [--seed S]
//   roflsim inter     [--ids N] [--strategy eph|single|multi|peering]
//                     [--fingers N] [--bloom] [--routes N] [--seed S]
//   roflsim partition [--isp NAME] [--ids-per-pop N] [--seed S]
//
// Observability flags (intra / inter / partition / faults; audit, shard and
// net take --timeline and --timeline-window, shard and net also --metrics;
// net --spawn takes none of them):
//   --trace FILE      write a Chrome trace-event timeline (open in
//                     https://ui.perfetto.dev or chrome://tracing); with
//                     --timeline also carries "ph":"C" counter tracks
//   --traceroute      record per-packet hops and print the traceroute-style
//                     dump of the last delivered route
//   --metrics         print the full metrics registry after the run
//   --timeline FILE   write windowed metric deltas as JSONL (one JSON object
//                     per sim-clock window; wall-time only in the trailer)
//   --timeline-window MS   sampling window width (default 25, shard: 50)
//
// `roflsim timeline --file F` renders a timeline JSONL file as an ASCII
// sparkline/table report.
//
// Every run prints its seed; identical invocations reproduce exactly.  A flag
// the command does not read exits 2 with usage.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "audit/churn.hpp"
#include "audit/shard_audit.hpp"
#include "audit/shrink.hpp"
#include "baselines/cmu_ethernet.hpp"
#include "interdomain/inter_network.hpp"
#include "interdomain/shard_model.hpp"
#include "net/mesh.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_export.hpp"
#include "rofl/network.hpp"
#include "sim/profiler.hpp"
#include "util/rusage.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace rofl;

void usage();

struct Args {
  std::map<std::string, std::string> kv;
  /// Tokens that are neither a flag nor a flag's value.
  std::vector<std::string> stray;
  bool flag(const std::string& k) const { return kv.contains(k); }
  std::string str(const std::string& k, const std::string& dflt) const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
};

Args parse(int argc, char** argv, int from) {
  Args a;
  for (int i = from; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      a.stray.push_back(key);
      continue;
    }
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      a.kv[key] = argv[++i];
    } else {
      a.kv[key] = "";
    }
  }
  return a;
}

/// Upper bound of a count the engines iterate (hosts, routes, churn
/// operations, IDs, probes): far past any run, and it fits the 32-bit
/// fields some counts land in (`net --lookups`).
constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint32_t>::max();
/// Upper bound of a count materialised up front (churn events, link flaps):
/// the schedule is built whole before the first event runs, so a wrapped
/// count would spend its memory, or abort, right there.
constexpr std::uint64_t kMaxScheduled = 1'000'000;
/// Largest generated ISP map: the link-state layer keeps one shortest-path
/// table per router, so memory grows with the square of this.
constexpr std::uint64_t kMaxRouters = 4096;

/// Integer option confined to [lo, hi]; every integer flag is read here.
/// The raw string is parsed whole, so junk ("abc"), a sign, or a value past
/// `hi` exits 2 with usage instead of aborting on an uncaught exception,
/// wrapping ("-1" as 2^64-1) or truncating in the cast to a narrower field
/// ("--base-port 70000" as port 4464).
std::uint64_t ranged_num_arg(const Args& a, const std::string& key,
                             std::uint64_t dflt, std::uint64_t lo,
                             std::uint64_t hi) {
  const auto it = a.kv.find(key);
  if (it == a.kv.end()) return dflt;
  const std::string& s = it->second;
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || v < lo || v > hi) {
    std::cerr << "--" << key << " must be ";
    // A count bounded only by "at least one" says so in words.
    if (lo == 1 && hi == kMaxCount) {
      std::cerr << "a positive integer";
    } else {
      std::cerr << "an integer in [" << lo << ", " << hi << "]";
    }
    std::cerr << " (got '" << s << "')\n\n";
    usage();
    std::exit(2);
  }
  return v;
}

/// --seed, which every command takes: any 64-bit value, 1 by default.
std::uint64_t seed_arg(const Args& a) {
  return ranged_num_arg(a, "seed", 1, 0,
                        std::numeric_limits<std::uint64_t>::max());
}

/// Real-valued option (durations, widths, rates): finite and non-negative,
/// and with `positive` also nonzero.  Junk, a sign or a non-finite value
/// exits 2 with usage rather than reaching an engine that would misbehave
/// quietly: a negative lookahead deadlocks the conservative sync protocol,
/// and a zero tick, lookahead or audit interval never advances its clock.
double real_arg(const Args& a, const std::string& key, double dflt,
                bool positive = false) {
  const auto it = a.kv.find(key);
  if (it == a.kv.end()) return dflt;
  const std::string& s = it->second;
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || !std::isfinite(v) ||
      v < 0.0 || (positive && v == 0.0)) {
    std::cerr << "--" << key << " must be a "
              << (positive ? "positive" : "non-negative") << " number (got '"
              << s << "')\n\n";
    usage();
    std::exit(2);
  }
  return v;
}

/// Probability option: negative exits 2; above 1.0 clamps to 1.0 with a
/// warning (the user almost certainly meant "always", so run -- but say so,
/// because the fault injector would otherwise accept 1.2 and behave as 1.0
/// without comment).
double rate_arg(const Args& a, const std::string& key, double dflt) {
  double v = real_arg(a, key, dflt);
  if (v > 1.0) {
    std::cerr << "warning: --" << key << " " << v
              << " clamped to 1.0 (probabilities cap at 1)\n";
    v = 1.0;
  }
  return v;
}

/// The one-line run summary every command prints at exit.  Wall time and RSS
/// are host-side observations, so the line goes to stdout only -- never into
/// --metrics-json files, which the determinism gates byte-compare.
struct RunSummary {
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();

  void print(std::uint64_t events) const {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double eps =
        wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
    std::cout << "run-summary: events=" << events << " wall=" << std::fixed
              << std::setprecision(3) << wall << "s events/sec="
              << static_cast<std::uint64_t>(eps)
              << " peak-rss=" << util::peak_rss_kb() / 1024 << "MB\n"
              << std::defaultfloat;
  }
};

graph::IspTopology isp_from_args(const Args& a, Rng& rng) {
  const std::string name = a.str("isp", "as3967");
  for (const auto which : graph::all_rocketfuel_ases()) {
    const auto params = graph::rocketfuel_params(which);
    std::string lower = params.name;
    for (auto& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == name || params.name == name) {
      return graph::make_rocketfuel_like(which, rng);
    }
  }
  std::cerr << "unknown --isp '" << name
            << "' (expected as1221|as1239|as3257|as3967); using a generic "
               "60-router ISP\n";
  graph::IspParams p;
  p.router_count = 60;
  p.pop_count = 8;
  return graph::make_isp_topology(p, rng);
}

/// Writes a timeline JSONL file: the deterministic window lines followed by
/// one "run" trailer carrying wall-clock provenance.  Determinism gates
/// byte-compare these files after dropping the trailer (grep -v '"run"').
bool write_timeline_jsonl(const std::string& path, const std::string& jsonl,
                          double wall_seconds) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write timeline to " << path << "\n";
    return false;
  }
  out << jsonl;
  out << "{\"run\": {\"wall_seconds\": " << wall_seconds
      << ", \"peak_rss_kb\": " << util::peak_rss_kb() << "}}\n";
  std::cout << "timeline written to " << path << "\n";
  return true;
}

// Observability hooks shared by the experiment commands: a timeline tracer
// (--trace FILE), a per-packet flight recorder (--traceroute), a metrics
// dump (--metrics), and a windowed metric sampler (--timeline FILE).
// Declare before the Network so it outlives installation.
struct ObsSession {
  obs::Tracer tracer;
  obs::FlightRecorder recorder{1 << 16};
  std::unique_ptr<obs::Timeline> timeline;
  std::string trace_path;
  std::string timeline_path;
  double timeline_window_ms;
  bool want_trace;
  bool want_route_dump;
  bool want_metrics;
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();

  explicit ObsSession(const Args& a)
      : trace_path(a.str("trace", "")),
        timeline_path(a.str("timeline", "")),
        timeline_window_ms(real_arg(a, "timeline-window", 25.0, true)),
        want_trace(!a.str("trace", "").empty()),
        want_route_dump(a.flag("traceroute")),
        want_metrics(a.flag("metrics")) {}

  void install(sim::Simulator& sim) {
    if (want_trace) {
      tracer.name_track(0, "simulator");
      tracer.name_track(1, "linkstate");
      tracer.name_track(2, "rofl-intra");
      tracer.name_track(3, "interdomain");
      sim.set_tracer(&tracer);
    }
    if (!timeline_path.empty()) {
      timeline = std::make_unique<obs::Timeline>(
          &sim.metrics(), obs::Timeline::Config{timeline_window_ms, 1 << 16});
      sim.set_timeline(timeline.get());
      // Live counter tracks: every window close lands "ph":"C" samples in
      // the trace, in sim-clock order, so Perfetto graphs them as series.
      if (want_trace) timeline->set_trace_sink(&tracer, 0);
    }
  }

  /// `last_trace` is the flight to pretty-print (0 = none delivered).
  void finish(sim::Simulator& sim, std::uint64_t last_trace) {
    if (timeline != nullptr) timeline->flush(sim.now_ms());
    if (want_route_dump) {
      if (last_trace != 0) {
        std::cout << "\n" << recorder.format_trace(last_trace);
      } else {
        std::cout << "\n(no delivered route to trace)\n";
      }
    }
    if (want_metrics) {
      std::cout << "\n-- metrics --\n";
      sim.metrics().print_table(std::cout);
    }
    if (want_trace) {
      if (tracer.write(trace_path)) {
        std::cout << "trace written to " << trace_path << " ("
                  << tracer.event_count() << " events)\n";
      } else {
        std::cerr << "cannot write trace to " << trace_path << "\n";
      }
    }
    if (timeline != nullptr) {
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      (void)write_timeline_jsonl(timeline_path, timeline->to_jsonl(), wall);
    }
  }
};

int cmd_topology(const Args& a) {
  Rng rng(seed_arg(a));
  if (a.flag("internet")) {
    graph::AsGenParams p;
    const auto topo = graph::AsTopology::make_internet_like(p, rng);
    std::size_t stubs = 0, peerings = 0, backups = 0;
    for (graph::AsIndex x = 0; x < topo.as_count(); ++x) {
      if (topo.is_stub(x)) ++stubs;
      peerings += topo.peers(x).size();
      for (const auto& adj : topo.adjacencies(x)) {
        if (adj.rel == graph::AsRel::kBackupProvider) ++backups;
      }
    }
    Table t({"metric", "value"});
    t.add_row({std::string("ASes"), static_cast<std::int64_t>(topo.as_count())});
    t.add_row({std::string("stubs"), static_cast<std::int64_t>(stubs)});
    t.add_row({std::string("peering links"),
               static_cast<std::int64_t>(peerings / 2)});
    t.add_row({std::string("backup provider links"),
               static_cast<std::int64_t>(backups)});
    t.add_row({std::string("total hosts (model)"),
               static_cast<std::int64_t>(topo.total_hosts())});
    t.print(std::cout);
    return 0;
  }
  const auto topo = isp_from_args(a, rng);
  Table t({"metric", "value"});
  t.add_row({std::string("name"), topo.name});
  t.add_row({std::string("routers"),
             static_cast<std::int64_t>(topo.router_count())});
  t.add_row({std::string("links"),
             static_cast<std::int64_t>(topo.graph.edge_count())});
  t.add_row({std::string("PoPs"), static_cast<std::int64_t>(topo.pop_count())});
  t.add_row({std::string("diameter [hops]"),
             static_cast<std::int64_t>(topo.graph.diameter_hops(64))});
  t.add_row({std::string("host population (model)"),
             static_cast<std::int64_t>(topo.host_count)});
  t.print(std::cout);
  return 0;
}

int cmd_intra(const Args& a) {
  const RunSummary summary;
  const std::uint64_t seed = seed_arg(a);
  Rng rng(seed);
  const auto topo = isp_from_args(a, rng);
  // Counts are validated whole: "--routes -1" would otherwise wrap to
  // 2^64-1 and never return.  "--cache 0" is legal; it disables caching.
  intra::Config cfg;
  cfg.cache_capacity = ranged_num_arg(a, "cache", 2048, 0, kMaxCount);
  const std::size_t hosts = ranged_num_arg(a, "hosts", 1000, 0, kMaxCount);
  const std::size_t routes = ranged_num_arg(a, "routes", 500, 0, kMaxCount);
  ObsSession watch(a);
  intra::Network net(&topo, cfg, seed + 1);
  watch.install(net.simulator());
  if (watch.want_route_dump) net.set_flight_recorder(&watch.recorder);

  SampleSet join_msgs, join_lat;
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < hosts; ++i) {
    Identity ident = Identity::generate(net.rng());
    const auto gw = static_cast<graph::NodeIndex>(
        net.rng().index(net.router_count()));
    const auto js = net.join_host(ident, gw);
    if (!js.ok) continue;
    ids.push_back(ident.id());
    join_msgs.add(static_cast<double>(js.messages));
    join_lat.add(js.latency_ms);
  }
  SampleSet stretch;
  std::size_t delivered = 0;
  std::uint64_t last_trace = 0;
  for (std::size_t i = 0; i < routes && !ids.empty(); ++i) {
    const NodeId dest = ids[net.rng().index(ids.size())];
    const auto src = static_cast<graph::NodeIndex>(
        net.rng().index(net.router_count()));
    const auto rs = net.route(src, dest);
    if (rs.delivered) {
      ++delivered;
      if (rs.trace_id != 0) last_trace = rs.trace_id;
      const std::uint32_t sp = net.shortest_hops(src, dest);
      if (sp > 0) stretch.add(rs.stretch(sp));
    }
  }
  std::string err;
  const bool rings_ok = net.verify_rings(&err);

  std::cout << "[seed " << seed << "] " << topo.name << ", " << ids.size()
            << " hosts joined\n";
  Table t({"metric", "value"});
  t.add_row({std::string("join overhead p50/p99 [packets]"),
             std::to_string(static_cast<int>(join_msgs.percentile(0.5))) + " / " +
                 std::to_string(static_cast<int>(join_msgs.percentile(0.99)))});
  t.add_row({std::string("join latency p50/p99 [ms]"),
             std::to_string(join_lat.percentile(0.5)) + " / " +
                 std::to_string(join_lat.percentile(0.99))});
  t.add_row({std::string("delivery"), std::to_string(delivered) + "/" +
                                          std::to_string(routes)});
  t.add_row({std::string("mean stretch"),
             stretch.empty() ? 0.0 : stretch.mean()});
  t.add_row({std::string("mean state entries/router"),
             net.mean_state_entries()});
  t.add_row({std::string("ring verified"), std::string(rings_ok ? "yes" : err)});
  t.print(std::cout);
  watch.finish(net.simulator(), last_trace);
  summary.print(net.simulator().events_dispatched());
  return rings_ok ? 0 : 1;
}

int cmd_inter(const Args& a) {
  const RunSummary summary;
  const std::uint64_t seed = seed_arg(a);
  Rng rng(seed);
  graph::AsGenParams gp;
  const auto topo = graph::AsTopology::make_internet_like(gp, rng);

  inter::InterConfig cfg;
  cfg.fingers_per_id = ranged_num_arg(a, "fingers", 0, 0, kMaxCount);
  if (a.flag("bloom")) cfg.peering_mode = inter::PeeringMode::kBloom;

  const std::string sname = a.str("strategy", "multi");
  inter::JoinStrategy strategy = inter::JoinStrategy::kRecursiveMultihomed;
  if (sname == "eph") strategy = inter::JoinStrategy::kEphemeral;
  else if (sname == "single") strategy = inter::JoinStrategy::kSingleHomed;
  else if (sname == "peering") strategy = inter::JoinStrategy::kPeering;
  else if (sname != "multi") {
    std::cerr << "unknown --strategy '" << sname
              << "' (eph|single|multi|peering); using multi\n";
  }

  ObsSession watch(a);
  inter::InterNetwork net(&topo, cfg, seed + 1);
  watch.install(net.simulator());
  if (watch.want_route_dump) net.set_flight_recorder(&watch.recorder);
  const std::size_t ids = ranged_num_arg(a, "ids", 1000, 0, kMaxCount);
  const std::size_t routes = ranged_num_arg(a, "routes", 500, 0, kMaxCount);
  SampleSet join_msgs;
  for (std::size_t i = 0; i < ids; ++i) {
    const auto js = net.join_random_host(strategy);
    if (js.ok) join_msgs.add(static_cast<double>(js.messages));
  }
  std::vector<NodeId> joined;
  for (const auto& [id, home] : net.directory()) joined.push_back(id);

  SampleSet stretch;
  std::size_t delivered = 0, violations = 0;
  std::uint64_t last_trace = 0;
  for (std::size_t i = 0; i < routes && !joined.empty(); ++i) {
    const NodeId dest = joined[net.rng().index(joined.size())];
    const auto src = net.home_of(joined[net.rng().index(joined.size())]);
    if (!src.has_value()) continue;
    const auto rs = net.route(*src, dest);
    if (rs.delivered) {
      ++delivered;
      if (rs.trace_id != 0) last_trace = rs.trace_id;
      if (!rs.isolation_held) ++violations;
      if (rs.bgp_hops > 0) stretch.add(rs.stretch());
    }
  }
  std::string err;
  const bool rings_ok = net.verify_rings(&err);

  std::cout << "[seed " << seed << "] " << topo.as_count() << " ASes, "
            << joined.size() << " IDs (" << sname << ", "
            << (a.flag("bloom") ? "bloom" : "virtual-AS") << " peering)\n";
  Table t({"metric", "value"});
  t.add_row({std::string("join overhead mean [packets]"), join_msgs.mean()});
  t.add_row({std::string("delivery"), std::to_string(delivered) + "/" +
                                          std::to_string(routes)});
  t.add_row({std::string("mean stretch vs BGP"),
             stretch.empty() ? 0.0 : stretch.mean()});
  t.add_row({std::string("isolation violations"),
             static_cast<std::int64_t>(violations)});
  t.add_row({std::string("fingers/id"),
             joined.empty() ? 0.0
                            : static_cast<double>(net.total_finger_count()) /
                                  static_cast<double>(joined.size())});
  t.add_row({std::string("rings verified"), std::string(rings_ok ? "yes" : err)});
  t.print(std::cout);
  watch.finish(net.simulator(), last_trace);
  summary.print(net.simulator().events_dispatched());
  return rings_ok ? 0 : 1;
}

int cmd_partition(const Args& a) {
  const RunSummary summary;
  const std::uint64_t seed = seed_arg(a);
  Rng rng(seed);
  graph::IspTopology topo = isp_from_args(a, rng);
  ObsSession watch(a);
  intra::Network net(&topo, intra::Config{}, seed + 1);
  watch.install(net.simulator());
  const std::size_t per_pop =
      ranged_num_arg(a, "ids-per-pop", 50, 0, kMaxCount);
  for (std::size_t p = 0; p < topo.pop_count(); ++p) {
    for (std::size_t i = 0; i < per_pop; ++i) {
      const auto& members = topo.pops[p];
      Identity ident = Identity::generate(net.rng());
      (void)net.join_host(ident, members[net.rng().index(members.size())]);
    }
  }
  const std::size_t victim = topo.pop_count() / 2;
  std::vector<std::pair<graph::NodeIndex, graph::NodeIndex>> cut;
  for (const auto r : topo.pops[victim]) {
    for (const auto& e : topo.graph.neighbors(r)) {
      bool internal = false;
      for (const auto m : topo.pops[victim]) internal |= (m == e.to);
      if (!internal) cut.emplace_back(r, e.to);
    }
  }
  for (const auto& [u, v] : cut) net.map().fail_link(u, v);
  const auto split = net.repair_partitions();
  for (const auto& [u, v] : cut) net.map().restore_link(u, v);
  const auto heal = net.repair_partitions();
  std::string err;
  const bool ok = net.verify_rings(&err);
  std::cout << "[seed " << seed << "] " << topo.name << ": cut PoP " << victim
            << " (" << topo.pops[victim].size() << " routers, " << cut.size()
            << " links, " << per_pop << " IDs/PoP)\n";
  Table t({"phase", "repair packets"});
  t.add_row({std::string("disconnect"),
             static_cast<std::int64_t>(split.messages)});
  t.add_row({std::string("reconnect"),
             static_cast<std::int64_t>(heal.messages)});
  t.print(std::cout);
  std::cout << "reconverged: " << (ok ? "yes" : err) << "\n";
  watch.finish(net.simulator(), 0);
  summary.print(net.simulator().events_dispatched());
  return ok ? 0 : 1;
}

int cmd_faults(const Args& a) {
  const RunSummary summary;
  const std::uint64_t seed = seed_arg(a);
  Rng rng(seed);
  graph::IspTopology topo = isp_from_args(a, rng);
  ObsSession watch(a);
  intra::Network net(&topo, intra::Config{}, seed + 1);
  watch.install(net.simulator());
  if (watch.want_route_dump) net.set_flight_recorder(&watch.recorder);

  sim::FaultPlan plan;
  plan.defaults.loss = rate_arg(a, "loss", 0.05);
  plan.defaults.duplicate = rate_arg(a, "dup", 0.0);
  plan.defaults.jitter_ms = real_arg(a, "jitter", 0.0);
  plan.defaults.corrupt = rate_arg(a, "corrupt", 0.0);
  const std::uint64_t flap_count =
      ranged_num_arg(a, "flaps", 0, 0, kMaxScheduled);
  std::vector<std::pair<graph::NodeIndex, graph::NodeIndex>> edges;
  for (graph::NodeIndex u = 0; u < topo.graph.node_count(); ++u) {
    for (const auto& e : topo.graph.neighbors(u)) {
      if (e.to > u) edges.emplace_back(u, e.to);
    }
  }
  Rng frng(seed * 5 + 1);
  for (std::uint64_t i = 0; i < flap_count; ++i) {
    const auto [u, v] = edges[frng.index(edges.size())];
    const double down = 10.0 + 15.0 * static_cast<double>(i);
    plan.link_flaps.push_back({u, v, down, down + 12.0});
  }
  sim::FaultInjector inj(plan, seed ^ 0xF417C0DEull,
                         &net.simulator().metrics());
  net.set_fault_injector(&inj);
  net.schedule_fault_plan(plan);

  // Workload: joins, then churn with data traffic, all under the plan.
  const std::size_t hosts = ranged_num_arg(a, "hosts", 200, 0, kMaxCount);
  const std::size_t churn = ranged_num_arg(a, "churn", 50, 0, kMaxCount);
  Rng wrng(seed * 9 + 7);
  std::vector<Identity> live;
  std::uint64_t joins_ok = 0, joins_failed = 0;
  double t = 0.0;
  for (std::size_t i = 0; i < hosts; ++i) {
    t += 0.5;
    net.simulator().run_until(t);
    Identity ident = Identity::generate(net.rng());
    const auto gw =
        static_cast<graph::NodeIndex>(wrng.index(net.router_count()));
    if (net.join_host(ident, gw).ok) {
      ++joins_ok;
      live.push_back(ident);
    } else {
      ++joins_failed;
    }
  }
  std::size_t attempted = 0, delivered = 0;
  std::uint64_t last_trace = 0;
  for (std::size_t op = 0; op < churn; ++op) {
    t += 1.0;
    net.simulator().run_until(t);
    const std::uint64_t pick = wrng.below(100);
    if (pick < 30 && !live.empty()) {
      const std::size_t v = wrng.index(live.size());
      (void)net.fail_host(live[v].id());
      live.erase(live.begin() + static_cast<long>(v));
    } else if (pick < 55) {
      Identity ident = Identity::generate(net.rng());
      if (net.join_host(ident, static_cast<graph::NodeIndex>(
                                   wrng.index(net.router_count())))
              .ok) {
        live.push_back(ident);
      }
    } else if (!live.empty()) {
      const auto src =
          static_cast<graph::NodeIndex>(wrng.index(net.router_count()));
      ++attempted;
      const auto rs = net.route(src, live[wrng.index(live.size())].id());
      if (rs.delivered) {
        ++delivered;
        if (rs.trace_id != 0) last_trace = rs.trace_id;
      }
    }
  }
  net.simulator().run_until(t + 200.0);  // every scheduled window closed

  // Snapshot before the faults-off repair so two same-seed runs compare the
  // faulty phase, not whatever repair did afterwards.
  const std::string metrics_path = a.str("metrics-json", "");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "cannot write " << metrics_path << "\n";
      return 1;
    }
    out << net.simulator().metrics().to_json(2) << "\n";
    std::cout << "metrics written to " << metrics_path << "\n";
  }

  net.set_fault_injector(nullptr);
  const auto rs = net.repair_partitions();
  std::string err;
  const bool rings_ok = net.verify_rings(&err, /*strict=*/true);

  std::cout << "[seed " << seed << "] " << topo.name << ", loss="
            << plan.defaults.loss << " dup=" << plan.defaults.duplicate
            << " corrupt=" << plan.defaults.corrupt
            << " jitter=" << plan.defaults.jitter_ms << "ms flaps="
            << flap_count << "\n";
  Table t2({"metric", "value"});
  t2.add_row({std::string("joins ok/failed"),
              std::to_string(joins_ok) + "/" + std::to_string(joins_failed)});
  t2.add_row({std::string("delivery during churn"),
              std::to_string(delivered) + "/" + std::to_string(attempted)});
  t2.add_row({std::string("messages dropped"),
              static_cast<std::int64_t>(inj.dropped())});
  t2.add_row({std::string("messages duplicated"),
              static_cast<std::int64_t>(inj.duplicated())});
  t2.add_row({std::string("frames corrupted"),
              static_cast<std::int64_t>(inj.corrupted())});
  t2.add_row({std::string("retries"),
              static_cast<std::int64_t>(inj.retries())});
  t2.add_row({std::string("retries exhausted"),
              static_cast<std::int64_t>(inj.retries_exhausted())});
  t2.add_row({std::string("link flaps"),
              static_cast<std::int64_t>(inj.flaps())});
  t2.add_row({std::string("repair packets (faults off)"),
              static_cast<std::int64_t>(rs.messages)});
  t2.add_row({std::string("rings canonical after repair"),
              std::string(rings_ok ? "yes" : err)});
  t2.print(std::cout);
  watch.finish(net.simulator(), last_trace);
  summary.print(net.simulator().events_dispatched());
  return rings_ok ? 0 : 1;
}

int cmd_audit(const Args& a) {
  const RunSummary summary;
  const std::uint64_t seed = seed_arg(a);

  audit::ChurnConfig cc;
  cc.events = ranged_num_arg(a, "events", 200, 0, kMaxScheduled);
  cc.end_ms = real_arg(a, "end", 400.0);

  audit::ChurnRunParams params;
  params.router_count = ranged_num_arg(a, "routers", 60, 2, kMaxRouters);
  params.pop_count = ranged_num_arg(a, "pops", 8, 1, params.router_count);
  params.initial_hosts =
      ranged_num_arg(a, "initial-hosts", 64, 0, kMaxCount);
  const std::uint64_t shrink_probes =
      ranged_num_arg(a, "shrink-probes", 2000, 0, kMaxCount);
  // A zero interval would schedule audits without end.
  params.audit_interval_ms = real_arg(a, "audit-interval", 25.0, true);
  params.settle_ms = real_arg(a, "settle", 300.0);
  params.seed = seed;
  if (!a.str("timeline", "").empty()) {
    params.timeline_window_ms = real_arg(a, "timeline-window", 25.0, true);
  }
  const double loss = rate_arg(a, "loss", 0.0);
  const double dup = rate_arg(a, "dup", 0.0);
  const double corrupt = rate_arg(a, "corrupt", 0.0);
  if (loss > 0.0 || dup > 0.0 || corrupt > 0.0) {
    params.use_faults = true;
    params.faults.defaults.loss = loss;
    params.faults.defaults.duplicate = dup;
    params.faults.defaults.corrupt = corrupt;
  }

  const auto schedule = audit::make_churn_schedule(cc, seed);
  const audit::ChurnRunResult res = audit::run_churn(params, schedule);

  std::cout << "[seed " << seed << "] churn: " << schedule.size()
            << " events over " << cc.end_ms << "ms, audit every "
            << params.audit_interval_ms << "ms"
            << (params.use_faults
                    ? " (loss=" + std::to_string(loss) + " corrupt=" +
                          std::to_string(corrupt) + ")"
                    : "")
            << "\n";
  Table t({"metric", "value"});
  t.add_row({std::string("joins ok/failed"),
             std::to_string(res.joins) + "/" + std::to_string(res.joins_failed)});
  t.add_row({std::string("leaves / crashes"),
             std::to_string(res.leaves) + " / " + std::to_string(res.crashes)});
  t.add_row({std::string("delivery during churn"),
             std::to_string(res.delivered) + "/" + std::to_string(res.routes)});
  t.add_row({std::string("audits run"), static_cast<std::int64_t>(res.audits)});
  t.add_row({std::string("hard violations"),
             static_cast<std::int64_t>(res.hard)});
  t.add_row({std::string("soft (stale, self-healing)"),
             static_cast<std::int64_t>(res.soft)});
  t.add_row({std::string("converged after repair"),
             std::string(res.converged ? "yes" : res.err)});
  t.add_row({std::string("audit digest"), res.digest});
  t.add_row({std::string("routes digest"), res.routes_digest});
  t.print(std::cout);

  if (a.flag("report")) {
    for (const audit::AuditReport& rep : res.reports) {
      if (!rep.clean()) std::cout << "\n" << rep.to_string();
    }
  }

  const std::string metrics_path = a.str("metrics-json", "");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "cannot write " << metrics_path << "\n";
      return 1;
    }
    out << res.metrics_json;
    std::cout << "metrics written to " << metrics_path << "\n";
  }

  const std::string timeline_path = a.str("timeline", "");
  if (!timeline_path.empty()) {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      summary.start)
            .count();
    if (!write_timeline_jsonl(timeline_path, res.timeline_jsonl, wall)) {
      return 1;
    }
  }

  const bool failed = res.hard > 0 || !res.converged;
  if (failed && a.flag("shrink")) {
    std::cout << "\nshrinking the failing schedule (ddmin)...\n";
    const auto still_fails = [&](const std::vector<audit::ChurnEvent>& sub) {
      const audit::ChurnRunResult r = audit::run_churn(params, sub);
      return r.hard > 0 || !r.converged;
    };
    const audit::ShrinkResult sr = audit::shrink_schedule(
        schedule, still_fails, shrink_probes);
    std::cout << "minimal schedule: " << sr.events.size() << "/"
              << schedule.size() << " events (" << sr.probes << " probes, "
              << (sr.minimal ? "1-minimal" : "budget exhausted") << ")\n";
    for (const audit::ChurnEvent& e : sr.events) {
      std::cout << "  t=" << e.t_ms << "ms " << audit::to_string(e.op);
      if (e.ident.has_value()) std::cout << " id=" << e.ident->id().to_string();
      std::cout << " pick=" << e.pick << "\n";
    }
  }
  summary.print(res.events_dispatched);
  return failed ? 1 : 0;
}

// -- `roflsim net` live-mesh mode -------------------------------------------

/// Largest --fingers whose JoinRequest fits one pump datagram, header
/// included.  UdpTransport drops any datagram over kMaxDatagram, so a larger
/// JoinRequest is never delivered and the mesh would wedge; the bound holds
/// on every backend so a mesh configuration behaves the same on each.
std::uint64_t max_mesh_fingers() {
  wire::msg::JoinRequest jr;
  const std::size_t fixed = wire::msg::control_wire_size(jr);
  jr.fingers.resize(1);
  const std::size_t per_finger = wire::msg::control_wire_size(jr) - fixed;
  return (net::kMaxDatagram - net::kPumpHeaderBytes - fixed) / per_finger;
}

/// Builds the MeshConfig shared by driver, in-process runs, and spawn-mode
/// workers; every numeric knob is validated here so a worker re-invoked with
/// driver-generated flags takes the same path as a hand-typed run.
net::MeshConfig mesh_config_from_args(const Args& a) {
  net::MeshConfig cfg;
  cfg.routers =
      static_cast<std::uint32_t>(ranged_num_arg(a, "routers", 8, 1, kMaxCount));
  cfg.hosts =
      static_cast<std::uint32_t>(ranged_num_arg(a, "hosts", 400, 1, kMaxCount));
  cfg.fingers = static_cast<std::uint32_t>(
      ranged_num_arg(a, "fingers", 256, 1, max_mesh_fingers()));
  cfg.seed = seed_arg(a);
  cfg.conditions.loss = rate_arg(a, "loss", 0.0);
  cfg.conditions.duplicate = rate_arg(a, "dup", 0.0);
  cfg.conditions.corrupt = rate_arg(a, "corrupt", 0.0);
  cfg.conditions.jitter_ms = real_arg(a, "jitter", 0.0);
  cfg.rate_pps = real_arg(a, "rate", 0.0);
  cfg.deadline_ms = real_arg(a, "deadline-ms", 60'000.0, true);
  cfg.max_outstanding =
      static_cast<std::uint32_t>(ranged_num_arg(a, "outstanding", 8, 1,
                                                kMaxCount));
  cfg.base_port =
      static_cast<std::uint16_t>(ranged_num_arg(a, "base-port", 47'100, 1,
                                                65'535));
  // Spawn mode binds base+k for every worker k and base+routers for the
  // driver; none of them may pass the last port.
  if ((a.flag("spawn") || a.kv.contains("worker")) &&
      cfg.base_port + std::uint64_t{cfg.routers} > 65'535) {
    std::cerr << "--base-port " << cfg.base_port << " + --routers "
              << cfg.routers << " passes port 65535 (spawn mode binds one "
              << "port per router plus one for the driver)\n";
    std::exit(2);
  }
  if (!a.str("timeline", "").empty()) {
    cfg.timeline_window_ms = real_arg(a, "timeline-window", 25.0, true);
  }
  const std::string backend = a.str("backend", "udp");
  if (backend == "loopback") {
    cfg.backend = net::MeshBackend::kLoopback;
  } else if (backend == "udp") {
    cfg.backend = net::MeshBackend::kUdp;
  } else {
    std::cerr << "unknown --backend '" << backend << "' (udp|loopback)\n";
    std::exit(2);
  }
  cfg.lookups =
      static_cast<std::uint32_t>(ranged_num_arg(a, "lookups", 0, 0, kMaxCount));
  // The departing router is never the bootstrap.
  if (a.kv.contains("leave")) {
    cfg.leave_router = static_cast<std::int32_t>(ranged_num_arg(
        a, "leave", 0, 1,
        std::min<std::uint64_t>(cfg.routers - 1,
                                std::numeric_limits<std::int32_t>::max())));
  }
  return cfg;
}

int cmd_net(const Args& a, const char* argv0) {
  const RunSummary summary;
  const net::MeshConfig cfg = mesh_config_from_args(a);
  const bool loopback = cfg.backend == net::MeshBackend::kLoopback;

  // Spawn mode runs the join storm only, one process per router over UDP,
  // and reports one ring audit line.  The lookup and leave phases need
  // in-process access to router state between phases, no worker's registry
  // or timeline reaches the spawning process, and the loopback backend is
  // one process on one virtual clock: those flags would be ignored, so they
  // are refused.
  if (a.flag("spawn") || a.kv.contains("worker")) {
    for (const char* flag : {"lookups", "leave", "metrics", "metrics-json",
                             "timeline", "timeline-window"}) {
      if (a.flag(flag)) {
        std::cerr << "--" << flag << " is not supported with --spawn\n\n";
        usage();
        return 2;
      }
    }
    if (loopback) {
      std::cerr << "--backend loopback is not supported with --spawn\n\n";
      usage();
      return 2;
    }
  }

  // Spawn-mode worker: the driver re-invoked this binary.  Run the storm and
  // exit; all reporting happens driver-side.
  if (a.kv.contains("worker")) {
    return net::run_mesh_worker(
        cfg, static_cast<net::RouterId>(
                 ranged_num_arg(a, "worker", 0, 0, cfg.routers - 1)));
  }

  // Spawn-mode driver: fork one process per router over real UDP ports.
  if (a.flag("spawn")) {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    const std::string exe = n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                                  : std::string(argv0);
    return net::run_mesh_spawn(cfg, exe, std::cout);
  }

  net::MeshResult r = net::run_mesh(cfg);
  obs::Registry& m = r.metrics;
  const auto counter = [&m](const char* name) {
    return m.counter_value(m.counter(name));
  };
  const std::uint64_t tx = counter("net.tx.frames");
  const std::uint64_t rx = counter("net.rx.frames");
  const double secs = r.elapsed_ms / 1000.0;
  const double pps_per_router =
      secs > 0.0 ? static_cast<double>(tx) / secs / cfg.routers : 0.0;
  const obs::Histogram& lat = m.histogram_at(m.histogram(
      "net.join.latency_ms", obs::Histogram::exponential_bounds(1.0, 2.0, 16)));

  std::cout << "[seed " << cfg.seed << "] live mesh: " << cfg.routers
            << " router(s), " << cfg.hosts << " hosts, "
            << (loopback ? "loopback" : "udp") << " backend, " << cfg.fingers
            << " fingers\n";
  Table t({"metric", "value"});
  t.add_row({std::string("converged"),
             std::string(r.converged ? "yes" : "NO (deadline)")});
  t.add_row({std::string("joins completed"),
             std::to_string(r.joins_completed) + "/" +
                 std::to_string(cfg.hosts - 1)});
  t.add_row({std::string(loopback ? "elapsed [virtual ms]"
                                  : "elapsed [wall ms]"),
             r.elapsed_ms});
  t.add_row({std::string("frames tx / rx"),
             std::to_string(tx) + " / " + std::to_string(rx)});
  t.add_row({std::string("sustained pps/router"), pps_per_router});
  t.add_row({std::string("join latency p50/p99 [ms]"),
             std::to_string(lat.percentile(0.5)) + " / " +
                 std::to_string(lat.percentile(0.99))});
  if (cfg.lookups > 0) {
    const obs::Histogram& llat = m.histogram_at(
        m.histogram("net.lookup.latency_ms",
                    obs::Histogram::exponential_bounds(0.25, 2.0, 16)));
    t.add_row({std::string("lookups hit/served"),
               std::to_string(r.lookups_hit) + "/" +
                   std::to_string(r.lookups_completed)});
    t.add_row({std::string("lookup latency p50/p99 [ms]"),
               std::to_string(llat.percentile(0.5)) + " / " +
                   std::to_string(llat.percentile(0.99))});
  }
  if (cfg.leave_router >= 0) {
    t.add_row({std::string("router " + std::to_string(cfg.leave_router) +
                           " departure"),
               std::string(r.leave_completed ? "clean" : "INCOMPLETE")});
  }
  t.add_row({std::string("retransmissions"),
             static_cast<std::int64_t>(counter("net.retrans"))});
  t.add_row({std::string("locate redirects"),
             static_cast<std::int64_t>(counter("net.redirects"))});
  t.add_row({std::string("frames dropped (impairment)"),
             static_cast<std::int64_t>(counter("faults.dropped"))});
  t.add_row({std::string("dedup / receive-queue drops"),
             std::to_string(counter("net.rx.dedup_dropped")) + " / " +
                 std::to_string(counter("net.rx.ring_dropped"))});
  t.add_row({std::string("audit"),
             r.audit.ok() ? std::string("clean (") +
                                std::to_string(r.audit.population) +
                                " vnodes exact)"
                          : std::to_string(r.audit.error_count) +
                                " defect(s)"});
  t.print(std::cout);
  for (const std::string& e : r.audit.errors) std::cout << "  " << e << "\n";

  // Section 6.3 byte-parity gate: on a lossless transport every 256-finger
  // JoinRequest must cost exactly 1638 bytes on the wire -- the simulator's
  // (and the paper's) figure, now measured on real frames.  Any deviation is
  // an encoding or accounting bug, so it fails the run loudly.
  bool parity_ok = true;
  const bool lossless = cfg.conditions.loss == 0.0 &&
                        cfg.conditions.duplicate == 0.0 &&
                        cfg.conditions.corrupt == 0.0;
  if (cfg.fingers == 256 && lossless) {
    wire::msg::JoinRequest jr;
    jr.fingers.resize(256);
    const std::uint64_t expect = wire::msg::control_wire_size(jr);
    const std::uint64_t msgs = counter("net.msgs.join_request");
    const std::uint64_t bytes = counter("net.bytes.join_request");
    parity_ok = msgs > 0 && bytes == msgs * expect;
    std::cout << "byte parity (6.3): " << msgs << " JoinRequests, " << bytes
              << " bytes, " << expect << "/msg -> "
              << (parity_ok ? "exact" : "MISMATCH") << "\n";
  }

  if (a.flag("metrics")) {
    std::cout << "\n-- merged metrics --\n";
    m.print_table(std::cout);
  }
  const std::string metrics_path = a.str("metrics-json", "");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "cannot write " << metrics_path << "\n";
      return 1;
    }
    out << m.to_json(0, /*with_buckets=*/true) << "\n";
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  const std::string timeline_path = a.str("timeline", "");
  if (!timeline_path.empty() && r.timeline != nullptr) {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      summary.start)
            .count();
    if (!write_timeline_jsonl(timeline_path, r.timeline->to_jsonl(), wall)) {
      return 1;
    }
  }
  // Every lookup targets a joined id, so a correct mesh serves them all as
  // hits; the departure must have drained every relink ack.
  const bool lookups_ok =
      cfg.lookups == 0 || (r.lookups_completed == cfg.lookups &&
                           r.lookups_hit == r.lookups_completed);
  summary.print(rx);
  return (r.converged && r.audit.ok() && parity_ok && lookups_ok &&
          r.leave_completed)
             ? 0
             : 1;
}

int cmd_shard(const Args& a) {
  const RunSummary summary;
  inter::ScaleParams p;
  p.seed = seed_arg(a);
  p.shards =
      static_cast<std::uint32_t>(ranged_num_arg(a, "shards", 1, 1, kMaxCount));
  p.hosts = ranged_num_arg(a, "hosts", 100'000, 0, kMaxCount);
  p.duration_ms = real_arg(a, "duration", 2000.0);
  p.tick_ms = real_arg(a, "tick", 50.0, true);
  p.op_rate_per_host_hz = real_arg(a, "rate", 1.0);
  // The conservative sync needs a positive lookahead across shards; one
  // shard never waits on a horizon, so zero is fine there.
  p.lookahead_ms = real_arg(a, "lookahead", 1.0, p.shards > 1);
  p.slots_per_as =
      static_cast<std::uint32_t>(ranged_num_arg(a, "slots", 64, 1, kMaxCount));
  // --ases scales the default AS mix proportionally (default 1518 total).
  const double ases = real_arg(a, "ases", 0.0);
  const double scale = ases > 0.0 ? ases / 1518.0 : 1.0;
  p.topo.tier2_count = static_cast<std::size_t>(60.0 * scale);
  p.topo.tier3_count = static_cast<std::size_t>(250.0 * scale);
  p.topo.stub_count = static_cast<std::size_t>(1200.0 * scale);
  const std::string timeline_path = a.str("timeline", "");
  if (!timeline_path.empty()) {
    p.timeline_window_ms = real_arg(a, "timeline-window", 50.0, true);
    p.timeline_capacity = 1 << 16;
  }
  p.profile = a.flag("profile");

  inter::ShardScaleModel model(p);
  const auto stats = model.run();
  const audit::ShardAuditReport rep = audit::audit_scale_run(model);

  std::cout << "[seed " << p.seed << "] " << model.topology().as_count()
            << " ASes, " << p.hosts << " hosts, " << p.shards
            << " shard(s), lookahead " << p.lookahead_ms << "ms\n";
  Table t({"metric", "value"});
  t.add_row({std::string("events processed"),
             static_cast<std::int64_t>(stats.processed)});
  t.add_row({std::string("cross-entity msgs"),
             static_cast<std::int64_t>(stats.entity_msgs)});
  t.add_row({std::string("cross-shard msgs"),
             static_cast<std::int64_t>(stats.cross_shard_msgs)});
  t.add_row({std::string("sync batches"),
             static_cast<std::int64_t>(stats.batches)});
  t.add_row({std::string("end time [ms]"), stats.end_time_ms});
  t.print(std::cout);

  const obs::Registry merged = model.merged_metrics();
  if (a.flag("metrics")) {
    std::cout << "\n-- merged metrics --\n";
    merged.print_table(std::cout);
  }
  std::ostringstream digest;
  digest << "0x" << std::hex << std::setfill('0') << std::setw(16)
         << model.flight_digest();
  std::cout << "flight digest: " << digest.str() << "\n";
  std::cout << "shard audit: " << rep.digest() << "\n";
  if (!rep.clean() || a.flag("report")) std::cout << rep.to_string();

  if (model.profiler() != nullptr) {
    std::cout << "\n-- engine profile (wall clock; reporting only) --\n";
    model.profiler()->print_table(std::cout);
  }

  const std::string metrics_path = a.str("metrics-json", "");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "cannot write " << metrics_path << "\n";
      return 1;
    }
    out << merged.to_json(0, /*with_buckets=*/true) << "\n";
    std::cout << "metrics written to " << metrics_path << "\n";
  }

  if (!timeline_path.empty()) {
    const obs::Timeline merged_tl = model.merged_timeline();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      summary.start)
            .count();
    if (!write_timeline_jsonl(timeline_path, merged_tl.to_jsonl(), wall)) {
      return 1;
    }
  }

  summary.print(stats.processed);
  return rep.clean() ? 0 : 1;
}

// -- `roflsim timeline` report mode -----------------------------------------

/// Parses the `"counters": {"name": V, ...}` object out of one timeline
/// window line.  The exporter emits flat one-line JSON with no nesting
/// inside the counters object, so a linear scan is sufficient (and keeps the
/// report tool dependency-free).
void parse_window_counters(
    const std::string& line,
    std::map<std::string, std::vector<std::uint64_t>>* series,
    std::size_t window_ordinal) {
  const std::size_t key = line.find("\"counters\":");
  if (key == std::string::npos) return;
  const std::size_t open = line.find('{', key);
  const std::size_t close = line.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return;
  std::size_t pos = open + 1;
  while (pos < close) {
    const std::size_t q1 = line.find('"', pos);
    if (q1 == std::string::npos || q1 >= close) break;
    const std::size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos || q2 >= close) break;
    const std::string name = line.substr(q1 + 1, q2 - q1 - 1);
    const std::size_t colon = line.find(':', q2);
    if (colon == std::string::npos || colon >= close) break;
    const std::uint64_t value = std::strtoull(line.c_str() + colon + 1,
                                              nullptr, 10);
    auto& vec = (*series)[name];
    // Counters appear only in windows where their delta is nonzero; pad the
    // gap with zeros so every series is aligned on the window axis.
    if (vec.size() < window_ordinal) vec.resize(window_ordinal, 0);
    vec.push_back(value);
    pos = line.find(',', colon);
    if (pos == std::string::npos || pos >= close) break;
    ++pos;
  }
}

/// Renders `values` as a fixed-width ASCII sparkline, rebinned by summation
/// when there are more windows than columns.  Scale is per-series (peak bin
/// maps to the densest glyph).
std::string sparkline(const std::vector<std::uint64_t>& values,
                      std::size_t width) {
  static const char kRamp[] = " .:-=+*#%@";
  constexpr std::size_t kLevels = sizeof(kRamp) - 2;  // index of densest
  if (values.empty() || width == 0) return "";
  const std::size_t bins = std::min(width, values.size());
  std::vector<std::uint64_t> binned(bins, 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    binned[i * bins / values.size()] += values[i];
  }
  std::uint64_t peak = 0;
  for (const std::uint64_t v : binned) peak = std::max(peak, v);
  std::string out;
  out.reserve(bins);
  for (const std::uint64_t v : binned) {
    const std::size_t level =
        peak == 0 ? 0 : (v * kLevels + peak - 1) / peak;  // ceil; 0 stays 0
    out.push_back(kRamp[level]);
  }
  return out;
}

int cmd_timeline(const Args& a) {
  const std::string path = a.str("file", "");
  if (path.empty()) {
    std::cerr << "roflsim timeline --file FILE [--metric SUBSTR] [--width N]\n";
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 1;
  }
  const std::string filter = a.str("metric", "");
  const std::size_t width = ranged_num_arg(a, "width", 56, 1, kMaxCount);

  std::map<std::string, std::vector<std::uint64_t>> series;
  std::size_t windows = 0;
  double window_ms = 0.0, first_t = 0.0, last_t = 0.0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"window\"", 0) != 0) continue;
    const std::size_t tkey = line.find("\"t_ms\":");
    const double t = tkey == std::string::npos
                         ? 0.0
                         : std::strtod(line.c_str() + tkey + 7, nullptr);
    if (windows == 0) first_t = t;
    last_t = t;
    parse_window_counters(line, &series, windows);
    ++windows;
  }
  if (windows == 0) {
    std::cerr << path << ": no timeline windows found\n";
    return 1;
  }
  if (windows > 1) window_ms = (last_t - first_t) / double(windows - 1);

  std::cout << path << ": " << windows << " windows";
  if (window_ms > 0.0) std::cout << " x " << window_ms << "ms";
  std::cout << ", sim time " << (first_t - window_ms < 0 ? 0.0
                                                         : first_t - window_ms)
            << ".." << last_t << "ms\n";

  Table t({"metric", "total", "peak/win", "sparkline"});
  std::size_t shown = 0;
  for (auto& [name, values] : series) {
    if (!filter.empty() && name.find(filter) == std::string::npos) continue;
    values.resize(windows, 0);  // trailing all-zero windows
    std::uint64_t total = 0, peak = 0;
    for (const std::uint64_t v : values) {
      total += v;
      peak = std::max(peak, v);
    }
    t.add_row({name, static_cast<std::int64_t>(total),
               static_cast<std::int64_t>(peak), sparkline(values, width)});
    ++shown;
  }
  if (shown == 0) {
    std::cerr << "no counter matches --metric '" << filter << "'\n";
    return 1;
  }
  t.print(std::cout);
  return 0;
}

void usage() {
  std::cout <<
      "roflsim -- ROFL (Routing on Flat Labels) experiment driver\n\n"
      "  roflsim topology  [--isp as1221|as1239|as3257|as3967 | --internet]\n"
      "  roflsim intra     [--isp NAME] [--hosts N] [--routes N] [--cache N]\n"
      "  roflsim inter     [--ids N] [--strategy eph|single|multi|peering]\n"
      "                    [--fingers N] [--bloom] [--routes N]\n"
      "  roflsim partition [--isp NAME] [--ids-per-pop N]\n"
      "  roflsim faults    [--isp NAME] [--hosts N] [--churn N] [--loss P]\n"
      "                    [--dup P] [--corrupt P] [--jitter MS] [--flaps N]\n"
      "                    [--metrics-json FILE]\n"
      "  roflsim audit     [--routers N] [--pops N] [--events N] [--loss P]\n"
      "                    [--dup P] [--corrupt P] [--audit-interval MS]\n"
      "                    [--settle MS]\n"
      "                    [--initial-hosts N] [--report] [--shrink]\n"
      "                    [--shrink-probes N] [--metrics-json FILE]\n"
      "  roflsim shard     [--shards N] [--hosts N] [--ases N] [--duration MS]\n"
      "                    [--tick MS] [--rate OPS_PER_HOST_HZ] [--slots N]\n"
      "                    [--lookahead MS] [--report] [--metrics] [--profile]\n"
      "                    [--metrics-json FILE]\n"
      "  roflsim net       [--routers N] [--hosts N] [--fingers N]\n"
      "                    [--backend udp|loopback] [--spawn] [--rate PPS]\n"
      "                    [--loss P] [--dup P] [--corrupt P] [--jitter MS]\n"
      "                    [--deadline-ms MS] [--base-port P]\n"
      "                    [--outstanding N] [--lookups N] [--leave ROUTER]\n"
      "                    [--metrics] [--metrics-json F]\n"
      "  roflsim timeline  --file FILE [--metric SUBSTR] [--width N]\n\n"
      "Every command but `timeline` accepts --seed S (default 1); runs are\n"
      "reproducible.  A flag the command does not read exits 2.\n"
      "`net` runs the control plane over actual sockets: a live mesh of\n"
      "router event loops (threads, or processes with --spawn) exchanging\n"
      "wire frames over localhost UDP, converging a join storm and auditing\n"
      "the assembled ring for exactness.  --backend loopback runs the same\n"
      "mesh single-threaded on a virtual clock (deterministic); with 256\n"
      "fingers and no impairment the run enforces the section 6.3 parity\n"
      "gate: every JoinRequest costs exactly 1638 bytes on the wire.\n"
      "--fingers is capped so that every JoinRequest fits one datagram.\n"
      "--spawn runs the UDP join storm alone and refuses --lookups, --leave,\n"
      "--metrics, --metrics-json, --timeline, --timeline-window and\n"
      "--backend loopback.\n"
      "`shard` runs the per-AS scale model on the sharded parallel simulator;\n"
      "its metrics, flight digest, audit digest, and --timeline file are\n"
      "bit-identical for every --shards value of the same seed (--profile\n"
      "prints the wall-clock busy/stall/idle engine profile per shard).\n"
      "`timeline` renders a --timeline JSONL file as sparkline series.\n"
      "Observability (intra/inter/partition/faults; --timeline and\n"
      "--timeline-window also audit/shard/net, --metrics also shard/net):\n"
      "  --trace FILE        write a Perfetto/chrome://tracing timeline;\n"
      "                      with --timeline it also carries counter tracks\n"
      "  --traceroute        print the hop dump of the last delivered route\n"
      "  --metrics           print the metrics registry after the run\n"
      "  --timeline FILE     write windowed metric deltas as JSONL\n"
      "  --timeline-window MS  window width (default 25; shard 50; must be a\n"
      "                      positive number -- 0 is rejected, not defaulted)\n";
}

/// The flags each command reads.  main() rejects any other flag, and any
/// stray argument, before the command runs: the parser takes every "--name",
/// so a mistyped or retired flag ("--los 0.5") would otherwise run as if it
/// were absent.
const std::map<std::string, std::set<std::string>>& command_flags() {
  // ObsSession's flags, read by the commands that build one.
  const auto with_obs = [](std::set<std::string> flags) {
    flags.insert({"trace", "traceroute", "metrics", "timeline",
                  "timeline-window"});
    return flags;
  };
  static const std::map<std::string, std::set<std::string>> table = {
      {"topology", {"seed", "isp", "internet"}},
      {"intra", with_obs({"seed", "isp", "hosts", "routes", "cache"})},
      {"inter",
       with_obs({"seed", "ids", "strategy", "fingers", "bloom", "routes"})},
      {"partition", with_obs({"seed", "isp", "ids-per-pop"})},
      {"faults",
       with_obs({"seed", "isp", "hosts", "churn", "loss", "dup", "corrupt",
                 "jitter", "flaps", "metrics-json"})},
      {"audit",
       {"seed", "routers", "pops", "events", "end", "loss", "dup", "corrupt",
        "audit-interval", "settle", "initial-hosts", "report", "shrink",
        "shrink-probes", "metrics-json", "timeline", "timeline-window"}},
      {"shard",
       {"seed", "shards", "hosts", "ases", "duration", "tick", "rate",
        "slots", "lookahead", "report", "metrics", "profile", "metrics-json",
        "timeline", "timeline-window"}},
      {"net",
       {"seed", "routers", "hosts", "fingers", "backend", "spawn", "worker",
        "rate", "loss", "dup", "corrupt", "jitter", "deadline-ms",
        "base-port", "outstanding", "lookups", "leave", "metrics",
        "metrics-json", "timeline", "timeline-window"}},
      {"timeline", {"file", "metric", "width"}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args = parse(argc, argv, 2);
  const auto known = command_flags().find(cmd);
  if (known == command_flags().end()) {
    usage();
    return 2;
  }
  for (const auto& [flag, value] : args.kv) {
    if (!known->second.contains(flag)) {
      std::cerr << "roflsim " << cmd << ": unknown flag --" << flag << "\n\n";
      usage();
      return 2;
    }
  }
  if (!args.stray.empty()) {
    std::cerr << "roflsim " << cmd << ": unexpected argument '"
              << args.stray.front() << "'\n\n";
    usage();
    return 2;
  }
  if (cmd == "topology") return cmd_topology(args);
  if (cmd == "intra") return cmd_intra(args);
  if (cmd == "inter") return cmd_inter(args);
  if (cmd == "partition") return cmd_partition(args);
  if (cmd == "faults") return cmd_faults(args);
  if (cmd == "audit") return cmd_audit(args);
  if (cmd == "net") return cmd_net(args, argv[0]);
  if (cmd == "shard") return cmd_shard(args);
  if (cmd == "timeline") return cmd_timeline(args);
  usage();
  return 2;
}
