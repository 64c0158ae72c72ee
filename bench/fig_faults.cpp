// fig_faults -- ring convergence under an unreliable network.
//
// The paper's evaluation assumes reliable control-plane delivery; section 2.3
// only sketches what loss recovery must do ("Recovering").  This bench
// quantifies it: a churn workload runs under a FaultPlan sweeping message
// loss from 0 to 10% (plus duplication, jitter and scheduled link flaps) and
// reports what the retry/timeout/backoff machinery paid to converge -- extra
// control packets per successful join, retries, exhausted exchanges, and
// mid-churn delivery -- then verifies that once the faults stop a single
// repair pass restores canonical rings.
//
// Output: a console table plus BENCH_faults.json (override the path with
// ROFL_FAULTS_JSON; empty string suppresses emission) with one entry per
// loss level and the full obs::Registry snapshot of the reference run, so
// scripts/check.sh can diff two same-seed runs for bit-identical fault
// accounting.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "obs/timeline.hpp"
#include "rofl/network.hpp"
#include "sim/faults.hpp"
#include "util/table.hpp"

namespace rofl {
namespace {

struct FaultSweepResult {
  double loss = 0.0;
  std::uint64_t joins_ok = 0;
  std::uint64_t joins_failed = 0;
  double msgs_per_join = 0.0;
  std::uint64_t dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t retries_exhausted = 0;
  std::uint64_t flaps = 0;
  double delivery = 0.0;       // mid-churn data-plane success rate
  double repair_msgs = 0.0;    // faults-off repair pass cost
  bool converged = false;      // strict ring verification after repair
  std::uint64_t events_dispatched = 0;
  double wall_seconds = 0.0;   // host wall time of this level's run
  std::string metrics_json;    // full registry snapshot (determinism gate)
  /// Per-window delta series over the faulty phase (convergence curves).
  double timeline_window_ms = 0.0;
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> series;
};

FaultSweepResult run_level(double loss, std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  FaultSweepResult res;
  res.loss = loss;

  Rng trng(seed);
  graph::IspParams params;
  params.router_count = 48;
  params.pop_count = 6;
  graph::IspTopology topo = graph::make_isp_topology(params, trng);
  intra::Network net(&topo, intra::Config{}, seed + 1);

  // The fault plan scales with the swept loss rate; flaps hit real edges.
  sim::FaultPlan plan;
  plan.defaults.loss = loss;
  plan.defaults.duplicate = loss / 2.0;
  plan.defaults.jitter_ms = 0.3;
  std::vector<std::pair<graph::NodeIndex, graph::NodeIndex>> edges;
  for (graph::NodeIndex u = 0; u < topo.graph.node_count(); ++u) {
    for (const auto& e : topo.graph.neighbors(u)) {
      if (e.to > u) edges.emplace_back(u, e.to);
    }
  }
  Rng frng(seed * 5 + 1);
  for (int i = 0; i < 3; ++i) {
    const auto [u, v] = edges[frng.index(edges.size())];
    const double down = 10.0 + 15.0 * i;
    plan.link_flaps.push_back({u, v, down, down + 12.0});
  }
  sim::FaultInjector inj(plan, seed ^ 0xF417C0DEull,
                         &net.simulator().metrics());
  net.set_fault_injector(&inj);
  net.schedule_fault_plan(plan);

  // Windowed telemetry over the faulty phase.
  obs::Timeline timeline(&net.simulator().metrics(),
                         obs::Timeline::Config{10.0, 4096});
  net.simulator().set_timeline(&timeline);

  const std::size_t hosts = bench::full_scale() ? 600 : 150;
  const int churn_ops = bench::full_scale() ? 200 : 60;

  // Phase 1: joins under loss.
  std::uint64_t join_msgs = 0;
  std::vector<Identity> live;
  Rng wrng(seed * 9 + 7);
  double t = 0.0;
  for (std::size_t i = 0; i < hosts; ++i) {
    t += 0.5;
    net.simulator().run_until(t);  // interleave so the flap windows fire
    Identity ident = Identity::generate(net.rng());
    const auto gw =
        static_cast<graph::NodeIndex>(wrng.index(net.router_count()));
    const auto js = net.join_host(ident, gw);
    if (js.ok) {
      ++res.joins_ok;
      join_msgs += js.messages;
      live.push_back(ident);
    } else {
      ++res.joins_failed;
    }
  }
  res.msgs_per_join = res.joins_ok == 0
                          ? 0.0
                          : static_cast<double>(join_msgs) /
                                static_cast<double>(res.joins_ok);

  // Phase 2: churn + traffic under loss.
  std::size_t attempted = 0, delivered = 0;
  for (int op = 0; op < churn_ops; ++op) {
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
      if (net.route(src, live[wrng.index(live.size())].id()).delivered) {
        ++delivered;
      }
    }
  }
  net.simulator().run_until(t + 100.0);  // all flap windows closed
  res.delivery = attempted == 0 ? 1.0
                                : static_cast<double>(delivered) /
                                      static_cast<double>(attempted);

  res.dropped = inj.dropped();
  res.retries = inj.retries();
  res.retries_exhausted = inj.retries_exhausted();
  res.flaps = inj.flaps();
  res.metrics_json = net.simulator().metrics().to_json(2);

  // Snapshot the series before the faults-off repair, like the metrics.
  timeline.flush(net.simulator().now_ms());
  net.simulator().set_timeline(nullptr);
  res.timeline_window_ms = timeline.window_ms();
  for (const char* name : {"faults.dropped", "faults.retries", "msgs.join",
                           "msgs.repair", "msgs.data"}) {
    res.series.emplace_back(name, timeline.counter_series(name));
  }

  // Faults off: one repair pass must restore canonical rings.
  net.set_fault_injector(nullptr);
  const auto rs = net.repair_partitions();
  res.repair_msgs = static_cast<double>(rs.messages);
  std::string err;
  res.converged = net.verify_rings(&err, /*strict=*/true);
  if (!res.converged) {
    std::cerr << "loss=" << loss << ": rings NOT canonical after repair: "
              << err << "\n";
  }
  res.events_dispatched = net.simulator().events_dispatched();
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

void write_json(const std::vector<FaultSweepResult>& sweep,
                const FaultSweepResult& reference) {
  std::string path = "BENCH_faults.json";
  if (const char* env = std::getenv("ROFL_FAULTS_JSON")) path = env;
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "fig_faults: cannot open " << path << "\n";
    return;
  }
  out << "{\n  \"schema\": \"rofl-bench-faults-v1\",\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& r = sweep[i];
    out << "    {\"loss\": " << r.loss << ", \"joins_ok\": " << r.joins_ok
        << ", \"joins_failed\": " << r.joins_failed
        << ", \"msgs_per_join\": " << r.msgs_per_join
        << ", \"dropped\": " << r.dropped << ", \"retries\": " << r.retries
        << ", \"retries_exhausted\": " << r.retries_exhausted
        << ", \"flaps\": " << r.flaps << ", \"delivery\": " << r.delivery
        << ", \"repair_msgs\": " << r.repair_msgs
        << ", \"converged\": " << (r.converged ? "true" : "false")
        << ", \"events_dispatched\": " << r.events_dispatched
        << ", \"events_per_sec\": "
        << (r.wall_seconds > 0.0
                ? static_cast<double>(r.events_dispatched) / r.wall_seconds
                : 0.0)
        << "}" << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"run\": " << bench::run_info_json([&] {
    double total = 0.0;
    for (const auto& r : sweep) total += r.wall_seconds;
    return total;
  }());
  // Reference level's per-window deltas: what convergence cost over time.
  out << ",\n  \"series\": {\n    \"window_ms\": "
      << reference.timeline_window_ms;
  for (const auto& [name, values] : reference.series) {
    out << ",\n    \"" << name << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i == 0 ? "" : ", ") << values[i];
    }
    out << "]";
  }
  out << "\n  }";
  out << ",\n  \"metrics\": " << reference.metrics_json << "\n}\n";
  std::cout << "JSON written to " << path << "\n";
}

}  // namespace
}  // namespace rofl

int main() {
  using namespace rofl;
  bench::print_scale_note(std::cout);
  print_banner(std::cout,
               "Ring convergence under loss/duplication/jitter + link flaps");

  const std::vector<double> losses = {0.0, 0.01, 0.02, 0.05, 0.10};
  std::vector<FaultSweepResult> sweep;
  Table t({"loss", "joins ok", "joins failed", "msgs/join", "dropped",
           "retries", "exhausted", "delivery", "repair msgs", "converged"});
  for (const double loss : losses) {
    sweep.push_back(run_level(loss, bench::kSeed));
    const auto& r = sweep.back();
    t.add_row({r.loss, static_cast<std::int64_t>(r.joins_ok),
               static_cast<std::int64_t>(r.joins_failed), r.msgs_per_join,
               static_cast<std::int64_t>(r.dropped),
               static_cast<std::int64_t>(r.retries),
               static_cast<std::int64_t>(r.retries_exhausted), r.delivery,
               r.repair_msgs, std::string(r.converged ? "yes" : "NO")});
  }
  t.print(std::cout);

  std::cout
      << "\nLoss makes joins pay for retransmissions (msgs/join grows with "
         "the loss rate) and the timeout latency of each discovered drop; "
         "exhausted exchanges surface as failed joins rather than corrupt "
         "rings.  Once the network behaves, a single repair pass returns "
         "every level to canonical successor/predecessor state.\n";

  // Determinism spot-check: a second run of the reference level must
  // reproduce the fault accounting bit-for-bit.
  const FaultSweepResult again = run_level(0.05, bench::kSeed);
  const auto& ref = sweep[3];
  const bool identical = again.dropped == ref.dropped &&
                         again.retries == ref.retries &&
                         again.joins_ok == ref.joins_ok &&
                         again.flaps == ref.flaps;
  std::cout << "same-seed reproduction at loss=0.05: "
            << (identical ? "bit-identical fault accounting" : "MISMATCH")
            << "\n";

  write_json(sweep, sweep[3]);
  return identical ? 0 : 1;
}
