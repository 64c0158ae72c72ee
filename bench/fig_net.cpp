// fig_net -- live-mesh throughput and join-storm convergence (BENCH_net.json).
//
// Everything else in bench/ measures the simulator; this bench measures the
// real-packet path (DESIGN.md section 15): LiveRouter event loops exchanging
// wire frames through the transport pump, over the in-process loopback hub
// and over actual localhost UDP sockets.  Cells:
//
//   loopback/256f   deterministic parity cell -- every JoinRequest must cost
//                   exactly the section 6.3 figure (1638 bytes) on the wire;
//   udp/clean       an 8-router mesh on real sockets, no impairment:
//                   sustained pps per router, join latency percentiles, and
//                   200 data-plane lookups served over the converged mesh
//                   (per-lookup latency percentiles; every probe must hit);
//   udp/impaired    the same mesh under 2% loss + 1% duplication, showing
//                   the retry/dedup machinery converging anyway;
//   udp/storm       (ROFL_BENCH_FULL=1 only) the acceptance-scale cell: a
//                   100-router mesh converging a 10k-host join storm.
//
// Gates deciding the exit code: every cell converges with a clean ring
// audit, and the loopback cell's byte accounting is exact.
//
// Output: a console table plus BENCH_net.json (override the path with
// ROFL_NET_JSON; empty string suppresses emission).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "net/mesh.hpp"
#include "util/table.hpp"
#include "wire/messages.hpp"

namespace rofl {
namespace {

struct NetCell {
  std::string name;
  net::MeshConfig cfg;
  bool converged = false;
  bool clean = false;
  std::uint64_t joins = 0;
  double elapsed_ms = 0.0;
  double pps_per_router = 0.0;
  double lat_p50 = 0.0;
  double lat_p99 = 0.0;
  std::uint64_t lookups = 0;
  std::uint64_t lookup_hits = 0;
  double lookup_p50 = 0.0;
  double lookup_p99 = 0.0;
  double bytes_per_join = 0.0;
  std::uint64_t retrans = 0;
  std::uint64_t dropped = 0;   // impairment-layer drops
  bool parity_applies = false;
  bool parity_exact = false;
  long rss_kb = 0;
};

NetCell run_cell(std::string name, const net::MeshConfig& cfg) {
  NetCell cell;
  cell.name = std::move(name);
  cell.cfg = cfg;

  net::MeshResult r = net::run_mesh(cfg);
  obs::Registry& m = r.metrics;
  const auto counter = [&m](const char* n) {
    return m.counter_value(m.counter(n));
  };
  cell.converged = r.converged;
  cell.clean = r.audit.ok();
  cell.joins = r.joins_completed;
  cell.elapsed_ms = r.elapsed_ms;
  const double secs = r.elapsed_ms / 1000.0;
  const std::uint64_t tx = counter("net.tx.frames");
  cell.pps_per_router =
      secs > 0.0 ? static_cast<double>(tx) / secs / cfg.routers : 0.0;
  const obs::Histogram& lat = m.histogram_at(m.histogram(
      "net.join.latency_ms", obs::Histogram::exponential_bounds(1.0, 2.0, 16)));
  cell.lat_p50 = lat.percentile(0.5);
  cell.lat_p99 = lat.percentile(0.99);
  if (cfg.lookups > 0) {
    cell.lookups = r.lookups_completed;
    cell.lookup_hits = r.lookups_hit;
    const obs::Histogram& llat = m.histogram_at(
        m.histogram("net.lookup.latency_ms",
                    obs::Histogram::exponential_bounds(0.25, 2.0, 16)));
    cell.lookup_p50 = llat.percentile(0.5);
    cell.lookup_p99 = llat.percentile(0.99);
  }
  cell.bytes_per_join =
      r.joins_completed > 0
          ? static_cast<double>(counter("net.tx.bytes")) /
                static_cast<double>(r.joins_completed)
          : 0.0;
  cell.retrans = counter("net.retrans");
  cell.dropped = counter("faults.dropped");
  cell.rss_kb = bench::peak_rss_kb();

  // Section 6.3 parity: only meaningful where nothing resends or vanishes.
  cell.parity_applies = cfg.fingers == 256 && cfg.conditions.loss == 0.0 &&
                        cfg.conditions.duplicate == 0.0 &&
                        cfg.conditions.corrupt == 0.0 &&
                        cfg.backend == net::MeshBackend::kLoopback;
  if (cell.parity_applies) {
    wire::msg::JoinRequest jr;
    jr.fingers.resize(256);
    const std::uint64_t expect = wire::msg::control_wire_size(jr);
    const std::uint64_t msgs = counter("net.msgs.join_request");
    const std::uint64_t bytes = counter("net.bytes.join_request");
    cell.parity_exact = msgs > 0 && bytes == msgs * expect;
  }
  if (!cell.converged || !cell.clean) {
    std::cerr << cell.name << ": converged=" << cell.converged
              << " audit_errors=" << r.audit.error_count << "\n";
    for (const std::string& e : r.audit.errors) std::cerr << "  " << e << "\n";
  }
  return cell;
}

void write_json(const std::vector<NetCell>& cells, double total_wall) {
  std::string path = "BENCH_net.json";
  if (const char* env = std::getenv("ROFL_NET_JSON")) path = env;
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "fig_net: cannot open " << path << "\n";
    return;
  }
  out << "{\n  \"schema\": \"rofl-bench-net-v1\",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    out << "    {\"name\": \"" << c.name << "\", \"backend\": \""
        << (c.cfg.backend == net::MeshBackend::kLoopback ? "loopback" : "udp")
        << "\", \"routers\": " << c.cfg.routers
        << ", \"hosts\": " << c.cfg.hosts
        << ", \"fingers\": " << c.cfg.fingers
        << ", \"loss\": " << c.cfg.conditions.loss
        << ", \"dup\": " << c.cfg.conditions.duplicate
        << ", \"converged\": " << (c.converged ? "true" : "false")
        << ", \"audit_clean\": " << (c.clean ? "true" : "false")
        << ", \"joins\": " << c.joins
        << ", \"elapsed_ms\": " << c.elapsed_ms
        << ", \"pps_per_router\": " << c.pps_per_router
        << ", \"join_latency_p50_ms\": " << c.lat_p50
        << ", \"join_latency_p99_ms\": " << c.lat_p99
        << ", \"bytes_per_join\": " << c.bytes_per_join
        << ", \"lookups\": " << c.lookups
        << ", \"lookup_hits\": " << c.lookup_hits
        << ", \"lookup_latency_p50_ms\": " << c.lookup_p50
        << ", \"lookup_latency_p99_ms\": " << c.lookup_p99
        << ", \"retransmissions\": " << c.retrans
        << ", \"impairment_drops\": " << c.dropped
        << ", \"peak_rss_kb\": " << c.rss_kb;
    if (c.parity_applies) {
      out << ", \"byte_parity_63\": " << (c.parity_exact ? "true" : "false");
    }
    out << "}" << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"run\": " << bench::run_info_json(total_wall) << "\n}\n";
  std::cout << "JSON written to " << path << "\n";
}

}  // namespace
}  // namespace rofl

int main() {
  using namespace rofl;
  bench::print_scale_note(std::cout);
  print_banner(std::cout,
               "Live mesh: sustained pps/router and join-storm convergence");

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<NetCell> cells;

  {
    net::MeshConfig cfg;
    cfg.backend = net::MeshBackend::kLoopback;
    cfg.routers = 4;
    cfg.hosts = 600;
    cfg.fingers = 256;
    cfg.seed = bench::kSeed;
    cells.push_back(run_cell("loopback/256f", cfg));
  }
  {
    net::MeshConfig cfg;
    cfg.backend = net::MeshBackend::kUdp;
    cfg.routers = 8;
    cfg.hosts = 1500;
    cfg.fingers = 8;
    cfg.seed = bench::kSeed;
    cfg.deadline_ms = 120'000.0;
    cfg.lookups = 200;  // data-plane probes served over the converged mesh
    cells.push_back(run_cell("udp/clean", cfg));
  }
  {
    net::MeshConfig cfg;
    cfg.backend = net::MeshBackend::kUdp;
    cfg.routers = 8;
    cfg.hosts = 800;
    cfg.fingers = 8;
    cfg.seed = bench::kSeed;
    cfg.conditions.loss = 0.02;
    cfg.conditions.duplicate = 0.01;
    cfg.deadline_ms = 120'000.0;
    cells.push_back(run_cell("udp/impaired", cfg));
  }
  if (bench::full_scale()) {
    net::MeshConfig cfg;
    cfg.backend = net::MeshBackend::kUdp;
    cfg.routers = 100;
    cfg.hosts = 10'000;
    cfg.fingers = 8;
    cfg.seed = bench::kSeed;
    cfg.deadline_ms = 300'000.0;
    cfg.lookups = 1'000;
    cells.push_back(run_cell("udp/storm", cfg));
  }

  Table t({"cell", "routers", "hosts", "conv", "audit", "elapsed ms",
           "pps/router", "p50 ms", "p99 ms", "bytes/join", "lkup p99 ms"});
  for (const auto& c : cells) {
    t.add_row({c.name, static_cast<std::int64_t>(c.cfg.routers),
               static_cast<std::int64_t>(c.cfg.hosts),
               std::string(c.converged ? "yes" : "NO"),
               std::string(c.clean ? "clean" : "DEFECTS"), c.elapsed_ms,
               c.pps_per_router, c.lat_p50, c.lat_p99, c.bytes_per_join,
               c.lookup_p99});
  }
  t.print(std::cout);

  bool ok = true;
  for (const auto& c : cells) {
    ok = ok && c.converged && c.clean;
    if (c.cfg.lookups > 0) {
      ok = ok && c.lookups == c.cfg.lookups && c.lookup_hits == c.lookups;
    }
    if (c.parity_applies) {
      std::cout << "byte parity (6.3) on " << c.name << ": "
                << (c.parity_exact ? "exact" : "MISMATCH") << "\n";
      ok = ok && c.parity_exact;
    }
  }
  const double total_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  write_json(cells, total_wall);
  std::cout << (ok ? "\nall cells converged, audits clean\n"
                   : "\nFAILURE: see cells above\n");
  return ok ? 0 : 1;
}
