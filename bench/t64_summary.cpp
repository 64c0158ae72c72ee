// t64_summary -- regenerates the "Summary of results" (section 6.4): one
// compact table per domain with our measured values next to the paper's
// reported ones, plus the same style of extrapolation to a 600M-ID system
// the paper performs (fitting the measured join-overhead growth against
// log2(n) and evaluating at 6e8).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "interdomain/inter_network.hpp"
#include "rofl/network.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rofl {
namespace {

/// Least-squares fit y = a + b*log2(n) over (n, y) points, evaluated at nx.
double extrapolate_log(const std::vector<std::pair<double, double>>& pts,
                       double nx) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [n, y] : pts) {
    const double x = std::log2(n);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double m = static_cast<double>(pts.size());
  const double denom = m * sxx - sx * sx;
  if (denom == 0.0) return pts.empty() ? 0.0 : pts.back().second;
  const double b = (m * sxy - sx * sy) / denom;
  const double a = (sy - b * sx) / m;
  return a + b * std::log2(nx);
}

}  // namespace
}  // namespace rofl

int main() {
  using namespace rofl;
  bench::print_scale_note(std::cout);

  // ---- Intradomain summary -------------------------------------------------
  print_banner(std::cout, "Section 6.4 summary -- Intradomain");
  {
    const std::size_t ids = bench::full_scale() ? 20'000 : 4'000;
    Table t({"metric", "measured", "paper"});
    SampleSet join_msgs, join_bytes, join_lat, stretches;
    double mean_state = 0.0;
    bool partitions_ok = true;
    int isp_count = 0;
    for (const auto which : graph::all_rocketfuel_ases()) {
      Rng trng(bench::kSeed);
      const graph::IspTopology topo = graph::make_rocketfuel_like(which, trng);
      intra::Config cfg;
      cfg.cache_capacity = 8192;
      intra::Network net(&topo, cfg, bench::kSeed + 23);
      std::vector<NodeId> joined;
      for (std::size_t i = 0; i < ids; ++i) {
        const auto gw = static_cast<graph::NodeIndex>(
            net.rng().index(net.router_count()));
        const Identity ident = Identity::generate(net.rng());
        const std::uint64_t bytes_before =
            net.simulator().counters().bytes(sim::MsgCategory::kJoin);
        const auto js = net.join_host(ident, gw);
        if (!js.ok) continue;
        joined.push_back(ident.id());
        join_msgs.add(static_cast<double>(js.messages));
        join_bytes.add(static_cast<double>(
            net.simulator().counters().bytes(sim::MsgCategory::kJoin) -
            bytes_before));
        join_lat.add(js.latency_ms);
      }
      for (int i = 0; i < 800; ++i) {
        const NodeId dest = joined[net.rng().index(joined.size())];
        const auto src = static_cast<graph::NodeIndex>(
            net.rng().index(net.router_count()));
        const auto rs = net.route(src, dest);
        const std::uint32_t sp =
            rs.delivered ? net.shortest_hops(src, dest) : 0;
        if (sp > 0) stretches.add(rs.stretch(sp));
      }
      mean_state += net.mean_state_entries();
      partitions_ok &= net.verify_rings();
      ++isp_count;
    }
    mean_state /= isp_count;
    t.add_row({std::string("routing stretch (8k-entry cache)"),
               stretches.mean(), std::string("1.2 - 2 with 9 Mbit cache")});
    t.add_row({std::string("join latency p99 [ms]"),
               join_lat.percentile(0.99), std::string("< 40 ms typical")});
    t.add_row({std::string("join overhead p99 [packets]"),
               join_msgs.percentile(0.99), std::string("< 45 packets")});
    t.add_row({std::string("join overhead mean [wire bytes]"),
               join_bytes.mean(), std::string("encoder-sized frames")});
    t.add_row({std::string("mean state entries/router"), mean_state,
               std::string("bounded: ring + cache")});
    t.add_row({std::string("rings consistent"),
               std::string(partitions_ok ? "yes" : "NO"),
               std::string("heals partitions/failures correctly")});
    t.print(std::cout);
  }

  // ---- Interdomain summary ---------------------------------------------------
  print_banner(std::cout, "Section 6.4 summary -- Interdomain");
  {
    Rng trng(bench::kSeed);
    const graph::AsTopology topo = bench::make_inter_topology(trng);
    Table t({"metric", "measured", "paper (600M extrapolation)"});

    // Join overhead growth for the three strategies, fit vs log2(n) and
    // extrapolated to 600M IDs exactly as the paper does.
    const std::size_t max_ids = bench::full_scale() ? 8'000 : 3'000;
    struct JoinSeries {
      std::vector<std::pair<double, double>> packets;
      std::vector<std::pair<double, double>> bytes;
    };
    auto series_for = [&](inter::JoinStrategy s) {
      inter::InterNetwork net(&topo, inter::InterConfig{}, bench::kSeed + 29);
      JoinSeries series;
      MovingAverage avg(200);
      MovingAverage avg_bytes(200);
      std::size_t next = 100;
      for (std::size_t n = 1; n <= max_ids; ++n) {
        const auto js = net.join_random_host(s);
        if (js.ok) {
          avg.add(static_cast<double>(js.messages));
          avg_bytes.add(static_cast<double>(js.bytes));
        }
        if (n == next) {
          series.packets.emplace_back(static_cast<double>(n), avg.value());
          series.bytes.emplace_back(static_cast<double>(n), avg_bytes.value());
          next *= 2;
        }
      }
      return series;
    };
    const auto eph = series_for(inter::JoinStrategy::kEphemeral);
    const auto single = series_for(inter::JoinStrategy::kSingleHomed);
    const auto multi = series_for(inter::JoinStrategy::kRecursiveMultihomed);
    t.add_row({std::string("ephemeral join @600M [packets]"),
               extrapolate_log(eph.packets, 6e8), std::string("~14")});
    t.add_row({std::string("single-homed join @600M [packets]"),
               extrapolate_log(single.packets, 6e8), std::string("~75-80")});
    t.add_row({std::string("multihomed join @600M [packets]"),
               extrapolate_log(multi.packets, 6e8), std::string("~100")});
    t.add_row({std::string("ephemeral join @600M [wire bytes]"),
               extrapolate_log(eph.bytes, 6e8),
               std::string("encoder-sized frames")});
    t.add_row({std::string("single-homed join @600M [wire bytes]"),
               extrapolate_log(single.bytes, 6e8),
               std::string("1638 B JoinRequest @256 fingers (sec 6.3)")});
    t.add_row({std::string("multihomed join @600M [wire bytes]"),
               extrapolate_log(multi.bytes, 6e8),
               std::string("encoder-sized frames")});

    // Stretch with a paper-scale finger table.
    {
      inter::InterConfig cfg;
      cfg.fingers_per_id = 160;
      inter::InterNetwork net(&topo, cfg, bench::kSeed + 31);
      for (std::size_t i = 0; i < max_ids / 2; ++i) {
        (void)net.join_random_host(inter::JoinStrategy::kRecursiveMultihomed);
      }
      std::vector<NodeId> joined;
      for (const auto& [id, home] : net.directory()) joined.push_back(id);
      SampleSet stretch;
      std::uint64_t violations = 0;
      for (int i = 0; i < 1000; ++i) {
        const NodeId dest = joined[net.rng().index(joined.size())];
        const auto src = net.home_of(joined[net.rng().index(joined.size())]);
        if (!src.has_value() || net.home_of(dest) == *src) continue;
        const auto rs = net.route(*src, dest);
        if (!rs.delivered) continue;
        if (!rs.isolation_held) ++violations;
        if (rs.bgp_hops > 0) stretch.add(rs.stretch());
      }
      t.add_row({std::string("stretch, 160 fingers"), stretch.mean(),
                 std::string("~2.5 (340 fingers), ~2.9 (128)")});
      t.add_row({std::string("isolation violations"),
                 static_cast<std::int64_t>(violations), std::string("0")});
      t.add_row({std::string("mean routing state [Mbit/AS]"),
                 net.mean_state_bits_per_as() / 1e6,
                 std::string("184 Mbit/AS @600M IDs, 256 fingers")});
    }
    // Bloom peering state.
    {
      inter::InterConfig cfg;
      cfg.peering_mode = inter::PeeringMode::kBloom;
      cfg.bloom_bits = 1u << 18;
      inter::InterNetwork net(&topo, cfg, bench::kSeed + 37);
      for (std::size_t i = 0; i < 500; ++i) {
        (void)net.join_random_host(inter::JoinStrategy::kPeering);
      }
      t.add_row({std::string("bloom filter state [Mbit/AS]"),
                 net.mean_bloom_bits_per_as() / 1e6,
                 std::string("74 Mbit/AS @600M IDs")});
    }
    t.print(std::cout);
  }
  std::cout << "\nNote: measured values come from the simulation scales "
               "printed above; the paper column lists the published "
               "600M-host extrapolations for context.\n";
  return 0;
}
