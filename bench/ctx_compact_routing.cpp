// ctx_compact_routing -- the related-work context the paper opens with:
// "While ROFL falls far short of the static compact routing performance
// described in [24, 25], it seems far better suited for a distributed
// dynamic implementation."
//
// This bench quantifies both halves of that sentence on the same ISP
// topologies:
//   * static performance: Thorup-Zwick stretch-3 compact routing gets lower
//     stretch with sublinear per-router state;
//   * dynamics: TZ has no incremental join/repair story -- a topology or
//     membership change forces preprocessing from scratch (quantified as
//     full-rebuild cost), while ROFL pays a handful of packets.
#include <iostream>

#include "baselines/compact_routing.hpp"
#include "bench_common.hpp"
#include "rofl/network.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace rofl;
  bench::print_scale_note(std::cout);
  const std::size_t ids = bench::full_scale() ? 8'000 : 2'000;
  const std::size_t samples = bench::full_scale() ? 3'000 : 800;

  print_banner(std::cout,
               "Static comparison: ROFL vs Thorup-Zwick stretch-3 compact "
               "routing (router-to-router)");
  Table t({"ISP", "TZ mean stretch", "TZ max stretch", "TZ entries/router",
           "ROFL mean stretch", "ROFL entries/router"});
  for (const auto which : graph::all_rocketfuel_ases()) {
    Rng trng(bench::kSeed);
    const graph::IspTopology topo = graph::make_rocketfuel_like(which, trng);

    // TZ over the router graph.
    Rng lrng(bench::kSeed + 1);
    const baselines::CompactRouting cr(&topo.graph, lrng);
    SampleSet tz;
    double tz_max = 0.0;
    Rng pick(bench::kSeed + 2);
    for (std::size_t i = 0; i < samples; ++i) {
      const auto u = static_cast<graph::NodeIndex>(
          pick.index(topo.router_count()));
      const auto v = static_cast<graph::NodeIndex>(
          pick.index(topo.router_count()));
      const auto r = cr.route(u, v);
      if (r.delivered && r.shortest > 0) {
        tz.add(r.stretch());
        tz_max = std::max(tz_max, r.stretch());
      }
    }

    // ROFL routing between router IDs (the comparable workload), with the
    // usual host population and cache.
    intra::Config cfg;
    cfg.cache_capacity = 2048;
    intra::Network net(&topo, cfg, bench::kSeed + 3);
    for (std::size_t i = 0; i < ids; ++i) (void)net.join_random_host();
    SampleSet rofl;
    for (std::size_t i = 0; i < samples; ++i) {
      const auto u = static_cast<graph::NodeIndex>(
          pick.index(net.router_count()));
      const auto v = static_cast<graph::NodeIndex>(
          pick.index(net.router_count()));
      if (u == v) continue;
      const NodeId dest = net.router(v).router_id();
      const auto rs = net.route(u, dest);
      const std::uint32_t sp = rs.delivered ? net.shortest_hops(u, dest) : 0;
      if (sp > 0) rofl.add(rs.stretch(sp));
    }

    t.add_row({topo.name, tz.mean(), tz_max, cr.mean_table_size(),
               rofl.mean(), net.mean_state_entries()});
  }
  t.print(std::cout);

  print_banner(std::cout,
               "Dynamic comparison: cost of one membership/topology change");
  {
    Rng trng(bench::kSeed);
    const graph::IspTopology topo =
        graph::make_rocketfuel_like(graph::RocketfuelAs::kAs3967, trng);
    intra::Network net(&topo, intra::Config{}, bench::kSeed + 7);
    for (int i = 0; i < 500; ++i) (void)net.join_random_host();
    const auto js = net.join_random_host();

    // TZ "update": the scheme is static; re-run preprocessing (counted as
    // one BFS per node plus one per landmark, in traversed-edge units).
    const std::uint64_t rebuild_edges =
        static_cast<std::uint64_t>(topo.graph.edge_count()) * 2 *
        (topo.router_count() + static_cast<std::size_t>(std::sqrt(
                                   static_cast<double>(topo.router_count()))));
    Table d({"system", "cost of one change"});
    d.add_row({std::string("ROFL join (packets)"),
               static_cast<std::int64_t>(js.messages)});
    d.add_row({std::string("TZ full rebuild (edge traversals)"),
               static_cast<std::int64_t>(rebuild_edges)});
    d.print(std::cout);
  }
  std::cout << "\nPaper reference: compact routing wins statically (stretch "
               "<= 3 with sublinear state) but has no dynamic distributed "
               "construction; ROFL trades stretch for cheap incremental "
               "joins, repairs, and flat (name-independent) labels.\n";
  return 0;
}
