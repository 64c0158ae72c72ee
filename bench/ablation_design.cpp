// ablation_design -- quantifies the design choices DESIGN.md calls out,
// beyond what the paper's figures show directly:
//
//   A1. successor-group depth k: join cost vs resilience to simultaneous
//       adjacent failures (section 2.2 motivates successor-groups but never
//       sizes them);
//   A2. control-path caching on/off: the entire stretch benefit of figure 6a
//       comes from it;
//   A3. redundant-lookup elimination on/off: the section-6.3 optimization
//       that keeps multihomed joins near single-homed cost;
//   A4. finger digit width b: table geometry vs stretch at a fixed finger
//       budget.
#include <iostream>

#include "bench_common.hpp"
#include "interdomain/inter_network.hpp"
#include "rofl/network.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rofl {
namespace {

graph::IspTopology isp(Rng& rng) {
  graph::IspParams p;
  p.name = "ablation";
  p.router_count = 120;
  p.pop_count = 12;
  return graph::make_isp_topology(p, rng);
}

void ablation_successor_group(std::ostream& os) {
  print_banner(os, "A1: successor-group depth k -- join cost vs resilience");
  Table t({"k", "mean join [packets]", "ring ok after 3-deep cut",
           "repair msgs after cut"});
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    Rng trng(bench::kSeed);
    const graph::IspTopology topo = isp(trng);
    intra::Config cfg;
    cfg.successor_group = k;
    intra::Network net(&topo, cfg, bench::kSeed + k);
    SampleSet join_cost;
    std::vector<NodeId> ids;
    for (int i = 0; i < 400; ++i) {
      Identity ident = Identity::generate(net.rng());
      const auto gw = static_cast<graph::NodeIndex>(
          net.rng().index(net.router_count()));
      const auto js = net.join_host(ident, gw);
      if (!js.ok) continue;
      join_cost.add(static_cast<double>(js.messages));
      ids.push_back(ident.id());
    }
    std::sort(ids.begin(), ids.end());
    // Kill three consecutive ring members without intermediate repair.
    for (int i = 100; i < 103; ++i) {
      (void)net.fail_host(ids[static_cast<std::size_t>(i)]);
    }
    const bool ok = net.verify_rings();
    const intra::RepairStats rs = net.repair_partitions();
    t.add_row({static_cast<std::int64_t>(k), join_cost.mean(),
               std::string(ok ? "yes" : "no"),
               static_cast<std::int64_t>(rs.messages)});
  }
  t.print(os);
  os << "Deeper groups pay per-join for teardown-free survival of deeper "
        "simultaneous cuts.\n";
}

void ablation_control_path_caching(std::ostream& os) {
  print_banner(os, "A2: control-path caching on/off -- stretch impact");
  Table t({"caching", "mean stretch", "mean cache entries/router"});
  for (const bool on : {true, false}) {
    Rng trng(bench::kSeed);
    const graph::IspTopology topo = isp(trng);
    intra::Config cfg;
    cfg.cache_capacity = on ? 2048 : 0;
    cfg.cache_control_paths = on;
    intra::Network net(&topo, cfg, bench::kSeed + 17);
    std::vector<NodeId> ids;
    for (int i = 0; i < 800; ++i) {
      Identity ident = Identity::generate(net.rng());
      const auto gw = static_cast<graph::NodeIndex>(
          net.rng().index(net.router_count()));
      if (net.join_host(ident, gw).ok) ids.push_back(ident.id());
    }
    SampleSet stretch;
    for (int i = 0; i < 600; ++i) {
      const NodeId dest = ids[net.rng().index(ids.size())];
      const auto src = static_cast<graph::NodeIndex>(
          net.rng().index(net.router_count()));
      const auto rs = net.route(src, dest);
      const std::uint32_t sp = rs.delivered ? net.shortest_hops(src, dest) : 0;
      if (sp > 0) stretch.add(rs.stretch(sp));
    }
    double cache_entries = 0.0;
    for (graph::NodeIndex r = 0; r < net.router_count(); ++r) {
      cache_entries += static_cast<double>(net.router(r).cache().size());
    }
    cache_entries /= static_cast<double>(net.router_count());
    t.add_row({std::string(on ? "on" : "off"), stretch.mean(), cache_entries});
  }
  t.print(os);
}

void ablation_redundant_lookups(std::ostream& os) {
  print_banner(os,
               "A3: redundant-lookup elimination -- multihomed join cost");
  Rng trng(bench::kSeed);
  const graph::AsTopology topo = bench::make_inter_topology(trng);
  Table t({"optimization", "mean multihomed join [packets]"});
  for (const bool on : {true, false}) {
    inter::InterConfig cfg;
    cfg.prune_redundant_lookups = on;
    inter::InterNetwork net(&topo, cfg, bench::kSeed + 23);
    SampleSet cost;
    for (int i = 0; i < 600; ++i) {
      const auto js =
          net.join_random_host(inter::JoinStrategy::kRecursiveMultihomed);
      if (js.ok && i > 100) cost.add(static_cast<double>(js.messages));
    }
    t.add_row({std::string(on ? "on" : "off"), cost.mean()});
  }
  t.print(os);
  os << "Paper (6.3): although up-hierarchies have 75-100 ASes, unique "
        "successors are few; eliminating redundant lookups keeps multihomed "
        "joins near single-homed cost.\n";
}

void ablation_finger_digits(std::ostream& os) {
  print_banner(os, "A4: finger digit width b at a 96-finger budget");
  Rng trng(bench::kSeed);
  const graph::AsTopology topo = bench::make_inter_topology(trng);
  Table t({"b [bits]", "fingers acquired/id", "mean stretch"});
  for (const unsigned b : {1u, 2u, 4u}) {
    inter::InterConfig cfg;
    cfg.fingers_per_id = 96;
    cfg.finger_digit_bits = b;
    inter::InterNetwork net(&topo, cfg, bench::kSeed + 31);
    for (int i = 0; i < 1200; ++i) {
      (void)net.join_random_host(inter::JoinStrategy::kRecursiveMultihomed);
    }
    std::vector<NodeId> ids;
    for (const auto& [id, home] : net.directory()) ids.push_back(id);
    SampleSet stretch;
    for (int i = 0; i < 800; ++i) {
      const NodeId dest = ids[net.rng().index(ids.size())];
      const auto src = net.home_of(ids[net.rng().index(ids.size())]);
      if (!src.has_value() || net.home_of(dest) == *src) continue;
      const auto rs = net.route(*src, dest);
      if (rs.delivered && rs.bgp_hops > 0) stretch.add(rs.stretch());
    }
    const double per_id = static_cast<double>(net.total_finger_count()) /
                          static_cast<double>(ids.size());
    t.add_row({static_cast<std::int64_t>(b), per_id, stretch.mean()});
  }
  t.print(os);
  os << "Wider digits pack more entries per row (denser short-prefix "
        "coverage) but exhaust matching candidates sooner at small "
        "populations.\n";
}

void ablation_data_snooping(std::ostream& os) {
  print_banner(os,
               "A5: data-packet snooping into caches (the paper leaves it "
               "off)");
  Table t({"snooping", "cold-pass stretch", "warm-pass stretch"});
  for (const bool on : {false, true}) {
    Rng trng(bench::kSeed);
    const graph::IspTopology topo = isp(trng);
    intra::Config cfg;
    cfg.cache_capacity = 2048;
    cfg.cache_data_paths = on;
    intra::Network net(&topo, cfg, bench::kSeed + 41);
    std::vector<NodeId> ids;
    for (int i = 0; i < 800; ++i) {
      Identity ident = Identity::generate(net.rng());
      const auto gw = static_cast<graph::NodeIndex>(
          net.rng().index(net.router_count()));
      if (net.join_host(ident, gw).ok) ids.push_back(ident.id());
    }
    // Zipf-popular destinations; measure the first and second sweep.
    const ZipfSampler pop(ids.size(), 1.0);
    double pass_stretch[2] = {0.0, 0.0};
    for (int pass = 0; pass < 2; ++pass) {
      SampleSet stretch;
      Rng traffic(bench::kSeed + 43);  // same traffic both passes
      for (int i = 0; i < 500; ++i) {
        const NodeId dest = ids[pop.sample(traffic)];
        const auto src = static_cast<graph::NodeIndex>(
            traffic.index(net.router_count()));
        const auto rs = net.route(src, dest);
        const std::uint32_t sp =
            rs.delivered ? net.shortest_hops(src, dest) : 0;
        if (sp > 0) stretch.add(rs.stretch(sp));
      }
      pass_stretch[pass] = stretch.mean();
    }
    t.add_row({std::string(on ? "on" : "off (paper)"), pass_stretch[0],
               pass_stretch[1]});
  }
  t.print(os);
  os << "Snooping warms caches from data traffic, cutting repeat-traffic "
        "stretch at the price of cache pollution under churn.\n";
}

}  // namespace
}  // namespace rofl

int main() {
  using namespace rofl;
  bench::print_scale_note(std::cout);
  ablation_successor_group(std::cout);
  ablation_control_path_caching(std::cout);
  ablation_redundant_lookups(std::cout);
  ablation_finger_digits(std::cout);
  ablation_data_snooping(std::cout);
  return 0;
}
