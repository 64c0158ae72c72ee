// quickstart -- the smallest useful ROFL program.
//
// Builds a little ISP, attaches a handful of hosts with self-certifying
// flat identifiers, and routes packets between them by label alone: no
// addresses, no resolution step, no location information in the header.
//
//   $ ./build/examples/quickstart
#include <iostream>

#include "graph/isp_topology.hpp"
#include "rofl/network.hpp"

int main() {
  using namespace rofl;

  // 1. A 20-router ISP with 4 PoPs (any connected graph works).
  Rng topo_rng(7);
  graph::IspParams params;
  params.name = "quickstart-isp";
  params.router_count = 20;
  params.pop_count = 4;
  const graph::IspTopology topo = graph::make_isp_topology(params, topo_rng);
  std::cout << "topology: " << topo.router_count() << " routers, "
            << topo.graph.edge_count() << " links, diameter "
            << topo.graph.diameter_hops(topo.router_count()) << " hops\n";

  // 2. Bring up ROFL over it.  Every router gets a self-certified identity
  //    and the router-ID ring bootstraps automatically.
  intra::Network net(&topo, intra::Config{}, /*seed=*/42);

  // 3. Attach hosts.  A host is just a key pair; its flat label is the hash
  //    of its public key.  join_host runs Algorithm 1: authenticate, locate
  //    the ring predecessor, splice in.
  const Identity alice = Identity::generate(net.rng());
  const Identity bob = Identity::generate(net.rng());
  const intra::JoinStats ja = net.join_host(alice, /*gateway=*/3);
  const intra::JoinStats jb = net.join_host(bob, /*gateway=*/17);
  std::cout << "alice " << alice.id() << " joined at router 3 ("
            << ja.messages << " packets, " << ja.latency_ms << " ms)\n";
  std::cout << "bob   " << bob.id() << " joined at router 17 ("
            << jb.messages << " packets, " << jb.latency_ms << " ms)\n";

  // A few more hosts so the ring has some density.
  for (int i = 0; i < 30; ++i) {
    (void)net.join_random_host();
  }
  std::string err;
  std::cout << "ring verified: " << (net.verify_rings(&err) ? "yes" : err)
            << "\n";

  // 4. Route on the flat label itself (Algorithm 2: greedy over ring
  //    pointers and caches).  Stretch compares against the IGP shortest
  //    path to the destination's gateway.
  const intra::RouteStats rs = net.route(/*src_router=*/3, bob.id());
  const std::uint32_t shortest = net.shortest_hops(3, bob.id());
  std::cout << "packet 3 -> bob: "
            << (rs.delivered ? "delivered" : "LOST") << " in "
            << rs.physical_hops << " hops (shortest " << shortest
            << ", stretch " << rs.stretch(shortest) << ")\n";

  // 5. Mobility is a non-event: bob detaches and rejoins elsewhere with the
  //    SAME identifier; senders never learn about locations, so nothing at
  //    alice changes.
  (void)net.leave_host(bob.id());
  (void)net.join_host(bob, /*gateway=*/9);
  const intra::RouteStats rs2 = net.route(3, bob.id());
  std::cout << "bob moved to router 9; packet 3 -> bob: "
            << (rs2.delivered ? "delivered" : "LOST") << " in "
            << rs2.physical_hops << " hops\n";

  // 6. Failure handling: kill bob's gateway; ROFL rehomes his ID at the
  //    deterministic failover router and the ring stays consistent.
  (void)net.fail_router(9);
  const intra::RouteStats rs3 = net.route(3, bob.id());
  std::cout << "router 9 crashed; packet 3 -> bob: "
            << (rs3.delivered ? "delivered" : "LOST") << " via failover "
            << "gateway " << *net.hosting_router(bob.id()) << "\n";
  std::cout << "ring verified: " << (net.verify_rings(&err) ? "yes" : err)
            << "\n";
  return 0;
}
