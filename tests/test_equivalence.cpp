// test_equivalence.cpp -- cross-substrate protocol equivalence.
//
// The sans-I/O refactor's contract is that the simulator and the live mesh
// are two drivers over one protocol: the same ring rules (proto/ring.hpp)
// and the same wire encoder price the same workload identically on both.
// This test runs one identity set through (a) intra::Network on the
// discrete-event simulator and (b) a loopback mesh of LiveRouters, and
// requires the join message and byte counts to agree exactly -- not "close",
// byte-identical -- with both derived from the size of one encoded
// fingerless JoinRequest.
//
// The topology is a single router so that every locate terminates at the
// gateway and every splice is local: the only wire cost left on either
// substrate is the JoinRequest itself, which makes the comparison exact
// instead of modulo path lengths.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/isp_topology.hpp"
#include "net/mesh.hpp"
#include "rofl/network.hpp"
#include "sim/simulator.hpp"
#include "util/identity.hpp"
#include "wire/messages.hpp"

namespace rofl {
namespace {

constexpr std::uint64_t kSeed = 424242;
constexpr std::uint32_t kHosts = 48;

graph::IspTopology one_router_isp() {
  graph::IspTopology topo;
  topo.name = "one-router";
  topo.graph = graph::Graph(1);
  topo.pop_of = {0};
  topo.pops = {{0}};
  topo.is_backbone = {true};
  return topo;
}

/// Wire size of a fingerless JoinRequest.  Every field is fixed-width, so
/// any src/dst pair yields the frame size both substrates charge per join.
std::size_t fingerless_join_request_bytes() {
  wire::msg::JoinRequest req;
  req.nonce = 1;
  req.gateway = 0;
  const NodeId a = NodeId::from_u64(1);
  const NodeId b = NodeId::from_u64(2);
  const auto frame =
      wire::msg::encode_control(wire::msg::ControlMessage{req}, a, b);
  EXPECT_FALSE(frame.empty());
  return frame.size();
}

TEST(CrossSubstrate, JoinCountsMatchSimVsLoopbackMesh) {
  const std::vector<Identity> ids = net::make_identities(kSeed, kHosts);
  const std::size_t frame_bytes = fingerless_join_request_bytes();
  // The mesh seeds ids[0] at the bootstrap router and joins the rest; drive
  // the simulator through the identical join stream.
  const std::uint64_t joins = kHosts - 1;

  // Substrate A: the discrete-event simulator.
  graph::IspTopology topo = one_router_isp();
  intra::Network sim_net(&topo, intra::Config{}, kSeed + 1);
  for (std::uint32_t h = 1; h < kHosts; ++h) {
    const intra::JoinStats js = sim_net.join_host(ids[h], 0);
    ASSERT_TRUE(js.ok) << "sim join " << h << " failed";
  }
  std::string err;
  EXPECT_TRUE(sim_net.verify_rings(&err, /*strict=*/true)) << err;
  const std::uint64_t sim_msgs =
      sim_net.simulator().counters().get(sim::MsgCategory::kJoin);
  const std::uint64_t sim_bytes =
      sim_net.simulator().counters().bytes(sim::MsgCategory::kJoin);

  // Substrate B: a loopback mesh of LiveRouters over the proto core.
  net::MeshConfig cfg;
  cfg.routers = 1;
  cfg.hosts = kHosts;
  cfg.fingers = 0;
  cfg.seed = kSeed;
  cfg.backend = net::MeshBackend::kLoopback;
  cfg.deadline_ms = 20'000.0;
  // The simulator joins hosts one at a time; a concurrent live storm would
  // race splices at the lone router and re-send redirected JoinRequests the
  // serial substrate never needs.  Serialize to compare like with like.
  cfg.max_outstanding = 1;
  net::MeshResult mesh = net::run_mesh(cfg);
  ASSERT_TRUE(mesh.converged);
  ASSERT_TRUE(mesh.audit.ok()) << (mesh.audit.errors.empty()
                                       ? "population mismatch"
                                       : mesh.audit.errors.front());
  EXPECT_EQ(mesh.joins_completed, joins);

  obs::Registry& m = mesh.metrics;
  const std::uint64_t live_msgs =
      m.counter_value(m.counter("net.msgs.join_request"));
  const std::uint64_t live_bytes =
      m.counter_value(m.counter("net.bytes.join_request"));

  // The heart of the test: both substrates priced the same joins through the
  // same encoder, and every other exchange was local on this topology.
  EXPECT_EQ(sim_msgs, joins);
  EXPECT_EQ(sim_bytes, joins * frame_bytes);
  EXPECT_EQ(live_msgs, sim_msgs);
  EXPECT_EQ(live_bytes, sim_bytes);

  // Single lossless router: nothing may have been redirected or retried, or
  // the counts above would only match by accident.
  EXPECT_EQ(m.counter_value(m.counter("net.redirects")), 0u);
  EXPECT_EQ(m.counter_value(m.counter("net.retrans")), 0u);
  EXPECT_EQ(m.counter_value(m.counter("net.joins.rejected")), 0u);
}

TEST(CrossSubstrate, SingleRouterSimRingIsSelfRing) {
  // The degenerate one-router bootstrap mirrors proto::Core::seed(): the
  // lone default vnode is its own successor and predecessor, so it is the
  // predecessor of every id and local joins succeed with one charged frame.
  graph::IspTopology topo = one_router_isp();
  intra::Network sim_net(&topo, intra::Config{}, 7);
  Rng rng(99);
  const intra::JoinStats js = sim_net.join_host(Identity::generate(rng), 0);
  ASSERT_TRUE(js.ok);
  EXPECT_EQ(js.messages, 1u);
  EXPECT_EQ(sim_net.simulator().counters().get(sim::MsgCategory::kJoin), 1u);
}

}  // namespace
}  // namespace rofl
