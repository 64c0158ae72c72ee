// micro_datapath -- google-benchmark microbenchmarks for the hot paths that
// gate a software ROFL forwarder: ring arithmetic, SHA-256 identity
// derivation, bloom probes, pointer-cache and virtual-node best-match
// lookups (the per-packet operations of Algorithm 2), and end-to-end greedy
// forwarding on a warm intradomain network.
//
// Results are also written to BENCH_datapath.json (see bench/emit_json.hpp
// and scripts/bench_trajectory.py).
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "bench/emit_json.hpp"
#include "graph/isp_topology.hpp"
#include "rofl/network.hpp"
#include "sim/simulator.hpp"
#include "util/bloom.hpp"
#include "util/identity.hpp"
#include "util/sha256.hpp"
#include "wire/messages.hpp"

namespace rofl {
namespace {

// A small cycling destination set defeats branch-predictor lock-in on a
// single key without bringing RNG cost into the timed loop.
std::vector<NodeId> make_dests(std::uint64_t seed, std::size_t n = 256) {
  Rng rng(seed);
  std::vector<NodeId> dests;
  dests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    dests.emplace_back(rng.next_u64(), rng.next_u64());
  }
  return dests;
}

void BM_NodeIdDistance(benchmark::State& state) {
  Rng rng(1);
  const NodeId a(rng.next_u64(), rng.next_u64());
  const NodeId b(rng.next_u64(), rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(NodeId::distance_cw(a, b));
  }
}
BENCHMARK(BM_NodeIdDistance);

void BM_NodeIdInterval(benchmark::State& state) {
  Rng rng(2);
  const NodeId a(rng.next_u64(), rng.next_u64());
  const NodeId x(rng.next_u64(), rng.next_u64());
  const NodeId b(rng.next_u64(), rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(NodeId::in_interval_oc(a, x, b));
  }
}
BENCHMARK(BM_NodeIdInterval);

void BM_Sha256Identity(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Identity::generate(rng));
  }
}
BENCHMARK(BM_Sha256Identity);

void BM_Sha256Throughput(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(1500)->Arg(65536);

void BM_BloomProbe(benchmark::State& state) {
  BloomFilter bf(static_cast<std::size_t>(state.range(0)), 4);
  Rng rng(4);
  for (int i = 0; i < state.range(0) / 16; ++i) {
    bf.insert(NodeId(rng.next_u64(), rng.next_u64()));
  }
  const NodeId probe(rng.next_u64(), rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.may_contain(probe));
  }
}
BENCHMARK(BM_BloomProbe)->Arg(1 << 12)->Arg(1 << 20);

// -- pointer cache ----------------------------------------------------------

void BM_PointerCacheBestMatch(benchmark::State& state) {
  intra::PointerCache pc(static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  for (int i = 0; i < state.range(0); ++i) {
    pc.insert(NodeId(rng.next_u64(), rng.next_u64()), 1, {0, 1});
  }
  const std::vector<NodeId> dests = make_dests(50);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc.best_match(dests[i++ % dests.size()]));
  }
}
BENCHMARK(BM_PointerCacheBestMatch)->Arg(1024)->Arg(65536);

void BM_PointerCacheInsertEvict(benchmark::State& state) {
  intra::PointerCache pc(static_cast<std::size_t>(state.range(0)));
  Rng rng(51);
  const std::vector<NodeId> keys = make_dests(52, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    pc.insert(keys[i++ % keys.size()], 1, {0, 1});
  }
  (void)rng;
}
BENCHMARK(BM_PointerCacheInsertEvict)->Arg(1024);

// -- warm network fixture ---------------------------------------------------

struct WarmNetwork {
  graph::IspTopology topo;
  std::unique_ptr<intra::Network> net;
  std::vector<NodeId> ids;

  WarmNetwork() {
    Rng trng(6);
    topo = graph::make_rocketfuel_like(graph::RocketfuelAs::kAs3967, trng);
    intra::Config cfg;
    cfg.cache_capacity = 4096;
    net = std::make_unique<intra::Network>(&topo, cfg, 7);
    for (int i = 0; i < 2000; ++i) {
      const Identity ident = Identity::generate(net->rng());
      const auto gw = static_cast<graph::NodeIndex>(
          net->rng().index(net->router_count()));
      if (net->join_host(ident, gw).ok) ids.push_back(ident.id());
    }
  }
};

WarmNetwork& warm() {
  static WarmNetwork w;
  return w;
}

// -- vnode best-match -------------------------------------------------------

void BM_VnBestMatch(benchmark::State& state) {
  WarmNetwork& w = warm();
  const auto& router = w.net->router(0);
  const std::vector<NodeId> dests = make_dests(8, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.vn_best_match(dests[i++ % dests.size()]));
  }
}
BENCHMARK(BM_VnBestMatch);

// Size-parameterized variant: a router loaded with N resident vnodes (the
// dense-deployment end of figure 6c).
const intra::Router& sized_router(std::size_t n) {
  static std::map<std::size_t, std::unique_ptr<intra::Router>> cache;
  std::unique_ptr<intra::Router>& router = cache[n];
  if (router != nullptr) return *router;
  Rng rng(60 + static_cast<std::uint64_t>(n));
  router = std::make_unique<intra::Router>(0, Identity::generate(rng), 0);
  for (std::size_t i = 0; i < n; ++i) {
    intra::VirtualNode vn;
    vn.id = NodeId(rng.next_u64(), rng.next_u64());
    (void)router->add_vnode(std::move(vn));
  }
  return *router;
}

void BM_VnBestMatchSized(benchmark::State& state) {
  const intra::Router& router =
      sized_router(static_cast<std::size_t>(state.range(0)));
  const std::vector<NodeId> dests = make_dests(8, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.vn_best_match(dests[i++ % dests.size()]));
  }
}
BENCHMARK(BM_VnBestMatchSized)->Arg(1024)->Arg(65536);

// -- per-hop forwarding decision --------------------------------------------

void BM_HopDecisionGreedy(benchmark::State& state) {
  // What a greedy data packet pays at every router it crosses: the
  // Eytzinger vn best-match descent plus the pointer-cache best-match
  // consult (the two per-hop lookups of Algorithm 2), on the warm fixture's
  // populated router 0.
  WarmNetwork& w = warm();
  intra::Router& router = w.net->router(0);
  const std::vector<NodeId> dests = make_dests(8, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    const NodeId& dest = dests[i++ % dests.size()];
    benchmark::DoNotOptimize(router.vn_best_match(dest));
    benchmark::DoNotOptimize(router.cache().best_match(dest));
  }
}
BENCHMARK(BM_HopDecisionGreedy);

// -- event loop -------------------------------------------------------------

constexpr int kEventBatch = 512;

// Protocol events capture a handful of IDs/indices; 40 bytes is typical of
// the unicast/teardown closures in network.cpp, and fits the Simulator
// Action's 48-byte SBO buffer.
struct EventPayload {
  std::uint64_t vals[4] = {1, 2, 3, 4};
};

void BM_EventLoopSimulator(benchmark::State& state) {
  // Schedules and drains a batch of interleaved-deadline events per
  // iteration; captures stay inside the Action SBO buffer, so the whole
  // batch runs without touching the heap.
  std::uint64_t sink = 0;
  const EventPayload payload;
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < kEventBatch; ++i) {
      const double when = static_cast<double>((i * 37) % 97);
      s.schedule_in(when, [&sink, payload, i] {
        sink += payload.vals[i & 3] + static_cast<unsigned>(i);
      });
    }
    benchmark::DoNotOptimize(s.run());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kEventBatch);
}
BENCHMARK(BM_EventLoopSimulator);

// -- end-to-end -------------------------------------------------------------

void BM_IntraGreedyRoute(benchmark::State& state) {
  WarmNetwork& w = warm();
  Rng rng(9);
  std::size_t i = 0;
  for (auto _ : state) {
    const NodeId dest = w.ids[i++ % w.ids.size()];
    const auto src =
        static_cast<graph::NodeIndex>(rng.index(w.net->router_count()));
    benchmark::DoNotOptimize(w.net->route(src, dest));
  }
}
BENCHMARK(BM_IntraGreedyRoute);

void BM_IntraJoin(benchmark::State& state) {
  WarmNetwork& w = warm();
  for (auto _ : state) {
    const Identity ident = Identity::generate(w.net->rng());
    const auto gw = static_cast<graph::NodeIndex>(
        w.net->rng().index(w.net->router_count()));
    benchmark::DoNotOptimize(w.net->join_host(ident, gw));
  }
}
BENCHMARK(BM_IntraJoin);

void BM_AllRoutersSpf(benchmark::State& state) {
  // The repair-time SPF recompute over every live source, serial vs pooled.
  WarmNetwork& w = warm();
  w.net->map().set_spf_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    w.net->map().fail_link(0, w.topo.graph.neighbors(0).front().to);
    w.net->map().restore_link(0, w.topo.graph.neighbors(0).front().to);
    state.ResumeTiming();
    w.net->map().recompute_all_spf();
  }
}
BENCHMARK(BM_AllRoutersSpf)->Arg(0)->Arg(2)->Arg(4);

// Control-plane codec cost on the two ends of the size spectrum: a 37-byte
// PointerInstall payload (the most common maintenance message) and the
// section-6.3 256-finger JoinRequest whose frame fragments at the MTU.
wire::msg::ControlMessage make_codec_message(std::int64_t fingers) {
  if (fingers == 0) {
    wire::msg::PointerInstall pi;
    pi.subject = NodeId(0x1234, 0x5678);
    pi.neighbor = NodeId(0x9abc, 0xdef0);
    pi.neighbor_host = 7;
    pi.op = 1;
    return pi;
  }
  Rng rng(41);
  wire::msg::JoinRequest jr;
  jr.nonce = rng.next_u64();
  jr.gateway = 3;
  jr.fingers.reserve(static_cast<std::size_t>(fingers));
  for (std::int64_t i = 0; i < fingers; ++i) {
    jr.fingers.push_back({static_cast<std::uint32_t>(rng.next_u64()),
                          static_cast<std::uint16_t>(rng.next_u64())});
  }
  return jr;
}

void BM_ControlEncode(benchmark::State& state) {
  const wire::msg::ControlMessage m = make_codec_message(state.range(0));
  const NodeId src(1, 2), dst(3, 4);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto frame = wire::msg::encode_control(m, src, dst);
    bytes += frame.size();
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ControlEncode)->Arg(0)->Arg(256);

void BM_ControlDecode(benchmark::State& state) {
  const wire::msg::ControlMessage m = make_codec_message(state.range(0));
  const auto frame = wire::msg::encode_control(m, NodeId(1, 2), NodeId(3, 4));
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto decoded = wire::msg::decode_control(frame);
    bytes += frame.size();
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ControlDecode)->Arg(0)->Arg(256);

// Snapshot of the warm fixture's metrics registry for the JSON emitter.
// The pointer-cache totals (hit/miss/eviction over every router) are folded
// in as registry counters first, so BENCH_datapath.json records cache
// effectiveness for the workload that produced the timings.
std::string warm_metrics_snapshot() {
  WarmNetwork& w = warm();
  const intra::Network::CacheTotals totals = w.net->cache_totals();
  obs::Registry& m = w.net->simulator().metrics();
  m.set_counter(m.counter("rofl.cache.hits"), totals.hits);
  m.set_counter(m.counter("rofl.cache.misses"), totals.misses);
  m.set_counter(m.counter("rofl.cache.evictions"), totals.evictions);
  m.set_counter(m.counter("rofl.cache.stale_drops"), totals.stale_drops);
  m.set_counter(m.counter("rofl.cache.entries"), totals.entries);
  return m.to_json(2);
}

}  // namespace
}  // namespace rofl

int main(int argc, char** argv) {
  return rofl::bench::run_with_json(argc, argv, "BENCH_datapath.json",
                                    rofl::warm_metrics_snapshot);
}
