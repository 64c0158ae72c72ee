#include "rofl/session.hpp"

#include <gtest/gtest.h>

#include "golden_digest.hpp"

namespace rofl::intra {
namespace {

struct Fix {
  graph::IspTopology topo;
  std::unique_ptr<Network> net;
  std::unique_ptr<SessionManager> sessions;

  explicit Fix(SessionConfig scfg = {}, std::uint64_t seed = 71) {
    Rng trng(seed);
    graph::IspParams p;
    p.router_count = 20;
    p.pop_count = 4;
    topo = graph::make_isp_topology(p, trng);
    net = std::make_unique<Network>(&topo, Config{}, seed + 1);
    sessions = std::make_unique<SessionManager>(*net, scfg);
    for (int i = 0; i < 20; ++i) (void)net->join_random_host();
  }
};

TEST(Session, LiveHostKeepsSendingKeepalives) {
  Fix f;
  Identity ident = Identity::generate(f.net->rng());
  ASSERT_TRUE(f.net->join_host(ident, 3).ok);
  f.sessions->track(ident.id(), [] { return true; });
  f.net->simulator().run_until(10'500.0);  // 10 intervals
  EXPECT_EQ(f.sessions->timeouts_fired(), 0u);
  EXPECT_GE(f.sessions->keepalives_sent(), 10u);
  EXPECT_TRUE(f.net->route(0, ident.id()).delivered);
}

TEST(Session, SilentHostTimesOutAndIsTornDown) {
  Fix f;
  Identity ident = Identity::generate(f.net->rng());
  ASSERT_TRUE(f.net->join_host(ident, 3).ok);
  bool alive = true;
  f.sessions->track(ident.id(), [&alive] { return alive; });
  f.net->simulator().run_until(2'500.0);
  alive = false;  // the host dies silently at t=2.5s
  f.net->simulator().run_until(10'000.0);
  EXPECT_EQ(f.sessions->timeouts_fired(), 1u);
  EXPECT_FALSE(f.sessions->tracking(ident.id()));
  // The teardown machinery ran: the ID is gone and the ring is whole.
  EXPECT_FALSE(f.net->route(0, ident.id()).delivered);
  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err)) << err;
}

TEST(Session, TimeoutHonorsMissLimit) {
  SessionConfig cfg;
  cfg.keepalive_interval_ms = 100.0;
  cfg.miss_limit = 5;
  Fix f(cfg);
  Identity ident = Identity::generate(f.net->rng());
  ASSERT_TRUE(f.net->join_host(ident, 2).ok);
  f.sessions->track(ident.id(), [] { return false; });  // dead from the start
  // After 4 intervals: not yet declared dead.
  f.net->simulator().run_until(450.0);
  EXPECT_EQ(f.sessions->timeouts_fired(), 0u);
  // After the fifth miss: dead.
  f.net->simulator().run_until(600.0);
  EXPECT_EQ(f.sessions->timeouts_fired(), 1u);
}

TEST(Session, UntrackPreventsTimeout) {
  Fix f;
  Identity ident = Identity::generate(f.net->rng());
  ASSERT_TRUE(f.net->join_host(ident, 4).ok);
  f.sessions->track(ident.id(), [] { return false; });
  f.sessions->untrack(ident.id());
  f.net->simulator().run_until(60'000.0);
  EXPECT_EQ(f.sessions->timeouts_fired(), 0u);
  EXPECT_TRUE(f.net->route(0, ident.id()).delivered);
}

TEST(Session, RetrackResetsEpoch) {
  Fix f;
  Identity ident = Identity::generate(f.net->rng());
  ASSERT_TRUE(f.net->join_host(ident, 4).ok);
  int flips = 0;
  f.sessions->track(ident.id(), [&flips] { return flips++ < 2; });
  // Re-track with an always-alive callback before the first dies out.
  f.sessions->track(ident.id(), [] { return true; });
  f.net->simulator().run_until(30'000.0);
  EXPECT_EQ(f.sessions->timeouts_fired(), 0u);
}

TEST(Session, GatewayCrashDoesNotFireSpuriousTeardown) {
  // Regression: a keepalive timer surviving a gateway crash kept charging
  // misses accrued against the DEAD gateway to the rehomed session, so a
  // host that was transiently silent across the crash got torn down by a
  // stale timer.  The session must follow the ID to its failover gateway
  // and restart the miss count there.
  SessionConfig cfg;
  cfg.keepalive_interval_ms = 100.0;
  cfg.miss_limit = 3;
  Fix f(cfg);
  Identity ident = Identity::generate(f.net->rng());
  ASSERT_TRUE(f.net->join_host(ident, 5).ok);
  const auto old_home = f.net->hosting_router(ident.id());
  ASSERT_TRUE(old_home.has_value());
  bool alive = false;  // transiently silent through the crash
  f.sessions->track(ident.id(), [&alive] { return alive; });

  f.net->simulator().run_until(250.0);  // two misses at the old gateway
  (void)f.net->fail_router(*old_home);  // crash; ID rejoins via failover
  const auto new_home = f.net->hosting_router(ident.id());
  ASSERT_TRUE(new_home.has_value());
  ASSERT_NE(*new_home, *old_home);

  // Two more silent intervals: with the old carried-over count this is the
  // third miss and a spurious teardown; with the rehome reset it is only
  // the second.
  f.net->simulator().run_until(450.0);
  alive = true;
  f.net->simulator().run_until(1'000.0);

  EXPECT_EQ(f.sessions->timeouts_fired(), 0u);
  EXPECT_EQ(f.sessions->sessions_rehomed(), 1u);
  EXPECT_TRUE(f.sessions->tracking(ident.id()));
  EXPECT_TRUE(f.net->route(0, ident.id()).delivered);
}

TEST(Session, OrphanedIdRetiresWithoutSpuriousTimeout) {
  // Regression: group-held IDs are not auto-rejoined after a router crash,
  // so their session timers used to keep ticking against a directory entry
  // that no longer exists and eventually fired fail_host on a ghost --
  // counted as a host timeout that never happened.
  SessionConfig cfg;
  cfg.keepalive_interval_ms = 100.0;
  cfg.miss_limit = 3;
  Fix f(cfg);
  Identity gid = Identity::generate(f.net->rng());
  ASSERT_TRUE(
      f.net->join_group_id(gid.id(), gid.public_key(), 5).ok);
  const auto home = f.net->hosting_router(gid.id());
  ASSERT_TRUE(home.has_value());
  f.sessions->track(gid.id(), [] { return false; });  // members fell silent

  f.net->simulator().run_until(150.0);  // one miss, session established
  (void)f.net->fail_router(*home);      // group ID dies with the router
  ASSERT_FALSE(f.net->hosting_router(gid.id()).has_value());
  f.net->simulator().run_until(1'000.0);

  EXPECT_EQ(f.sessions->timeouts_fired(), 0u);
  EXPECT_EQ(f.sessions->sessions_orphaned(), 1u);
  EXPECT_FALSE(f.sessions->tracking(gid.id()));
}

TEST(Session, LostKeepalivesTolerateUpToMissLimit) {
  // A lossy access link eats keepalives from a perfectly healthy host; the
  // gateway must ride out up to miss_limit-1 consecutive losses and only
  // declare death at the limit -- never on the first lost packet.
  SessionConfig cfg;
  cfg.keepalive_interval_ms = 100.0;
  cfg.miss_limit = 4;
  Fix f(cfg);
  Identity ident = Identity::generate(f.net->rng());
  ASSERT_TRUE(f.net->join_host(ident, 3).ok);
  f.sessions->track(ident.id(), [] { return true; });

  sim::FaultPlan plan;
  plan.defaults.loss = 1.0;  // the link eats every keepalive
  sim::FaultInjector inj(plan, 13, &f.net->simulator().metrics());
  f.net->set_fault_injector(&inj);

  // Three straight losses: still alive.
  f.net->simulator().run_until(350.0);
  EXPECT_EQ(f.sessions->timeouts_fired(), 0u);
  EXPECT_EQ(f.sessions->keepalives_lost(), 3u);
  EXPECT_TRUE(f.sessions->tracking(ident.id()));
  // The fourth miss crosses the limit.
  f.net->simulator().run_until(450.0);
  EXPECT_EQ(f.sessions->timeouts_fired(), 1u);
  EXPECT_FALSE(f.sessions->tracking(ident.id()));
}

TEST(Session, ManyConcurrentSessions) {
  SessionConfig cfg;
  cfg.keepalive_interval_ms = 50.0;
  Fix f(cfg);
  std::vector<Identity> hosts;
  std::vector<bool> alive(30, true);
  for (int i = 0; i < 30; ++i) {
    Identity ident = Identity::generate(f.net->rng());
    const auto gw = static_cast<graph::NodeIndex>(
        f.net->rng().index(f.net->router_count()));
    ASSERT_TRUE(f.net->join_host(ident, gw).ok);
    const std::size_t k = hosts.size();
    f.sessions->track(ident.id(), [&alive, k] { return alive[k]; });
    hosts.push_back(ident);
  }
  // A third of them die silently.
  for (std::size_t k = 0; k < 30; k += 3) alive[k] = false;
  f.net->simulator().run_until(5'000.0);
  EXPECT_EQ(f.sessions->timeouts_fired(), 10u);
  std::string err;
  EXPECT_TRUE(f.net->verify_rings(&err)) << err;
  for (std::size_t k = 0; k < 30; ++k) {
    EXPECT_EQ(f.net->route(0, hosts[k].id()).delivered, alive[k]) << k;
  }
}

// Golden session outcomes on a lossy, corrupting network.  Thirty sessions,
// a third of whose hosts die silently, ride keepalives over access links
// that drop and garble frames; the teardowns their timeouts trigger retry
// over the same faulty core links.  The digest folds the manager's counts
// and every registry counter by name.  Pinned from this body on the tree that
// still registered six label counters, with those names skipped in the fold.
TEST(SessionGolden, LossAndCorruption) {
  SessionConfig cfg;
  cfg.keepalive_interval_ms = 50.0;
  cfg.miss_limit = 3;
  Fix f(cfg, 303);
  sim::FaultPlan plan;
  plan.defaults.loss = 0.2;
  plan.defaults.corrupt = 0.25;
  plan.defaults.jitter_ms = 0.3;
  sim::FaultInjector inj(plan, 304, &f.net->simulator().metrics());
  f.net->set_fault_injector(&inj);
  std::vector<bool> alive(30, true);
  for (int i = 0; i < 30; ++i) {
    Identity ident = Identity::generate(f.net->rng());
    const auto gw = static_cast<graph::NodeIndex>(
        f.net->rng().index(f.net->router_count()));
    if (!f.net->join_host(ident, gw).ok) continue;
    const auto k = static_cast<std::size_t>(i);
    f.sessions->track(ident.id(), [&alive, k] { return alive[k]; });
  }
  f.net->simulator().run_until(1'000.0);
  for (std::size_t k = 0; k < alive.size(); k += 3) alive[k] = false;
  f.net->simulator().run_until(4'000.0);
  testing_support::GoldenDigest d;
  d.add(f.sessions->keepalives_sent());
  d.add(f.sessions->keepalives_lost());
  d.add(f.sessions->timeouts_fired());
  d.add(f.sessions->sessions_rehomed());
  d.add(f.sessions->sessions_orphaned());
  d.add(std::uint64_t{f.sessions->tracked_count()});
  d.add_counters(f.net->simulator().metrics());
  f.net->set_fault_injector(nullptr);
  EXPECT_GT(inj.corrupted(), 0u);
  EXPECT_GT(f.sessions->keepalives_lost(), 0u);
  EXPECT_GT(f.sessions->timeouts_fired(), 0u);
  EXPECT_EQ(d.value(), 0x53b2b207d7772978ull);
}

}  // namespace
}  // namespace rofl::intra
