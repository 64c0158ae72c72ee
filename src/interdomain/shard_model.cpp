#include "interdomain/shard_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "obs/flight_recorder.hpp"
#include "sim/profiler.hpp"
#include "wire/messages.hpp"

namespace rofl::inter {

namespace {

// Event opcodes.
constexpr std::uint32_t kTick = 1;
constexpr std::uint32_t kRegister = 2;
constexpr std::uint32_t kUnregister = 3;
constexpr std::uint32_t kLookup = 4;
constexpr std::uint32_t kLookupResp = 5;

// Lookups are traced under the data category (they model the paper's
// resolution path); registration traffic is join/teardown accounting only.
constexpr std::uint8_t kDataCategory = 4;

struct RegPayload {
  std::uint64_t id_hi;
  std::uint64_t id_lo;
  std::uint32_t home;
};

struct LookupPayload {
  std::uint64_t id_hi;
  std::uint64_t id_lo;
  std::uint64_t trace;       // 0 = untraced
  std::uint32_t target_as;
  std::uint32_t src_as;
  std::uint16_t hops;
  std::uint8_t clique_pos;   // next tier-1 list index to try at the top
};

struct RespPayload {
  std::uint64_t id_hi;
  std::uint64_t id_lo;
  std::uint64_t trace;
  std::uint16_t hops;
  std::uint8_t hit;
};

static_assert(sizeof(RegPayload) <= sim::kShardEventPayloadBytes);
static_assert(sizeof(LookupPayload) <= sim::kShardEventPayloadBytes);
static_assert(sizeof(RespPayload) <= sim::kShardEventPayloadBytes);

template <typename P>
P read_payload(const sim::ShardEvent& ev) {
  assert(ev.size == sizeof(P));
  P p;
  std::memcpy(&p, ev.payload.data(), sizeof(P));
  return p;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

NodeId ShardScaleModel::id_for(std::uint64_t seed, graph::AsIndex as,
                               std::uint32_t slot) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(as) << 32) | std::uint64_t{slot};
  return NodeId{mix64(seed ^ key), mix64(key ^ 0xD1B54A32D192ED03ull)};
}

void ShardScaleModel::register_metrics(obs::Registry& reg, MetricIds* out) {
  MetricIds ids;
  ids.ticks = reg.counter("scale.ticks");
  ids.ops_join = reg.counter("scale.ops.join");
  ids.ops_leave = reg.counter("scale.ops.leave");
  ids.ops_lookup = reg.counter("scale.ops.lookup");
  ids.leave_noop = reg.counter("scale.leave.noop");
  ids.lookup_hit = reg.counter("scale.lookup.hit");
  ids.lookup_miss = reg.counter("scale.lookup.miss");
  ids.msgs_register = reg.counter("scale.msgs.register");
  ids.msgs_unregister = reg.counter("scale.msgs.unregister");
  ids.msgs_lookup = reg.counter("scale.msgs.lookup");
  ids.msgs_resp = reg.counter("scale.msgs.resp");
  ids.bytes_wire = reg.counter("scale.bytes.wire");
  ids.ring_max = reg.gauge("scale.ring.max");
  ids.hops_hist = reg.histogram("scale.lookup.hops",
                                obs::Histogram::linear_bounds(0.0, 1.0, 32));
  ids.ring_size_hist = reg.histogram(
      "scale.ring.size", obs::Histogram::exponential_bounds(1.0, 2.0, 22));
  if (out != nullptr) *out = ids;
}

ShardScaleModel::ShardScaleModel(const ScaleParams& params)
    : params_(params),
      topo_([&params] {
        graph::AsGenParams gp = params.topo;
        gp.total_hosts = params.hosts;
        Rng topo_rng(mix64(params.seed ^ 0x70F0F0F0ull));
        return graph::AsTopology::make_internet_like(gp, topo_rng);
      }()) {
  const auto n = static_cast<graph::AsIndex>(topo_.as_count());

  provider_.assign(n, graph::kInvalidAs);
  for (graph::AsIndex a = 0; a < n; ++a) {
    const std::vector<graph::AsIndex> provs = topo_.providers(a);
    if (!provs.empty()) provider_[a] = provs.front();
    if (topo_.tier(a) == 1) tier1_.push_back(a);
  }
  std::sort(tier1_.begin(), tier1_.end());

  chain_.resize(n);
  for (graph::AsIndex a = 0; a < n; ++a) {
    graph::AsIndex cur = a;
    // A provider walk on a generated topology is acyclic, but guard anyway:
    // a cycle would otherwise hang construction, not fail a test.
    for (unsigned depth = 0; depth < 64 && cur != graph::kInvalidAs; ++depth) {
      chain_[a].push_back(cur);
      cur = provider_[cur];
    }
  }

  // Anchor weight: an AS executes its own hosts' ops and absorbs one
  // registration hop from every AS whose chain passes through it.
  std::vector<std::uint64_t> weights(n, 0);
  for (graph::AsIndex a = 0; a < n; ++a) {
    for (const graph::AsIndex anchor : chain_[a]) {
      weights[anchor] += topo_.host_count(a);
    }
  }
  shard_map_ = sim::balanced_shard_map(weights, params_.shards);

  // Host-weighted target picker: cdf over AS indices (zero-host ASes get an
  // epsilon so the cdf stays strictly increasing and every AS is reachable).
  target_cdf_.resize(n);
  double acc = 0.0;
  for (graph::AsIndex a = 0; a < n; ++a) {
    acc += static_cast<double>(topo_.host_count(a)) + 1e-3;
    target_cdf_[a] = acc;
  }
  for (double& v : target_cdf_) v /= acc;

  state_.resize(n);
  for (AsState& st : state_) {
    st.live.assign(params_.slots_per_as, 0);
  }

  frame_bytes_ = wire::msg::control_wire_size(wire::msg::RingMerge{});

  sim::ShardedSimulator::Config cfg;
  cfg.shards = params_.shards;
  cfg.lookahead_ms = params_.lookahead_ms;
  cfg.channel_capacity = params_.channel_capacity;
  cfg.seed = params_.seed;
  cfg.recorder_capacity = params_.recorder_capacity;
  engine_ = std::make_unique<sim::ShardedSimulator>(shard_map_, cfg);
  engine_->set_registry_init(
      [](obs::Registry& reg) { register_metrics(reg, nullptr); });
  if (params_.timeline_window_ms > 0.0) {
    engine_->enable_timeline(obs::Timeline::Config{
        params_.timeline_window_ms, params_.timeline_capacity});
  }
  if (params_.profile) {
    profiler_ = std::make_unique<sim::EngineProfiler>(params_.shards);
    profiler_->set_kind_names(
        {"", "tick", "register", "unregister", "lookup", "resp"});
    engine_->set_profiler(profiler_.get());
  }
  {
    // Ids are identical across shard registries (same registrations in the
    // same order); capture them once from a scratch registry.
    obs::Registry scratch;
    register_metrics(scratch, &ids_);
  }
  engine_->set_handler([this](sim::ShardContext& ctx,
                              const sim::ShardEvent& ev) { handle(ctx, ev); });
}

ShardScaleModel::~ShardScaleModel() = default;

bool ShardScaleModel::slot_live(graph::AsIndex a, std::uint32_t slot) const {
  return state_[a].live[slot] != 0;
}

const std::unordered_map<NodeId, graph::AsIndex>& ShardScaleModel::ring(
    graph::AsIndex a) const {
  return state_[a].ring;
}

double ShardScaleModel::latency(graph::AsIndex from, graph::AsIndex to) const {
  // Deterministic per-AS-pair base, 1-4x lookahead.  Fixing the delay per
  // ordered pair keeps every link FIFO: two frames on the same hop share a
  // delay, so the (when, src, seq) tie-break preserves send order and a
  // deregistration can never overtake the registration it revokes.  The
  // multiples are exact binary doubles, so timestamps are identical sums on
  // every shard count.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(from) << 32) | std::uint64_t{to};
  return params_.lookahead_ms *
         (1.0 + static_cast<double>(mix64(params_.seed ^ key) & 3u));
}

graph::AsIndex ShardScaleModel::pick_target(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(target_cdf_.begin(), target_cdf_.end(), u);
  if (it == target_cdf_.end()) {
    return static_cast<graph::AsIndex>(target_cdf_.size() - 1);
  }
  return static_cast<graph::AsIndex>(it - target_cdf_.begin());
}

sim::ShardedSimulator::RunStats ShardScaleModel::run() {
  const auto n = static_cast<graph::AsIndex>(topo_.as_count());
  for (graph::AsIndex a = 0; a < n; ++a) {
    // Staggered phases spread tick storms without affecting determinism.
    const double phase =
        params_.tick_ms * static_cast<double>(a % 16) / 16.0;
    engine_->seed_event(phase, a, kTick);
  }
  return engine_->run();
}

void ShardScaleModel::handle(sim::ShardContext& ctx,
                             const sim::ShardEvent& ev) {
  switch (ev.kind) {
    case kTick:
      do_tick(ctx, ev);
      return;
    case kRegister: {
      const auto p = read_payload<RegPayload>(ev);
      ring_insert(ctx, ctx.self(), NodeId{p.id_hi, p.id_lo}, p.home);
      if (provider_[ctx.self()] != graph::kInvalidAs) {
        ctx.metrics().add(ids_.msgs_register);
        ctx.metrics().add(ids_.bytes_wire, frame_bytes_);
        ctx.send(provider_[ctx.self()], latency(ctx.self(), provider_[ctx.self()]),
                 kRegister, &p, sizeof(p));
      }
      return;
    }
    case kUnregister: {
      const auto p = read_payload<RegPayload>(ev);
      state_[ctx.self()].ring.erase(NodeId{p.id_hi, p.id_lo});
      if (provider_[ctx.self()] != graph::kInvalidAs) {
        ctx.metrics().add(ids_.msgs_unregister);
        ctx.metrics().add(ids_.bytes_wire, frame_bytes_);
        ctx.send(provider_[ctx.self()], latency(ctx.self(), provider_[ctx.self()]),
                 kUnregister, &p, sizeof(p));
      }
      return;
    }
    case kLookup: {
      const auto p = read_payload<LookupPayload>(ev);
      const graph::AsIndex b = ctx.self();
      const NodeId id{p.id_hi, p.id_lo};
      if (state_[b].ring.contains(id)) {
        if (p.trace != 0) {
          ctx.recorder().record({p.trace, 0, ctx.now_ms(),
                                 obs::HopDomain::kInter, b, kDataCategory,
                                 obs::HopKind::kDeliver,
                                 static_cast<std::uint32_t>(frame_bytes_), id});
        }
        RespPayload r{p.id_hi, p.id_lo, p.trace, p.hops, 1};
        ctx.metrics().add(ids_.msgs_resp);
        ctx.metrics().add(ids_.bytes_wire, frame_bytes_);
        ctx.send(p.src_as, latency(ctx.self(), p.src_as), kLookupResp, &r,
                 sizeof(r));
        return;
      }
      continue_lookup(ctx, b, ev.payload.data());
      return;
    }
    case kLookupResp: {
      const auto p = read_payload<RespPayload>(ev);
      const graph::AsIndex a = ctx.self();
      ctx.metrics().add(p.hit != 0 ? ids_.lookup_hit : ids_.lookup_miss);
      ctx.metrics().observe(ids_.hops_hist, static_cast<double>(p.hops));
      if (p.trace != 0) {
        ctx.recorder().record(
            {p.trace, 0, ctx.now_ms(), obs::HopDomain::kInter, a,
             kDataCategory,
             p.hit != 0 ? obs::HopKind::kDeliver : obs::HopKind::kDrop,
             static_cast<std::uint32_t>(frame_bytes_),
             NodeId{p.id_hi, p.id_lo}});
      }
      return;
    }
    default:
      assert(false && "unknown event kind");
  }
}

void ShardScaleModel::do_tick(sim::ShardContext& ctx,
                              const sim::ShardEvent& ev) {
  const graph::AsIndex a = ctx.self();
  AsState& st = state_[a];
  ctx.metrics().add(ids_.ticks);

  const double lambda = params_.op_rate_per_host_hz *
                        static_cast<double>(topo_.host_count(a)) *
                        params_.tick_ms / 1000.0;
  st.op_accumulator += lambda;
  auto ops = static_cast<std::uint64_t>(st.op_accumulator);
  st.op_accumulator -= static_cast<double>(ops);

  for (std::uint64_t i = 0; i < ops; ++i) {
    const double u = ctx.rng().uniform();
    if (u < params_.join_frac) {
      do_join(ctx, a);
    } else if (u < params_.join_frac + params_.leave_frac) {
      do_leave(ctx, a);
    } else {
      do_lookup(ctx, a);
    }
  }

  if (ev.when + params_.tick_ms <= params_.duration_ms) {
    ctx.send(a, params_.tick_ms, kTick);
  }
}

void ShardScaleModel::do_join(sim::ShardContext& ctx, graph::AsIndex a) {
  AsState& st = state_[a];
  ctx.metrics().add(ids_.ops_join);
  const auto slot = static_cast<std::uint32_t>(
      ctx.rng().below(params_.slots_per_as));
  st.live[slot] = 1;
  const NodeId id = id_for(params_.seed, a, slot);
  ring_insert(ctx, a, id, a);  // level-0 ring: the home AS itself
  if (provider_[a] != graph::kInvalidAs) {
    const RegPayload p{id.hi(), id.lo(), a};
    ctx.metrics().add(ids_.msgs_register);
    ctx.metrics().add(ids_.bytes_wire, frame_bytes_);
    ctx.send(provider_[a], latency(a, provider_[a]), kRegister, &p, sizeof(p));
  }
}

void ShardScaleModel::do_leave(sim::ShardContext& ctx, graph::AsIndex a) {
  AsState& st = state_[a];
  ctx.metrics().add(ids_.ops_leave);
  const auto slot = static_cast<std::uint32_t>(
      ctx.rng().below(params_.slots_per_as));
  if (st.live[slot] == 0) {
    ctx.metrics().add(ids_.leave_noop);
    return;
  }
  st.live[slot] = 0;
  const NodeId id = id_for(params_.seed, a, slot);
  st.ring.erase(id);
  if (provider_[a] != graph::kInvalidAs) {
    const RegPayload p{id.hi(), id.lo(), a};
    ctx.metrics().add(ids_.msgs_unregister);
    ctx.metrics().add(ids_.bytes_wire, frame_bytes_);
    ctx.send(provider_[a], latency(a, provider_[a]), kUnregister, &p, sizeof(p));
  }
}

void ShardScaleModel::do_lookup(sim::ShardContext& ctx, graph::AsIndex a) {
  AsState& st = state_[a];
  ctx.metrics().add(ids_.ops_lookup);
  const graph::AsIndex target = pick_target(ctx.rng());
  const auto slot = static_cast<std::uint32_t>(
      ctx.rng().below(params_.slots_per_as));
  const NodeId id = id_for(params_.seed, target, slot);

  st.lookup_counter++;
  std::uint64_t trace = 0;
  if (params_.trace_sample != 0 &&
      st.lookup_counter % params_.trace_sample == 0) {
    trace = ((static_cast<std::uint64_t>(a) + 1) << 32) | st.lookup_counter;
    ctx.recorder().record({trace, 0, ctx.now_ms(), obs::HopDomain::kInter, a,
                           kDataCategory, obs::HopKind::kStart,
                           static_cast<std::uint32_t>(frame_bytes_), id});
  }

  if (st.ring.contains(id)) {
    // Hit in the local (level-0 or merged) ring: resolved without traffic.
    ctx.metrics().add(ids_.lookup_hit);
    ctx.metrics().observe(ids_.hops_hist, 0.0);
    if (trace != 0) {
      ctx.recorder().record({trace, 0, ctx.now_ms(), obs::HopDomain::kInter, a,
                             kDataCategory, obs::HopKind::kDeliver, 0, id});
    }
    return;
  }

  LookupPayload p{id.hi(), id.lo(), trace, target, a, 0, 0};
  std::array<std::uint8_t, sizeof(LookupPayload)> raw;
  std::memcpy(raw.data(), &p, sizeof(p));
  continue_lookup(ctx, a, raw.data());
}

void ShardScaleModel::ring_insert(sim::ShardContext& ctx,
                                  graph::AsIndex anchor, NodeId id,
                                  graph::AsIndex home) {
  AsState& st = state_[anchor];
  st.ring[id] = home;
  const auto size = static_cast<double>(st.ring.size());
  ctx.metrics().observe(ids_.ring_size_hist, size);
  if (size > ctx.metrics().gauge_value(ids_.ring_max)) {
    ctx.metrics().set(ids_.ring_max, size);
  }
}

void ShardScaleModel::continue_lookup(sim::ShardContext& ctx,
                                      graph::AsIndex b,
                                      const std::uint8_t* payload) {
  LookupPayload p;
  std::memcpy(&p, payload, sizeof(p));
  const NodeId id{p.id_hi, p.id_lo};

  graph::AsIndex next = graph::kInvalidAs;
  obs::HopKind kind = obs::HopKind::kLevelEscalate;
  if (provider_[b] != graph::kInvalidAs) {
    next = provider_[b];
  } else {
    // Top of the hierarchy: sweep the tier-1 clique in ascending index
    // order -- the deterministic stand-in for the section 4.2 peering rule.
    std::uint8_t pos = p.clique_pos;
    while (pos < tier1_.size() && tier1_[pos] == b) ++pos;
    if (pos < tier1_.size()) {
      next = tier1_[pos];
      p.clique_pos = static_cast<std::uint8_t>(pos + 1);
      kind = obs::HopKind::kPeeringCross;
    }
  }

  if (next == graph::kInvalidAs) {
    // Hierarchy exhausted: answer the source with a miss.
    RespPayload r{p.id_hi, p.id_lo, p.trace, p.hops, 0};
    ctx.metrics().add(ids_.msgs_resp);
    ctx.metrics().add(ids_.bytes_wire, frame_bytes_);
    ctx.send(p.src_as, latency(b, p.src_as), kLookupResp, &r,
             sizeof(r));
    return;
  }

  if (p.trace != 0) {
    ctx.recorder().record({p.trace, 0, ctx.now_ms(), obs::HopDomain::kInter, b,
                           kDataCategory, kind,
                           static_cast<std::uint32_t>(frame_bytes_), id});
  }
  p.hops++;
  ctx.metrics().add(ids_.msgs_lookup);
  ctx.metrics().add(ids_.bytes_wire, frame_bytes_);
  ctx.send(next, latency(b, next), kLookup, &p, sizeof(p));
}

}  // namespace rofl::inter
