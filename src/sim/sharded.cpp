#include "sim/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "sim/profiler.hpp"

namespace rofl::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// splitmix64: the recommended seeder for per-stream PRNGs -- statistically
/// independent streams from adjacent entity ids.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t pack_key(EntityId src, std::uint64_t seq) {
  // Per-source sequences stay well below 2^32 (asserted at send); packing
  // them under the source id makes one u64 whose ordering equals the
  // lexicographic (src, seq) tie-break the queue applies after `when`.
  assert(seq < (1ull << 32));
  return (static_cast<std::uint64_t>(src) << 32) | seq;
}

}  // namespace

std::vector<std::uint32_t> balanced_shard_map(
    const std::vector<std::uint64_t>& weights, std::uint32_t shards) {
  assert(shards > 0);
  std::vector<std::uint32_t> order(weights.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return weights[a] > weights[b];
                   });
  std::vector<std::uint64_t> load(shards, 0);
  std::vector<std::uint32_t> map(weights.size(), 0);
  for (const std::uint32_t e : order) {
    std::uint32_t best = 0;
    for (std::uint32_t s = 1; s < shards; ++s) {
      if (load[s] < load[best]) best = s;
    }
    map[e] = best;
    load[best] += weights[e] + 1;  // +1 so zero-weight entities spread too
  }
  return map;
}

Rng& ShardContext::rng(EntityId e) {
  assert(engine_->shard_of(e) == shard_ &&
         "entities may only draw from their owning shard");
  return engine_->entity_rng_[e];
}

obs::Registry& ShardContext::metrics() {
  return engine_->shards_[shard_]->registry;
}

obs::FlightRecorder& ShardContext::recorder() {
  return engine_->shards_[shard_]->recorder;
}

void ShardContext::send(EntityId dst, double delay_ms, std::uint32_t kind,
                        const void* payload, std::size_t size) {
  assert(dst < engine_->entity_count());
  assert(size <= kShardEventPayloadBytes);
  assert(delay_ms >= 0.0);
  ShardedSimulator& eng = *engine_;
  ShardedSimulator::Shard& sh = *eng.shards_[shard_];
  ShardEvent ev;
  ev.when = now_ms_ + delay_ms;
  ev.src = self_;
  ev.dst = dst;
  ev.kind = kind;
  ev.size = static_cast<std::uint16_t>(size);
  if (size > 0) std::memcpy(ev.payload.data(), payload, size);
  ev.seq = eng.sent_by_entity_[self_]++;
  const std::uint32_t target = eng.shard_of_[dst];
  if (dst != self_) {
    // Cross-entity: the conservative bound.  Every simulated link latency
    // must be >= lookahead for the horizon rule to be sound for ANY
    // partition (which is exactly what shard-count independence needs).
    assert(delay_ms + 1e-9 >= eng.cfg_.lookahead_ms &&
           "cross-entity delay below the lookahead bound");
    sh.min_cross_delay = std::min(sh.min_cross_delay, delay_ms);
  }
  if (target == shard_) {
    eng.enqueue_local(sh, ev);
    return;
  }
  sh.cross_sent++;
  // sent-count before the channel push: an event is "in flight" from the
  // moment it is counted until the receiver counts it, so the quiescence
  // check can never observe the gap as completion.
  eng.cross_sent_total_.fetch_add(1, std::memory_order_seq_cst);
  util::SpscQueue<ShardEvent>& chan =
      *eng.channels_[shard_ * eng.shard_count() + target];
  while (!chan.push(ev)) {
    // The receiver may itself be stuck here, sending into a full channel
    // back to this shard.  Draining our own inbound channels while we wait
    // lets both sides make progress, so full rings are back-pressure, never
    // deadlock.  Every event drained now is stamped at or after the horizon
    // of the window being executed (each sender's published promise bounds
    // its sends), so it waits in the local queue and the window is
    // unchanged.
    eng.drain_inbound(shard_);
    std::this_thread::yield();
  }
}

ShardedSimulator::ShardedSimulator(std::vector<std::uint32_t> map, Config cfg)
    : cfg_(cfg), shard_of_(std::move(map)) {
  assert(cfg_.shards > 0);
  assert(cfg_.lookahead_ms >= 0.0);
  assert(cfg_.shards == 1 || cfg_.lookahead_ms > 0.0);
  shards_.reserve(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(cfg_));
    shards_.back()->processed_by_src.assign(shard_of_.size(), 0);
  }
  for (const std::uint32_t s : shard_of_) {
    assert(s < cfg_.shards);
    (void)s;
  }
  channels_.resize(static_cast<std::size_t>(cfg_.shards) * cfg_.shards);
  for (std::uint32_t a = 0; a < cfg_.shards; ++a) {
    for (std::uint32_t b = 0; b < cfg_.shards; ++b) {
      if (a != b) {
        channels_[a * cfg_.shards + b] =
            std::make_unique<util::SpscQueue<ShardEvent>>(
                cfg_.channel_capacity);
      }
    }
  }
  entity_rng_.reserve(shard_of_.size());
  for (EntityId e = 0; e < shard_of_.size(); ++e) {
    entity_rng_.emplace_back(splitmix64(cfg_.seed ^ e));
  }
  sent_by_entity_.assign(shard_of_.size(), 0);
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::set_registry_init(RegistryInit init) {
  registry_init_ = std::move(init);
  if (registry_init_) {
    for (auto& sh : shards_) registry_init_(sh->registry);
  }
}

void ShardedSimulator::enable_timeline(obs::Timeline::Config cfg) {
  assert(!ran_);
  timeline_enabled_ = true;
  timeline_cfg_ = cfg;
  for (auto& sh : shards_) {
    sh->timeline = std::make_unique<obs::Timeline>(&sh->registry, cfg);
  }
}

void ShardedSimulator::enqueue_local(Shard& sh, const ShardEvent& ev) {
  std::uint32_t slot;
  if (!sh.free_slots.empty()) {
    slot = sh.free_slots.back();
    sh.free_slots.pop_back();
    sh.slab[slot] = ev;
  } else {
    slot = static_cast<std::uint32_t>(sh.slab.size());
    sh.slab.push_back(ev);
  }
  sh.queue.push(QueueItem{ev.when, pack_key(ev.src, ev.seq), slot});
}

void ShardedSimulator::seed_event(double when_ms, EntityId dst,
                                  std::uint32_t kind, const void* payload,
                                  std::size_t size) {
  assert(!ran_);
  assert(dst < entity_count());
  assert(size <= kShardEventPayloadBytes);
  ShardEvent ev;
  ev.when = when_ms;
  ev.src = kEngineEntity;
  ev.dst = dst;
  ev.seq = seed_seq_++;
  ev.kind = kind;
  ev.size = static_cast<std::uint16_t>(size);
  if (size > 0) std::memcpy(ev.payload.data(), payload, size);
  enqueue_local(*shards_[shard_of_[dst]], ev);
}

bool ShardedSimulator::drain_inbound(std::uint32_t s) {
  Shard& sh = *shards_[s];
  bool any = false;
  for (std::uint32_t src = 0; src < shard_count(); ++src) {
    if (src == s) continue;
    util::SpscQueue<ShardEvent>& chan = *channels_[src * shard_count() + s];
    if (profiler_ != nullptr) {
      // Consumer-side occupancy sample before the drain: the high-water mark
      // of this shard's inbound channels (wall-state only).  SpscQueue's
      // size_approx is only meaningful from the producer or consumer thread
      // (a third observer can read the indices torn against each other); the
      // drain loop is the consumer, so this is the one legitimate place to
      // watch channel depth.
      EngineProfiler::ShardProfile& p = profiler_->shard(s);
      p.spsc_hwm = std::max(p.spsc_hwm,
                            static_cast<std::uint64_t>(chan.size_approx()));
    }
    ShardEvent ev;
    while (chan.pop(ev)) {
      if (!any) {
        // ACTIVE before the receive count: between these two stores the
        // event is still accounted as in flight, so the quiescence check
        // sees either an unbalanced counter or a non-idle shard.
        sh.state.store(1, std::memory_order_seq_cst);
        any = true;
      }
      cross_recv_total_.fetch_add(1, std::memory_order_seq_cst);
      sh.cross_received++;
      enqueue_local(sh, ev);
    }
  }
  return any;
}

bool ShardedSimulator::all_idle() const {
  for (const auto& sh : shards_) {
    if (sh->state.load(std::memory_order_seq_cst) != 0) return false;
  }
  return true;
}

void ShardedSimulator::try_finish() {
  // Double-collect quiescence: counters balanced, every shard idle, counters
  // unchanged, every shard still idle.  Any concurrent activity flips a
  // state to ACTIVE before its receive count or bumps the send count first,
  // so a stale-idle view cannot slip through all four checks (see the
  // ordering comments in send/drain_inbound).
  const std::uint64_t s1 = cross_sent_total_.load(std::memory_order_seq_cst);
  const std::uint64_t r1 = cross_recv_total_.load(std::memory_order_seq_cst);
  if (s1 != r1) return;
  if (!all_idle()) return;
  const std::uint64_t s2 = cross_sent_total_.load(std::memory_order_seq_cst);
  if (s2 != s1) return;
  if (!all_idle()) return;
  done_.store(true, std::memory_order_seq_cst);
}

void ShardedSimulator::shard_loop(std::uint32_t s) {
  Shard& sh = *shards_[s];
  const double lookahead = cfg_.lookahead_ms;
  const std::uint32_t n = shard_count();
  ShardContext ctx(this, s);
  // Wall-clock self-profile: each loop iteration is attributed whole to
  // busy (executed >= 1 event), stall (queued work blocked by the horizon),
  // or idle (empty queue).  Individual handler invocations are additionally
  // timed per event kind.  All of it is wall state; none of it feeds back
  // into scheduling, so profiled runs stay bit-identical to unprofiled ones.
  EngineProfiler::ShardProfile* prof =
      profiler_ != nullptr ? &profiler_->shard(s) : nullptr;
  auto mark = std::chrono::steady_clock::now();
  while (!done_.load(std::memory_order_acquire)) {
    // 1. Horizon from the other shards' promises (INF when single-shard).
    double horizon = kInf;
    for (std::uint32_t o = 0; o < n; ++o) {
      if (o == s) continue;
      horizon = std::min(horizon,
                         shards_[o]->published.load(std::memory_order_seq_cst));
    }
    if (horizon != kInf) horizon += lookahead;
    // 2. Drain AFTER reading promises: any event still in flight from a
    //    shard whose promise we just read is timestamped >= horizon, and
    //    anything below horizon is already in some channel and lands in the
    //    local queue here, before processing.
    const bool drained = drain_inbound(s);
    // 3. Publish the promise.  min(local top, horizon) is a valid forever-
    //    bound on our future sends, and it is monotone, so other shards may
    //    cache it.
    const double top = sh.queue.empty() ? kInf : sh.queue.top().when;
    sh.published.store(std::min(top, horizon), std::memory_order_seq_cst);
    // 4. Execute the safe window.
    std::uint64_t batch = 0;
    while (!sh.queue.empty() && sh.queue.top().when < horizon) {
      const QueueItem item = sh.queue.pop();
      if (item.when < sh.now_ms) sh.monotone = false;
      sh.now_ms = item.when;
      const ShardEvent ev = sh.slab[item.slot];
      sh.free_slots.push_back(item.slot);
      if (ev.src == kEngineEntity) {
        sh.seeds_processed++;
      } else {
        sh.processed_by_src[ev.src]++;
      }
      sh.processed++;
      // Close elapsed windows BEFORE any registry writes for this event
      // (same order as Simulator::step): the event-count increment must land
      // in the window containing item.when, or the boundary attribution
      // would depend on how events split across shards.
      if (sh.timeline != nullptr) sh.timeline->advance_to(item.when);
      sh.registry.add(sh.events_id);
      ctx.self_ = ev.dst;
      ctx.now_ms_ = ev.when;
      if (prof != nullptr) {
        const auto t0 = std::chrono::steady_clock::now();
        handler_(ctx, ev);
        const auto t1 = std::chrono::steady_clock::now();
        prof->add_event(ev.kind,
                        std::chrono::duration<double>(t1 - t0).count());
      } else {
        handler_(ctx, ev);
      }
      ++batch;
    }
    if (prof != nullptr) {
      const auto now = std::chrono::steady_clock::now();
      const double dt = std::chrono::duration<double>(now - mark).count();
      mark = now;
      if (batch > 0) {
        prof->busy_s += dt;
      } else if (!sh.queue.empty()) {
        prof->stall_s += dt;  // lookahead wait: work queued, horizon too low
      } else {
        prof->idle_s += dt;
      }
    }
    if (batch > 0) {
      sh.batches++;
      continue;
    }
    if (!drained && sh.queue.empty()) {
      // Idle: volunteer for the quiescence check (shard 0 arbitrates).
      sh.state.store(0, std::memory_order_seq_cst);
      if (s == 0) try_finish();
      sh.idle_spins++;
      std::this_thread::yield();
    } else {
      sh.idle_spins++;
      std::this_thread::yield();
    }
  }
}

ShardedSimulator::RunStats ShardedSimulator::run() {
  assert(!ran_);
  assert(handler_ && "set_handler before run");
  ran_ = true;
  // Register the dispatch counter last -- after any registry_init -- so user
  // metric ids keep starting at 0 (models capture ids from a scratch registry
  // that knows nothing of engine-internal metrics).  Same name as the
  // single-threaded engine's counter, so the merged timeline exposes one
  // canonical events/sec series either way.
  for (auto& sh : shards_) {
    sh->events_id = sh->registry.counter("sim.events");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  if (shard_count() == 1) {
    shard_loop(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(shard_count());
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
      workers.emplace_back([this, s] { shard_loop(s); });
    }
    for (std::thread& t : workers) t.join();
  }
  stats_ = RunStats{};
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  for (const auto& sh : shards_) {
    stats_.processed += sh->processed;
    stats_.cross_shard_msgs += sh->cross_sent;
    stats_.cross_shard_received += sh->cross_received;
    stats_.batches += sh->batches;
    stats_.idle_spins += sh->idle_spins;
    stats_.end_time_ms = std::max(stats_.end_time_ms, sh->now_ms);
    stats_.min_cross_delay_ms =
        std::min(stats_.min_cross_delay_ms, sh->min_cross_delay);
    stats_.monotone = stats_.monotone && sh->monotone;
  }
  for (const std::uint64_t sent : sent_by_entity_) stats_.entity_msgs += sent;
  if (timeline_enabled_) {
    // Flush every shard to the GLOBAL end time (not its own last event):
    // all shards then hold windows [0, floor(end/W)], which is what makes
    // the merged timeline independent of the shard count -- a shard that
    // went quiet early still contributes its final gauge values (and zero
    // deltas) to the trailing windows.
    for (auto& sh : shards_) sh->timeline->flush(stats_.end_time_ms);
  }
  return stats_;
}

obs::Registry ShardedSimulator::merged_metrics() const {
  obs::Registry merged;
  if (registry_init_) registry_init_(merged);
  for (const auto& sh : shards_) merged.merge_from(sh->registry);
  return merged;
}

obs::Timeline ShardedSimulator::merged_timeline() const {
  assert(timeline_enabled_ && "enable_timeline before run");
  obs::Timeline merged(timeline_cfg_);
  for (const auto& sh : shards_) merged.merge_from(*sh->timeline);
  return merged;
}

std::uint64_t ShardedSimulator::flight_digest() const {
  std::uint64_t d = 0;
  for (const auto& sh : shards_) d += sh->recorder.content_digest();
  return d;
}

std::vector<std::uint64_t> ShardedSimulator::processed_by_source() const {
  std::vector<std::uint64_t> out(shard_of_.size(), 0);
  for (const auto& sh : shards_) {
    for (std::size_t e = 0; e < out.size(); ++e) {
      out[e] += sh->processed_by_src[e];
    }
  }
  return out;
}

std::uint64_t ShardedSimulator::seeds_processed() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->seeds_processed;
  return n;
}

}  // namespace rofl::sim
