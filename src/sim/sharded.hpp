// sharded.hpp -- parallel discrete-event engine: one event loop per shard,
// synchronized by conservative lookahead.
//
// The single-core sim::Simulator caps every experiment well below the
// paper's Internet-scale claims.  This engine partitions the simulated
// world into *entities* (per-AS is the natural cut -- interdomain traffic
// already crosses an explicit wire boundary), assigns entities to shards,
// and runs one event loop per shard on its own worker thread.  Cross-shard
// events travel as timestamped frames through bounded SPSC channels
// (util::SpscQueue); shards synchronize with the classic
// Chandy-Misra-Bryant conservative rule:
//
//   * every cross-entity send must be delayed by at least `lookahead_ms`
//     (the minimum inter-shard link latency);
//   * each shard publishes a promise P = min(next local event time,
//     min over other shards' promises + lookahead): no event it will ever
//     emit can be timestamped below P + lookahead;
//   * a shard may execute events strictly below
//     horizon = min over other shards' promises + lookahead.
//
// Determinism is the design center, not an afterthought.  A 1-shard and an
// 8-shard run of the same seed must produce bit-identical merged metrics,
// flight-recorder digests, and auditor reports, which forces three rules:
//
//   1. Event order is a total order on (when, source entity, per-source
//      sequence number) -- never on shard-local state, so the order is
//      independent of how entities map to shards.
//   2. RNG streams are split per *entity* from the master seed (per-shard
//      streams would couple results to the partition).  An entity's stream
//      advances only while its own events execute, which rule 1 makes
//      deterministic.
//   3. Shared output follows the PR-1 write-one-slot-per-worker discipline:
//      each shard owns a private obs::Registry and obs::FlightRecorder;
//      snapshots are produced by deterministic merge (Registry::merge_from,
//      FlightRecorder::content_digest), which is order-independent as long
//      as histogram samples are integral (see DESIGN.md section 13).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/spsc_queue.hpp"

namespace rofl::sim {

class EngineProfiler;

/// A simulated actor (for the interdomain scale model: one AS).  Entities
/// are dense indices; each is owned by exactly one shard.
using EntityId = std::uint32_t;

/// Source id of engine-seeded (pre-run) events; sorts after all real
/// entities at equal timestamps, identically for every shard count.
inline constexpr EntityId kEngineEntity = 0xFFFFFFFFu;

/// Payload bytes carried inline by a shard event (a decoded wire frame; see
/// inter::ShardScaleModel for the byte-accounting contract).
inline constexpr std::size_t kShardEventPayloadBytes = 56;

/// One timestamped frame.  POD by design: events cross shard boundaries by
/// value through SPSC rings, no ownership, no allocation.
struct ShardEvent {
  double when = 0.0;     // virtual delivery time [ms]
  EntityId src = kEngineEntity;
  EntityId dst = 0;
  std::uint64_t seq = 0;  // per-source sequence number (tie-break key)
  std::uint32_t kind = 0; // application opcode
  std::uint16_t size = 0; // payload bytes in use
  std::array<std::uint8_t, kShardEventPayloadBytes> payload{};
};

/// Deterministic entity->shard assignment balancing per-entity weights:
/// entities sorted by descending weight (ties by index) go to the currently
/// lightest shard (ties by shard index).  Weights are workload estimates
/// (e.g. hosts homed at or registering through an AS); the partition affects
/// performance only, never results.
[[nodiscard]] std::vector<std::uint32_t> balanced_shard_map(
    const std::vector<std::uint64_t>& weights, std::uint32_t shards);

class ShardedSimulator;

/// The execution context handed to the entity handler.  Valid only for the
/// duration of the handler call, on the shard that owns the event's dst.
class ShardContext {
 public:
  [[nodiscard]] double now_ms() const { return now_ms_; }
  [[nodiscard]] EntityId self() const { return self_; }
  [[nodiscard]] std::uint32_t shard() const { return shard_; }

  /// The per-entity RNG stream (split from the master seed; independent of
  /// the shard map).  Only entities owned by the current shard may be drawn
  /// from -- anything else would race and break determinism.
  [[nodiscard]] Rng& rng(EntityId e);
  [[nodiscard]] Rng& rng() { return rng(self_); }

  /// This shard's private registry / recorder (write-one-slot discipline).
  [[nodiscard]] obs::Registry& metrics();
  [[nodiscard]] obs::FlightRecorder& recorder();

  /// Sends a frame to `dst` after `delay_ms`.  Self-sends (dst == self)
  /// accept any delay >= 0; cross-entity sends require
  /// delay >= lookahead_ms -- the conservative bound every simulated link
  /// latency must respect.
  void send(EntityId dst, double delay_ms, std::uint32_t kind,
            const void* payload = nullptr, std::size_t size = 0);

 private:
  friend class ShardedSimulator;
  ShardContext(ShardedSimulator* engine, std::uint32_t shard)
      : engine_(engine), shard_(shard) {}

  ShardedSimulator* engine_;
  std::uint32_t shard_;
  EntityId self_ = 0;
  double now_ms_ = 0.0;
};

class ShardedSimulator {
 public:
  struct Config {
    std::uint32_t shards = 1;
    /// Minimum cross-entity link latency [ms]; must be > 0 when shards > 1.
    /// It is also each shard's event-queue bucket width (1 ms when 0).
    double lookahead_ms = 1.0;
    /// Per-channel SPSC capacity (rounded up to a power of two).
    std::size_t channel_capacity = 4096;
    /// Master seed; entity stream e is seeded with splitmix64(seed ^ e).
    std::uint64_t seed = 1;
    /// Per-shard flight-recorder ring capacity.
    std::size_t recorder_capacity = 1 << 14;
  };

  using Handler = std::function<void(ShardContext&, const ShardEvent&)>;
  /// Runs once per shard registry at construction; every shard must perform
  /// identical registrations so merged ids line up.
  using RegistryInit = std::function<void(obs::Registry&)>;

  struct RunStats {
    std::uint64_t processed = 0;     // events dispatched (all shards)
    std::uint64_t entity_msgs = 0;   // cross-entity sends (shard-independent)
    std::uint64_t cross_shard_msgs = 0;  // sends that used an SPSC channel
    std::uint64_t cross_shard_received = 0;
    std::uint64_t batches = 0;       // horizon windows with >= 1 event
    std::uint64_t idle_spins = 0;    // loop iterations that did nothing
    double end_time_ms = 0.0;        // max executed timestamp
    double min_cross_delay_ms = std::numeric_limits<double>::infinity();
    bool monotone = true;            // per-shard timestamps never regressed
    double wall_seconds = 0.0;
  };

  /// `map[e]` = owning shard for entity e; every value must be < cfg.shards.
  ShardedSimulator(std::vector<std::uint32_t> map, Config cfg);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  void set_handler(Handler h) { handler_ = std::move(h); }
  void set_registry_init(RegistryInit init);

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] EntityId entity_count() const {
    return static_cast<EntityId>(shard_of_.size());
  }
  [[nodiscard]] std::uint32_t shard_of(EntityId e) const {
    return shard_of_[e];
  }
  [[nodiscard]] double lookahead_ms() const { return cfg_.lookahead_ms; }

  /// Schedules a pre-run event (src = kEngineEntity).  Must not be called
  /// after run().
  void seed_event(double when_ms, EntityId dst, std::uint32_t kind,
                  const void* payload = nullptr, std::size_t size = 0);

  /// Enables per-shard timeline sampling (one obs::Timeline over each
  /// shard's private registry, advanced on the sim clock before every
  /// dispatch).  Call before run().  At quiescence every shard's timeline is
  /// flushed to the *global* end time, so all shards close the identical
  /// window range -- the property merged_timeline() needs for bit-identical
  /// output at any shard count.
  void enable_timeline(obs::Timeline::Config cfg);
  [[nodiscard]] bool timeline_enabled() const { return timeline_enabled_; }

  /// Installs a wall-clock self-profiler (must have shard_count() shards).
  /// Wall time only -- never merged into metrics, timelines, or digests.
  void set_profiler(EngineProfiler* profiler) { profiler_ = profiler; }

  /// Spawns one worker per shard, runs to global quiescence, joins, and
  /// returns the run statistics.  Callable once.
  RunStats run();

  // -- post-run, deterministic across shard counts --------------------------
  /// Fresh registry initialized by the registry-init hook with every shard's
  /// registry folded in (shard-index order; order-independent by the
  /// integral-sample discipline).
  [[nodiscard]] obs::Registry merged_metrics() const;
  /// Wrapping sum of the per-shard recorder content digests.
  [[nodiscard]] std::uint64_t flight_digest() const;
  /// Per-shard timelines folded by absolute window index (commutative, like
  /// merged_metrics); requires enable_timeline() before run().
  [[nodiscard]] obs::Timeline merged_timeline() const;

  // -- audit surface (sharding-independent unless noted) --------------------
  /// Events each entity has sent (== its final sequence number).
  [[nodiscard]] const std::vector<std::uint64_t>& sent_by_entity() const {
    return sent_by_entity_;
  }
  /// Events processed whose source was entity e, summed over shards.
  [[nodiscard]] std::vector<std::uint64_t> processed_by_source() const;
  [[nodiscard]] std::uint64_t seed_count() const { return seed_seq_; }
  [[nodiscard]] std::uint64_t seeds_processed() const;
  [[nodiscard]] const RunStats& stats() const { return stats_; }

 private:
  friend class ShardContext;

  struct QueueItem {
    double when;
    std::uint64_t seq;   // (src << 32) | per-src sequence: the tie-break key
    std::uint32_t slot;
  };

  struct alignas(64) Shard {
    /// Buckets one lookahead wide: every cross-entity send lands at least
    /// one bucket past the one being drained.
    explicit Shard(const Config& cfg)
        : queue(cfg.lookahead_ms), registry(),
          recorder(cfg.recorder_capacity) {}

    CalendarQueue<QueueItem> queue;
    std::vector<ShardEvent> slab;
    std::vector<std::uint32_t> free_slots;
    obs::Registry registry;
    obs::FlightRecorder recorder;
    /// "sim.events" in this shard's registry: events dispatched here.  The
    /// per-window deltas of the merged counter are the events/sec series.
    obs::MetricId events_id = 0;
    std::unique_ptr<obs::Timeline> timeline;
    double now_ms = 0.0;
    // Per-source processed counts (audit: sequence conservation).
    std::vector<std::uint64_t> processed_by_src;
    std::uint64_t seeds_processed = 0;
    std::uint64_t processed = 0;
    std::uint64_t batches = 0;
    std::uint64_t idle_spins = 0;
    std::uint64_t cross_sent = 0;
    std::uint64_t cross_received = 0;
    double min_cross_delay = std::numeric_limits<double>::infinity();
    bool monotone = true;
    /// The conservative promise: no event this shard will emit from now on
    /// is timestamped below published + lookahead.  Monotone by
    /// construction.
    std::atomic<double> published{0.0};
    /// kActive while the shard may still produce work; kIdle only when its
    /// queue is empty.  Stored ACTIVE *before* the receive counter of any
    /// drained event so the quiescence check cannot miss queued work.
    std::atomic<std::uint8_t> state{1};  // 1 = active, 0 = idle
  };

  void enqueue_local(Shard& sh, const ShardEvent& ev);
  bool drain_inbound(std::uint32_t s);
  void shard_loop(std::uint32_t s);
  void try_finish();
  [[nodiscard]] bool all_idle() const;

  Config cfg_;
  std::vector<std::uint32_t> shard_of_;
  Handler handler_;
  RegistryInit registry_init_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // channels_[src * shards + dst]; null on the diagonal.
  std::vector<std::unique_ptr<util::SpscQueue<ShardEvent>>> channels_;
  std::vector<Rng> entity_rng_;
  std::vector<std::uint64_t> sent_by_entity_;
  std::uint64_t seed_seq_ = 0;
  bool ran_ = false;
  bool timeline_enabled_ = false;
  obs::Timeline::Config timeline_cfg_;
  EngineProfiler* profiler_ = nullptr;
  RunStats stats_;

  std::atomic<std::uint64_t> cross_sent_total_{0};
  std::atomic<std::uint64_t> cross_recv_total_{0};
  std::atomic<bool> done_{false};
};

}  // namespace rofl::sim
