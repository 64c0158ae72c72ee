// spsc_queue.hpp -- bounded single-producer/single-consumer ring buffer.
//
// The cross-shard event channel of the sharded simulator: each ordered shard
// pair (s -> d) owns one queue, written only by s's worker and read only by
// d's worker.  That pairing is what makes the lock-free implementation
// trivial: the producer owns tail_, the consumer owns head_, and each side
// only ever *reads* the other's index with acquire ordering.  Capacity is
// rounded up to a power of two so index masking is one AND.
//
// push() is non-blocking and returns false when full -- the sending shard
// spins with a yield, draining its own inbound queues while it waits, so two
// shards that fill each other's queues cannot block each other forever.
//
// Thread contract: this is a TWO-thread structure.  Exactly one thread may
// call push() (the producer) and exactly one thread may call pop() (the
// consumer); size_approx() is meaningful only from one of those two threads
// (see its comment).  There is no safe third-party observer role.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <vector>

namespace rofl::util {

template <typename T>
class SpscQueue {
 public:
  /// `capacity` slots (rounded up to a power of two, minimum 2).
  explicit SpscQueue(std::size_t capacity)
      : slots_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)),
        mask_(slots_.size() - 1) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Producer side.  Returns false when the ring is full.
  bool push(const T& v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == slots_.size()) {
      return false;
    }
    slots_[tail & mask_] = v;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.  Returns false when the ring is empty.
  bool pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Occupancy estimate.  Only valid from the producer or the consumer
  /// thread: the two indices are loaded separately, so a caller that owns
  /// neither index can observe them torn against each other -- e.g. read a
  /// stale tail, then a head the consumer has since advanced PAST that tail,
  /// and the unsigned difference wraps to a preposterous count.  From the
  /// producer the estimate errs low (consumer may still be draining); from
  /// the consumer it errs low the other way (producer may still be filling);
  /// from any third thread it is garbage, not merely stale.  EngineProfiler's
  /// spsc_hwm is therefore sampled by each channel's consumer only.
  [[nodiscard]] std::size_t size_approx() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  const std::size_t mask_;
  // Indices are free-running; the distance is the fill level.  Padded to
  // separate the producer-owned and consumer-owned cache lines.
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
};

}  // namespace rofl::util
