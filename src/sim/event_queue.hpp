// event_queue.hpp -- the simulators' event queues.
//
// Both queues pop in one order: earliest `when` first, ties broken by
// ascending `seq`, so event execution order -- and therefore every seeded
// run -- is fully deterministic.  Callers give every item a distinct `seq`
// (an insertion counter, or a packed (source, per-source counter) key), so
// the order is total and neither queue has a tie left to break its own way.
//
// EventQueue is a 4-ary min-heap.  A 4-ary heap halves the tree depth, so a
// sift-down touches ~half as many cache lines; with events stored by value
// in one contiguous slab the queue performs no per-event allocation beyond
// the amortized slab growth.  pop() moves the minimum out.  sim::Simulator
// queues on it, and it is the reference the calendar queue is tested
// against.
//
// CalendarQueue is the sharded engine's queue (DESIGN.md section 13).  A
// deep queue whose pushes land at least one bucket width ahead of the
// bucket being drained -- the conservative lookahead guarantees this for
// every cross-entity send -- is appended to unsorted buckets and sorted one
// bucket at a time, instead of paying a heap's log-depth push and pop.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rofl::sim {

/// The pop order of both queues: (when, seq) lexicographic.
template <typename Event>
[[nodiscard]] bool pops_before(const Event& a, const Event& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

template <typename Event>
class EventQueue {
 public:
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  [[nodiscard]] const Event& top() const { return items_.front(); }

  void push(Event e) {
    items_.push_back(std::move(e));
    sift_up(items_.size() - 1);
  }

  /// Removes and returns the minimum event.
  Event pop() {
    Event out = std::move(items_.front());
    Event last = std::move(items_.back());
    items_.pop_back();
    if (!items_.empty()) {
      items_.front() = std::move(last);
      sift_down(0);
    }
    return out;
  }

 private:
  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!pops_before(items_[i], items_[parent])) break;
      std::swap(items_[i], items_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = items_.size();
    for (;;) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (pops_before(items_[c], items_[best])) best = c;
      }
      if (!pops_before(items_[best], items_[i])) break;
      std::swap(items_[i], items_[best]);
      i = best;
    }
  }

  std::vector<Event> items_;
};

/// A calendar queue over a ring of kBuckets buckets, each `width` wide:
/// item e belongs to bucket floor(e.when * (1 / width)).  One bucket at a
/// time -- the one being drained, `cur_` -- is sorted and popped in order
/// (the run); the kBuckets - 1 buckets after it collect their pushes
/// unsorted.  Every other push goes to a late EventQueue: an item at or
/// before the bucket being drained (a self-send shorter than one width, a
/// cross-shard arrival at the horizon, a non-monotone push), one kBuckets
/// or more buckets ahead, and a negative or non-finite time.
///
/// Pop order equals EventQueue's.  The bucket index never decreases with
/// `when`, so an item of a later bucket is strictly later than one of an
/// earlier bucket.  Every ring item lies in a bucket after cur_, and the
/// run holds all of cur_'s remaining ring items in sorted order, so while
/// the run is non-empty the minimum is the smaller of the run's next item
/// and late_'s top, compared by exact (when, seq); once the run is spent,
/// the next occupied bucket is sorted into it (or, with the ring empty,
/// late_ holds everything).  The width therefore decides only which items
/// are sorted together, never the order.
///
/// The window moves only through occupied buckets: should the ring empty
/// while late_ holds nothing but items past the window, pushes made
/// relative to those items keep landing in late_, at EventQueue's cost.
/// No benchmark workload pushes past the window (DESIGN.md section 13).
template <typename Event>
class CalendarQueue {
 public:
  /// Ring length; a power of two.
  static constexpr std::size_t kBuckets = 1024;
  /// The width a non-positive `width` falls back to.
  static constexpr double kDefaultWidth = 1.0;

  explicit CalendarQueue(double width)
      : inv_width_(1.0 / (width > 0.0 ? width : kDefaultWidth)),
        ring_(kBuckets) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The minimum item.  Not const: once the run is spent, the first call
  /// sorts the next occupied bucket into it.
  [[nodiscard]] const Event& top() {
    settle();
    const std::vector<Event>& run = ring_[slot(cur_)];
    if (run_first(run)) return run[pos_];
    return late_.top();
  }

  void push(Event e) {
    ++size_;
    const double q = e.when * inv_width_;
    const auto c = static_cast<double>(cur_);
    // Negated so that NaN fails too.
    if (!(q >= c + 1.0 && q < c + static_cast<double>(kBuckets))) {
      late_.push(std::move(e));
      return;
    }
    const std::size_t s = slot(static_cast<std::int64_t>(q));
    ring_[s].push_back(std::move(e));
    occupied_[s / 64] |= std::uint64_t{1} << (s % 64);
    ++in_ring_;
  }

  /// Removes and returns the minimum item.
  Event pop() {
    settle();
    --size_;
    std::vector<Event>& run = ring_[slot(cur_)];
    if (!run_first(run)) return late_.pop();
    Event out = std::move(run[pos_]);
    if (++pos_ == run.size()) {
      // A spent run gives its buffer back, so memory follows the pending
      // items rather than each bucket's high-water mark.
      std::vector<Event>().swap(run);
      pos_ = 0;
    }
    return out;
  }

 private:
  static constexpr std::size_t kWords = kBuckets / 64;
  static_assert(kBuckets % 64 == 0 && std::has_single_bit(kBuckets));

  [[nodiscard]] static std::size_t slot(std::int64_t b) {
    return static_cast<std::size_t>(b) & (kBuckets - 1);
  }

  /// Whether the run's next item pops before late_'s top.
  [[nodiscard]] bool run_first(const std::vector<Event>& run) const {
    return pos_ < run.size() &&
           (late_.empty() || pops_before(run[pos_], late_.top()));
  }

  /// The first occupied bucket after cur_ (in_ring_ must be > 0).  One
  /// bitmap word covers 64 buckets, so an empty stretch costs at most
  /// kWords + 1 word reads.
  [[nodiscard]] std::int64_t next_occupied() const {
    const std::size_t start = slot(cur_ + 1);
    std::size_t w = start / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
    while (bits == 0) {
      w = (w + 1) % kWords;
      bits = occupied_[w];
    }
    const std::size_t s = w * 64 + static_cast<std::size_t>(
                                       std::countr_zero(bits));
    return cur_ + 1 +
           static_cast<std::int64_t>((s - start) & (kBuckets - 1));
  }

  /// Once the run is spent, sorts the ring's earliest bucket into it.
  void settle() {
    if (pos_ < ring_[slot(cur_)].size() || in_ring_ == 0) return;
    cur_ = next_occupied();
    const std::size_t s = slot(cur_);
    occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
    std::vector<Event>& run = ring_[s];
    in_ring_ -= run.size();
    std::sort(run.begin(), run.end(), [](const Event& a, const Event& b) {
      return pops_before(a, b);
    });
    pos_ = 0;
  }

  double inv_width_;
  std::vector<std::vector<Event>> ring_;   // bucket b at ring_[slot(b)]
  std::array<std::uint64_t, kWords> occupied_{};  // ring slots holding items
  std::int64_t cur_ = -1;    // the bucket being drained
  std::size_t pos_ = 0;      // next item of the run, ring_[slot(cur_)]
  std::size_t in_ring_ = 0;  // items in the ring outside the run
  std::size_t size_ = 0;
  EventQueue<Event> late_;
};

}  // namespace rofl::sim
