#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace rofl::sim {
namespace {

struct Item {
  double when = 0.0;
  std::uint64_t seq = 0;
};

template <typename Queue>
std::vector<Item> drain(Queue& q) {
  std::vector<Item> out;
  while (!q.empty()) out.push_back(q.pop());
  return out;
}

// Calendar-queue widths under test: exact and inexact binary fractions, and
// 0, which falls back to CalendarQueue::kDefaultWidth.
constexpr double kWidths[] = {0.3, 0.5, 1.0, 0.0};

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<Item> q;
  q.push({5.0, 0});
  q.push({1.0, 1});
  q.push({3.0, 2});
  const auto out = drain(q);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].when, 1.0);
  EXPECT_DOUBLE_EQ(out[1].when, 3.0);
  EXPECT_DOUBLE_EQ(out[2].when, 5.0);
}

TEST(EventQueue, SameTimestampPopsInInsertionOrder) {
  EventQueue<Item> q;
  for (std::uint64_t s = 0; s < 64; ++s) q.push({7.0, s});
  const auto out = drain(q);
  ASSERT_EQ(out.size(), 64u);
  for (std::uint64_t s = 0; s < 64; ++s) EXPECT_EQ(out[s].seq, s);
}

// One round of the stable-sort property on queues made by `make`.
template <typename MakeQueue>
void stable_sort_round(Rng& rng, const MakeQueue& make) {
  auto q = make();
  std::vector<Item> pushed;
  std::vector<Item> popped;
  std::uint64_t next_seq = 0;
  const std::size_t ops = 200 + rng.below(300);
  for (std::size_t i = 0; i < ops; ++i) {
    if (q.empty() || rng.below(3) != 0) {  // 2:1 push:pop mix
      const Item it{static_cast<double>(rng.below(8)), next_seq++};
      pushed.push_back(it);
      q.push(it);
    } else {
      popped.push_back(q.pop());
    }
  }
  while (!q.empty()) popped.push_back(q.pop());
  ASSERT_EQ(popped.size(), pushed.size());

  // Interleaved case: within every timestamp, seqs must pop in strictly
  // increasing (insertion) order -- the FIFO-among-ties guarantee the
  // cross-shard tie-break (when, src, seq) relies on.
  std::vector<std::uint64_t> last_seq_at(8, 0);
  std::vector<bool> seen_at(8, false);
  for (const Item& it : popped) {
    const auto bucket = static_cast<std::size_t>(it.when);
    if (seen_at[bucket]) {
      EXPECT_GT(it.seq, last_seq_at[bucket])
          << "ties at when=" << it.when << " popped out of insertion order";
    }
    seen_at[bucket] = true;
    last_seq_at[bucket] = it.seq;
  }

  // Drain-only case: pushing the same set fresh and draining to empty must
  // reproduce the stable sort exactly.
  std::vector<Item> reference = pushed;
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Item& a, const Item& b) {
                     if (a.when != b.when) return a.when < b.when;
                     return a.seq < b.seq;
                   });
  auto q2 = make();
  for (const Item& it : pushed) q2.push(it);
  const auto drained = drain(q2);
  ASSERT_EQ(drained.size(), reference.size());
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_DOUBLE_EQ(drained[i].when, reference[i].when);
    EXPECT_EQ(drained[i].seq, reference[i].seq);
  }
}

// The property the sharded merge depends on (DESIGN.md section 13): the pop
// sequence of any pushed set equals its stable sort by (when, seq), and ties
// stay FIFO even when pops interleave with pushes.  Timestamps come from a
// tiny set so the tie-break carries most of the ordering; `seq` is assigned
// in push order, exactly as both simulators do.  Every queue takes the same
// rounds: the heap, and the calendar queue at each width.
TEST(EventQueue, PropertyMatchesStableSortUnderTies) {
  Rng rng(0xE1E17u);
  for (int round = 0; round < 50; ++round) {
    stable_sort_round(rng, [] { return EventQueue<Item>{}; });
    for (const double width : kWidths) {
      SCOPED_TRACE(width);
      stable_sort_round(rng, [width] { return CalendarQueue<Item>(width); });
    }
  }
}

// How a differential run draws the time of each push, relative to `now`,
// the time of the last item popped.
enum class Delays {
  kCoarseGrid,  // whole multiples of 0.25, so most pushes tie
  kContinuous,  // uniform real delays of up to 5 widths
  kBackward,    // at or before the bucket being drained, negative times too
  kPastSpan,    // one to three ring spans ahead, 1e17 widths, and +inf
  kGaps,        // mostly short, now and then 10^6 widths ahead
};

double draw_when(Rng& rng, Delays d, double now, double width) {
  const double span = static_cast<double>(CalendarQueue<Item>::kBuckets) *
                      width;
  switch (d) {
    case Delays::kCoarseGrid:
      return now + 0.25 * static_cast<double>(rng.below(12));
    case Delays::kContinuous:
      return now + 5.0 * width * rng.uniform();
    case Delays::kBackward:
      switch (rng.below(4)) {
        case 0: return now;
        case 1: return now + 0.5 * width * rng.uniform();
        case 2: return now - 3.0 * width * rng.uniform();
        default: return now + 3.0 * width * rng.uniform();
      }
    case Delays::kPastSpan:
      switch (rng.below(8)) {
        case 0: return now + 1e17 * width;  // far past the window
        case 1: return std::numeric_limits<double>::infinity();
        case 2:
        case 3: return now + 2.0 * width * rng.uniform();
        default: return now + span * (1.0 + 2.0 * rng.uniform());
      }
    case Delays::kGaps:
      return now + (rng.below(16) == 0 ? 1e6 * width : 2.0 * width) *
                       (1.0 + rng.uniform());
  }
  return now;
}

// Drives the heap and the calendar queue with one random mix of pushes,
// pops and tops, and requires the same item from both at every pop and top.
void differential_run(Delays d, double width, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "delays=" << static_cast<int>(d) << " width=" << width
               << " seed=" << seed);
  const double eff = width > 0.0 ? width : CalendarQueue<Item>::kDefaultWidth;
  Rng rng(seed);
  EventQueue<Item> ref;
  CalendarQueue<Item> cal(width);
  std::uint64_t next_seq = 0;
  double now = 0.0;
  std::size_t compared = 0;
  const auto same = [&](const Item& a, const Item& b) {
    ++compared;
    // Bitwise-equal times (inf included), then the key.
    EXPECT_TRUE(a.when == b.when) << a.when << " vs " << b.when;
    EXPECT_EQ(a.seq, b.seq) << "at when=" << a.when;
    return a.when == b.when && a.seq == b.seq;
  };
  for (int i = 0; i < 6000; ++i) {
    // Pushes outnumber pops 3:1 until the queue is ~800 deep, then match.
    const std::uint64_t pushes = i < 2000 ? 6 : 4;
    const std::uint64_t op = rng.below(10);
    if (ref.empty() || op < pushes) {
      const Item it{draw_when(rng, d, now, eff), next_seq++};
      ref.push(it);
      cal.push(it);
    } else if (op < pushes + 2) {
      if (!same(cal.top(), ref.top())) return;
    } else {
      const Item a = cal.pop();
      const Item b = ref.pop();
      if (!same(a, b)) return;
      if (b.when < std::numeric_limits<double>::infinity()) now = b.when;
    }
    ASSERT_EQ(cal.size(), ref.size());
  }
  while (!ref.empty()) {
    ASSERT_FALSE(cal.empty());
    if (!same(cal.pop(), ref.pop())) return;
  }
  EXPECT_TRUE(cal.empty());
  EXPECT_GT(compared, 2000u);
}

TEST(CalendarQueue, MatchesHeapOnCoarseGridTies) {
  for (const double w : kWidths) {
    for (std::uint64_t s = 1; s <= 4; ++s) {
      differential_run(Delays::kCoarseGrid, w, s);
    }
  }
}

TEST(CalendarQueue, MatchesHeapOnContinuousDelays) {
  for (const double w : kWidths) {
    for (std::uint64_t s = 1; s <= 4; ++s) {
      differential_run(Delays::kContinuous, w, s);
    }
  }
}

TEST(CalendarQueue, MatchesHeapOnPushesAtOrBeforeTheDrainedBucket) {
  for (const double w : kWidths) {
    for (std::uint64_t s = 1; s <= 4; ++s) {
      differential_run(Delays::kBackward, w, s);
    }
  }
}

TEST(CalendarQueue, MatchesHeapOnPushesPastTheRingSpan) {
  for (const double w : kWidths) {
    for (std::uint64_t s = 1; s <= 4; ++s) {
      differential_run(Delays::kPastSpan, w, s);
    }
  }
}

TEST(CalendarQueue, MatchesHeapAcrossGapsOfAMillionWidths) {
  for (const double w : kWidths) {
    for (std::uint64_t s = 1; s <= 4; ++s) {
      differential_run(Delays::kGaps, w, s);
    }
  }
}

// Pushes on both sides of the window's far edge, at each width: bucket
// cur + kBuckets - 1 is the ring's last, and bucket cur + kBuckets, whose
// slot is the drained bucket's, must wait in the late heap.
TEST(CalendarQueue, PushesAtTheWindowEdgePopInOrder) {
  for (const double w : kWidths) {
    SCOPED_TRACE(w);
    const double eff = w > 0.0 ? w : CalendarQueue<Item>::kDefaultWidth;
    const double span = static_cast<double>(CalendarQueue<Item>::kBuckets) *
                        eff;
    CalendarQueue<Item> q(w);
    q.push({3.5 * eff, 0});
    q.push({0.5 * eff, 1});
    ASSERT_EQ(q.top().when, 0.5 * eff);  // bucket 0 is being drained
    q.push({span + 0.5 * eff, 2});        // bucket kBuckets
    q.push({span - 0.5 * eff, 3});        // bucket kBuckets - 1
    const auto out = drain(q);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].seq, 1u);
    EXPECT_EQ(out[1].seq, 0u);
    EXPECT_EQ(out[2].seq, 3u);
    EXPECT_EQ(out[3].seq, 2u);
  }
}

// Emptied and refilled again and again, first a few widths ahead (into the
// ring), then a million widths ahead (past the window, into the late heap):
// a push behind the bucket just sorted must still pop first.
TEST(CalendarQueue, RefillsAfterEmptyingPopInOrder) {
  CalendarQueue<Item> q(0.5);
  std::uint64_t seq = 0;
  double t = 0.0;
  for (int round = 0; round < 200; ++round) {
    const bool near = round < 100;
    t += near ? 3.0 : 1e6 * (1.0 + round % 3);
    const double behind = t - (near ? 1.0 : 1e5);
    q.push({t + 2.0, seq++});
    q.push({t, seq++});
    ASSERT_EQ(q.top().when, t);
    q.push({behind, seq++});
    const Item a = q.pop();
    const Item b = q.pop();
    const Item c = q.pop();
    ASSERT_EQ(a.when, behind);
    ASSERT_EQ(b.when, t);
    ASSERT_EQ(c.when, t + 2.0);
    ASSERT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace rofl::sim
