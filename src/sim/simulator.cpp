#include "sim/simulator.hpp"

#include <cassert>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/timeline.hpp"

namespace rofl::sim {

std::string_view to_string(MsgCategory c) {
  switch (c) {
    case MsgCategory::kJoin: return "join";
    case MsgCategory::kTeardown: return "teardown";
    case MsgCategory::kRepair: return "repair";
    case MsgCategory::kLinkState: return "linkstate";
    case MsgCategory::kData: return "data";
    case MsgCategory::kControl: return "control";
  }
  return "?";
}

// HopRecord carries MsgCategory as a raw byte; obs::category_name must keep
// printing the same names in the same order.
static_assert(kMsgCategoryCount == 6);
static_assert(obs::category_name(static_cast<std::uint8_t>(
                  MsgCategory::kJoin)) == "join");
static_assert(obs::category_name(static_cast<std::uint8_t>(
                  MsgCategory::kControl)) == "control");

Counters::Counters(obs::Registry* registry) : registry_(registry) {
  assert(registry != nullptr);
  for (std::size_t c = 0; c < kMsgCategoryCount; ++c) {
    const std::string name(to_string(static_cast<MsgCategory>(c)));
    ids_[c] = registry_->counter("msgs." + name);
    byte_ids_[c] = registry_->counter("bytes." + name);
  }
}

std::uint64_t Counters::total() const {
  std::uint64_t sum = 0;
  for (const obs::MetricId id : ids_) sum += registry_->counter_value(id);
  return sum;
}

std::uint64_t Counters::total_bytes() const {
  std::uint64_t sum = 0;
  for (const obs::MetricId id : byte_ids_) sum += registry_->counter_value(id);
  return sum;
}

void Counters::reset() {
  for (const obs::MetricId id : ids_) registry_->set_counter(id, 0);
  for (const obs::MetricId id : byte_ids_) registry_->set_counter(id, 0);
}

void Simulator::schedule_in(double delay_ms, Action action) {
  assert(delay_ms >= 0.0);
  schedule_at(now_ms_ + delay_ms, std::move(action));
}

void Simulator::schedule_at(double when_ms, Action action) {
  assert(when_ms >= now_ms_);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(action);
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(action));
  }
  queue_.push(HeapItem{when_ms, next_seq_++, slot});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const HeapItem item = queue_.pop();
  // Close timeline windows before the dispatch is recorded anywhere, so all
  // registry activity since the previous event -- and any counter-track
  // samples the timeline emits -- lands ahead of this event in trace order.
  if (timeline_ != nullptr) timeline_->advance_to(item.when);
  now_ms_ = item.when;
  // Move the payload out and recycle the slot before running it: the action
  // may schedule further events (growing or reusing the slab).
  Action action = std::move(slab_[item.slot]);
  free_slots_.push_back(item.slot);
  metrics_.add(events_id_);
  if (tracer_ != nullptr) {
    tracer_->instant("dispatch", "sim", now_ms_ * 1000.0, /*track=*/0,
                     {obs::TraceArg{"seq", item.seq}});
  }
  action();
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t Simulator::run_until(double t_ms) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.top().when <= t_ms && step()) ++n;
  now_ms_ = std::max(now_ms_, t_ms);
  return n;
}

}  // namespace rofl::sim
