#include "obs/timeline.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "obs/trace_export.hpp"

namespace rofl::obs {

namespace {

void json_escape_into(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

/// Nearest-rank percentile over a window's bucket deltas, interpolated
/// across the bucket holding the rank.  Unlike Histogram::percentile there
/// is no observed min/max for a single window (only cumulative extremes
/// exist), so the first bucket interpolates from 0 and the overflow bucket
/// reports the last finite bound -- a documented, deterministic convention.
double window_percentile(const std::vector<double>& bounds,
                         const std::vector<std::uint64_t>& counts,
                         std::uint64_t total, double p) {
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(p * static_cast<double>(total))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (cum + counts[i] < rank) {
      cum += counts[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : bounds.back();
    const double frac = counts[i] == 0 ? 1.0
                                       : static_cast<double>(rank - cum) /
                                             static_cast<double>(counts[i]);
    return lo + (hi - lo) * frac;
  }
  return bounds.back();
}

}  // namespace

Timeline::Timeline(const Registry* registry, Config cfg)
    : registry_(registry), cfg_(cfg) {
  // A zero-width (or NaN/negative) window would make advance_to spin
  // closing windows forever; asserts vanish in Release builds, so sanitize
  // unconditionally back to the documented defaults.
  if (!std::isfinite(cfg_.window_ms) || cfg_.window_ms <= 0.0) {
    cfg_.window_ms = Config{}.window_ms;
  }
  if (cfg_.capacity == 0) cfg_.capacity = Config{}.capacity;
  if (registry_ != nullptr) {
    // Baseline snapshot: deltas are measured against the registry's state at
    // timeline creation, so pre-run setup activity lands in window 0 rather
    // than inflating it retroactively.
    refresh_names();
    prev_counters_.resize(registry_->counter_count());
    for (MetricId i = 0; i < prev_counters_.size(); ++i) {
      prev_counters_[i] = registry_->counter_value(i);
    }
    prev_hists_.resize(registry_->histogram_count());
    for (MetricId i = 0; i < prev_hists_.size(); ++i) {
      const Histogram& h = registry_->histogram_at(i);
      prev_hists_[i].count = h.count();
      prev_hists_[i].sum = h.sum();
      prev_hists_[i].buckets.resize(h.bucket_count());
      for (std::size_t b = 0; b < h.bucket_count(); ++b) {
        prev_hists_[i].buckets[b] = h.bucket(b);
      }
    }
  }
}

void Timeline::refresh_names() {
  for (MetricId i = static_cast<MetricId>(counter_names_.size());
       i < registry_->counter_count(); ++i) {
    counter_names_.push_back(registry_->counter_name(i));
  }
  for (MetricId i = static_cast<MetricId>(gauge_names_.size());
       i < registry_->gauge_count(); ++i) {
    gauge_names_.push_back(registry_->gauge_name(i));
  }
  for (MetricId i = static_cast<MetricId>(hist_names_.size());
       i < registry_->histogram_count(); ++i) {
    hist_names_.push_back(registry_->histogram_name(i));
    hist_bounds_.push_back(registry_->histogram_at(i).bounds());
  }
}

void Timeline::advance_to(double t_ms) {
  // Window w covers [w*W, (w+1)*W); the number of fully-ended windows at
  // time t is floor(t / W).  The epsilon absorbs representation error when
  // t is an exact multiple of W; it is the same on every shard, so window
  // membership stays shard-count independent.
  close_through(
      static_cast<std::uint64_t>(std::floor(t_ms / cfg_.window_ms + 1e-9)));
}

void Timeline::flush(double t_ms) {
  close_through(
      static_cast<std::uint64_t>(std::floor(t_ms / cfg_.window_ms + 1e-9)) +
      1);
}

void Timeline::close_through(std::uint64_t target_closed) {
  assert(registry_ != nullptr && "merge-only timelines cannot sample");
  while (closed_ < target_closed) {
    close_one();
  }
}

void Timeline::close_one() {
  refresh_names();
  Window w;
  w.index = closed_;

  // All registry activity since the last close is attributed to this window:
  // after the first close in a batch the deltas are zero, so a burst of
  // boundary crossings between two distant events yields one active window
  // followed by empty ones -- exactly the shape of the simulated run.
  prev_counters_.resize(registry_->counter_count(), 0);
  w.counters.resize(registry_->counter_count());
  for (MetricId i = 0; i < w.counters.size(); ++i) {
    const std::uint64_t cur = registry_->counter_value(i);
    w.counters[i] = cur - prev_counters_[i];
    prev_counters_[i] = cur;
  }

  w.gauges.resize(registry_->gauge_count());
  for (MetricId i = 0; i < w.gauges.size(); ++i) {
    w.gauges[i] = registry_->gauge_value(i);
  }

  prev_hists_.resize(registry_->histogram_count());
  w.hists.resize(registry_->histogram_count());
  for (MetricId i = 0; i < w.hists.size(); ++i) {
    const Histogram& h = registry_->histogram_at(i);
    PrevHist& prev = prev_hists_[i];
    prev.buckets.resize(h.bucket_count(), 0);
    HistWindow& hw = w.hists[i];
    hw.count = h.count() - prev.count;
    hw.sum = h.sum() - prev.sum;
    hw.buckets.resize(h.bucket_count());
    for (std::size_t b = 0; b < h.bucket_count(); ++b) {
      hw.buckets[b] = h.bucket(b) - prev.buckets[b];
      prev.buckets[b] = h.bucket(b);
    }
    prev.count = h.count();
    prev.sum = h.sum();
  }

  if (trace_sink_ != nullptr) {
    const double end_us = static_cast<double>(w.index + 1) * cfg_.window_ms *
                          1000.0;
    for (MetricId i = 0; i < w.counters.size(); ++i) {
      if (w.counters[i] == 0) continue;
      trace_sink_->counter(counter_names_[i], end_us,
                           static_cast<double>(w.counters[i]), trace_track_);
    }
  }

  ring_.push_back(std::move(w));
  ++closed_;
  while (ring_.size() > cfg_.capacity) {
    ring_.pop_front();
    ++dropped_;
  }
  first_index_ = ring_.empty() ? closed_ : ring_.front().index;
}

std::vector<std::uint64_t> Timeline::counter_series(
    std::string_view name) const {
  std::size_t id = counter_names_.size();
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) {
      id = i;
      break;
    }
  }
  std::vector<std::uint64_t> out(ring_.size(), 0);
  if (id == counter_names_.size()) return out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (id < ring_[i].counters.size()) out[i] = ring_[i].counters[id];
  }
  return out;
}

void Timeline::merge_from(const Timeline& other) {
  assert(cfg_.window_ms == other.cfg_.window_ms);
  if (other.ring_.empty()) return;

  // Adopt / extend name tables.  Shard registries perform identical
  // registrations in identical order, so where tables overlap the names must
  // agree -- anything else is a cross-shard registration divergence.
  for (std::size_t i = 0; i < other.counter_names_.size(); ++i) {
    if (i < counter_names_.size()) {
      assert(counter_names_[i] == other.counter_names_[i]);
    } else {
      counter_names_.push_back(other.counter_names_[i]);
    }
  }
  for (std::size_t i = 0; i < other.gauge_names_.size(); ++i) {
    if (i < gauge_names_.size()) {
      assert(gauge_names_[i] == other.gauge_names_[i]);
    } else {
      gauge_names_.push_back(other.gauge_names_[i]);
    }
  }
  for (std::size_t i = 0; i < other.hist_names_.size(); ++i) {
    if (i < hist_names_.size()) {
      assert(hist_names_[i] == other.hist_names_[i]);
      assert(hist_bounds_[i] == other.hist_bounds_[i]);
    } else {
      hist_names_.push_back(other.hist_names_[i]);
      hist_bounds_.push_back(other.hist_bounds_[i]);
    }
  }

  // Pad this ring so it covers the union of both index ranges (gap windows
  // are all-zero), then fold other's windows in element-wise.
  const std::uint64_t lo =
      ring_.empty() ? other.first_index_
                    : std::min(first_index_, other.first_index_);
  const std::uint64_t hi_excl =
      ring_.empty() ? other.first_index_ + other.ring_.size()
                    : std::max(first_index_ + ring_.size(),
                               other.first_index_ + other.ring_.size());
  if (ring_.empty()) {
    for (std::uint64_t i = lo; i < hi_excl; ++i) {
      ring_.push_back(Window{i, {}, {}, {}});
    }
  } else {
    for (std::uint64_t i = first_index_; i-- > lo;) {
      ring_.push_front(Window{i, {}, {}, {}});
    }
    for (std::uint64_t i = first_index_ + ring_.size(); i < hi_excl; ++i) {
      ring_.push_back(Window{i, {}, {}, {}});
    }
  }
  first_index_ = lo;
  closed_ = std::max(closed_, other.closed_);
  dropped_ = std::max(dropped_, other.dropped_);

  for (const Window& ow : other.ring_) {
    Window& w = ring_[ow.index - first_index_];
    if (w.counters.size() < ow.counters.size()) {
      w.counters.resize(ow.counters.size(), 0);
    }
    for (std::size_t i = 0; i < ow.counters.size(); ++i) {
      w.counters[i] += ow.counters[i];
    }
    if (w.gauges.size() < ow.gauges.size()) w.gauges.resize(ow.gauges.size());
    for (std::size_t i = 0; i < ow.gauges.size(); ++i) {
      w.gauges[i] = std::max(w.gauges[i], ow.gauges[i]);
    }
    if (w.hists.size() < ow.hists.size()) w.hists.resize(ow.hists.size());
    for (std::size_t i = 0; i < ow.hists.size(); ++i) {
      HistWindow& hw = w.hists[i];
      const HistWindow& ohw = ow.hists[i];
      hw.count += ohw.count;
      hw.sum += ohw.sum;
      if (hw.buckets.size() < ohw.buckets.size()) {
        hw.buckets.resize(ohw.buckets.size(), 0);
      }
      for (std::size_t b = 0; b < ohw.buckets.size(); ++b) {
        hw.buckets[b] += ohw.buckets[b];
      }
    }
  }

  while (ring_.size() > cfg_.capacity) {
    ring_.pop_front();
    ++dropped_;
  }
  first_index_ = ring_.empty() ? closed_ : ring_.front().index;
}

std::string Timeline::to_jsonl() const {
  std::ostringstream os;
  for (const Window& w : ring_) {
    os << "{\"window\": " << w.index << ", \"t_ms\": "
       << static_cast<double>(w.index + 1) * cfg_.window_ms
       << ", \"counters\": {";
    bool first = true;
    for (std::size_t i = 0; i < w.counters.size(); ++i) {
      if (w.counters[i] == 0) continue;
      os << (first ? "" : ", ") << "\"";
      json_escape_into(os, counter_names_[i]);
      os << "\": " << w.counters[i];
      first = false;
    }
    os << "}, \"gauges\": {";
    first = true;
    for (std::size_t i = 0; i < w.gauges.size(); ++i) {
      if (w.gauges[i] == 0.0) continue;
      os << (first ? "" : ", ") << "\"";
      json_escape_into(os, gauge_names_[i]);
      os << "\": " << w.gauges[i];
      first = false;
    }
    os << "}, \"histograms\": {";
    first = true;
    for (std::size_t i = 0; i < w.hists.size(); ++i) {
      const HistWindow& hw = w.hists[i];
      if (hw.count == 0) continue;
      os << (first ? "" : ", ") << "\"";
      json_escape_into(os, hist_names_[i]);
      os << "\": {\"count\": " << hw.count << ", \"sum\": " << hw.sum
         << ", \"p50\": "
         << window_percentile(hist_bounds_[i], hw.buckets, hw.count, 0.5)
         << ", \"p90\": "
         << window_percentile(hist_bounds_[i], hw.buckets, hw.count, 0.9)
         << ", \"p99\": "
         << window_percentile(hist_bounds_[i], hw.buckets, hw.count, 0.99)
         << "}";
      first = false;
    }
    os << "}}\n";
  }
  return os.str();
}

void Timeline::set_trace_sink(Tracer* tracer, std::uint32_t track) {
  trace_sink_ = tracer;
  trace_track_ = track;
}

}  // namespace rofl::obs
