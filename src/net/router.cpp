#include "net/router.hpp"

namespace rofl::net {

LiveRouter::LiveRouter(LiveRouterConfig cfg, Transport* transport)
    : cfg_(cfg), transport_(transport) {
  // Registration order is the merge contract: every router registers the
  // same names in the same order, so dense MetricIds line up across
  // registries and timelines (obs::Registry::merge_from discipline).
  // Transport counters first, then the core's protocol counters, then the
  // fault injector's faults.* block.
  tx_frames_ = registry_.counter("net.tx.frames");
  tx_bytes_ = registry_.counter("net.tx.bytes");
  rx_frames_ = registry_.counter("net.rx.frames");
  rx_bytes_ = registry_.counter("net.rx.bytes");
  dedup_dropped_ = registry_.counter("net.rx.dedup_dropped");
  ring_dropped_ = registry_.counter("net.rx.ring_dropped");
  malformed_ = registry_.counter("net.rx.malformed");
  throttle_waits_ = registry_.counter("net.tx.throttle_waits");

  core_.emplace(cfg_, static_cast<proto::Env&>(*this));

  // Always constructed (registration order again); a no-fault plan makes
  // message_faults_enabled() false and the transport takes its fast path.
  sim::FaultPlan plan;
  plan.defaults = cfg_.conditions;
  injector_ = std::make_unique<sim::FaultInjector>(plan, cfg_.fault_seed,
                                                   &registry_);
  transport_->set_fault_injector(injector_.get());

  if (cfg_.timeline_window_ms > 0.0) {
    obs::Timeline::Config tc;
    tc.window_ms = cfg_.timeline_window_ms;
    timeline_ = std::make_unique<obs::Timeline>(&registry_, tc);
  }
}

bool LiveRouter::poll_harness(RxFrame& out) {
  if (harness_rx_.empty()) return false;
  out = std::move(harness_rx_.front());
  harness_rx_.pop_front();
  return true;
}

void LiveRouter::sample_transport_stats() {
  const TransportStats& s = transport_->stats();
  registry_.set_counter(tx_frames_, s.tx_frames);
  registry_.set_counter(tx_bytes_, s.tx_bytes);
  registry_.set_counter(rx_frames_, s.rx_frames);
  registry_.set_counter(rx_bytes_, s.rx_bytes);
  registry_.set_counter(dedup_dropped_, s.dedup_dropped);
  registry_.set_counter(ring_dropped_, s.ring_dropped);
  registry_.set_counter(malformed_, s.malformed);
  registry_.set_counter(throttle_waits_, s.throttle_waits);
}

void LiveRouter::step(double now_ms) {
  const double slice_end = now_ms + kSliceMs;
  RxFrame rx;  // the step's passes share one receive buffer
  for (;;) {
    pass(now_ms, rx);
    if (core_->quiescent() || now_ms >= slice_end) return;
    const std::optional<double> woke = transport_->wait(slice_end);
    if (!woke.has_value()) return;
    now_ms = *woke;
  }
}

void LiveRouter::pass(double now_ms, RxFrame& rx) {
  // Sample before the timeline advances so each window sees the pump
  // counters as of its own close, not the end of the run.
  sample_transport_stats();
  if (timeline_ != nullptr) timeline_->advance_to(now_ms);
  transport_->pump(now_ms);

  while (transport_->poll(rx)) {
    if (rx.op != PumpOp::kData) {
      harness_rx_.push_back(std::move(rx));
      continue;
    }
    core_->on_frame(rx.frame, now_ms);
  }

  core_->tick(now_ms);
}

void LiveRouter::finish(double now_ms) {
  sample_transport_stats();
  if (timeline_ != nullptr) timeline_->flush(now_ms);
}

}  // namespace rofl::net
