#include "serve/ingest.hpp"

#include <chrono>
#include <limits>
#include <thread>

#include "fault/registry.hpp"
#include "obs/registry.hpp"

namespace rwc::serve {

namespace {

/// Handles into the global registry (docs/OBSERVABILITY.md: serve.ingest.*).
struct IngestMetrics {
  obs::Counter& offered;
  obs::Counter& accepted;
  obs::Counter& dropped;
  obs::Gauge& queue_depth;

  static IngestMetrics& instance() {
    static auto& registry = obs::Registry::global();
    static IngestMetrics metrics{
        registry.counter("serve.ingest.offered"),
        registry.counter("serve.ingest.accepted"),
        registry.counter("serve.ingest.dropped"),
        registry.gauge("serve.queue.depth"),
    };
    return metrics;
  }
};

/// Deterministic `serve.ingest` evaluation key: what the event targets,
/// never when or from which thread it arrived.
std::uint64_t fault_key(const IngestEvent& event) {
  return (static_cast<std::uint64_t>(event.type) << 32) |
         static_cast<std::uint64_t>(event.index);
}

}  // namespace

IngestQueue::IngestQueue(std::size_t capacity, ShedPolicy shed)
    : capacity_(capacity == 0 ? 1 : capacity), shed_(shed) {}

bool IngestQueue::offer(IngestEvent event) {
  IngestMetrics& metrics = IngestMetrics::instance();
  offered_.fetch_add(1, std::memory_order_relaxed);
  metrics.offered.add();

  // Fault site: perturb the event BEFORE it can be recorded, so the ingest
  // log only ever holds what the service really consumed.
  if (const fault::Action action = fault::at("serve.ingest", fault_key(event))) {
    switch (action.kind) {
      case fault::Kind::kDrop:
        dropped_.fetch_add(1, std::memory_order_relaxed);
        metrics.dropped.add();
        return false;
      case fault::Kind::kGarbage:
        // Wildly out-of-range value; apply-time sanitization must tame it
        // identically live and on replay.
        event.value = (action.magnitude != 0.0 ? action.magnitude : 1.0) * 1e12;
        break;
      case fault::Kind::kNan:
        event.value = std::numeric_limits<double>::quiet_NaN();
        break;
      case fault::Kind::kStall:
        std::this_thread::sleep_for(std::chrono::duration<double>(
            action.magnitude != 0.0 ? action.magnitude : 0.01));
        break;
      default:
        break;  // kinds this site does not understand are ignored
    }
  }

  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (events_.size() >= capacity_) {
      if (shed_ == ShedPolicy::kDropNewest) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        metrics.dropped.add();
        metrics.queue_depth.set(static_cast<double>(events_.size()));
        return false;
      }
      events_.pop_front();
      dropped_.fetch_add(1, std::memory_order_relaxed);
      metrics.dropped.add();
    }
    events_.push_back(event);
    depth = events_.size();
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  metrics.accepted.add();
  metrics.queue_depth.set(static_cast<double>(depth));
  return true;
}

std::vector<IngestEvent> IngestQueue::drain() {
  std::vector<IngestEvent> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.assign(events_.begin(), events_.end());
    events_.clear();
  }
  IngestMetrics::instance().queue_depth.set(0.0);
  return out;
}

std::size_t IngestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

}  // namespace rwc::serve
