// Streaming telemetry ingestion (rwc::serve).
//
// Producers — telemetry collectors, operator tooling, test drivers — push
// IngestEvents into a bounded multi-producer queue; the single serving
// thread drains the queue once per round. The queue is deliberately
// bounded: when producers outrun the control loop the configured
// ShedPolicy decides which events to drop, and every shed is counted
// (serve.ingest.dropped) rather than silently absorbed — backpressure is
// part of the contract, not a failure (docs/SERVE.md, "Backpressure").
//
// Determinism note: arrival order into the queue is NOT deterministic
// under concurrency, and does not need to be. The service's determinism
// contract is over the RECORDED ingest log — whatever batch a round drains
// is recorded before it is applied, so a replay of the log reproduces the
// run bit-identically regardless of how racy the original arrivals were
// (docs/SERVE.md, "Determinism over the ingest log").
//
// Fault sites (docs/FAULTS.md): `serve.ingest` is evaluated in offer(),
// keyed deterministically by (type, index) — kDrop loses the event before
// it reaches the queue, kGarbage corrupts the value in flight, kStall
// sleeps the producer. All three fire BEFORE the event can be recorded,
// which is what keeps live-with-faults == replay-without-faults.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

namespace rwc::serve {

/// What an ingest event updates.
enum class IngestType : std::uint8_t {
  kSnr = 0,     ///< per-link SNR sample; index = edge id, value = dB
  kDemand = 1,  ///< demand volume update; index = demand slot, value = Gbps
};

/// One telemetry / intent update. Raw as offered — sanitization (NaN /
/// out-of-range clamping) happens deterministically at apply time, after
/// recording, so live and replay sanitize the same bytes.
struct IngestEvent {
  IngestType type = IngestType::kSnr;
  std::uint32_t index = 0;
  double value = 0.0;

  friend bool operator==(const IngestEvent&, const IngestEvent&) = default;
};

/// What to do when the queue is full (docs/SERVE.md, "Backpressure").
enum class ShedPolicy : std::uint8_t {
  /// Reject the incoming event (producer-visible: offer() returns false).
  kDropNewest = 0,
  /// Evict the oldest queued event to make room; offer() returns true.
  kDropOldest = 1,
};

/// Bounded MPSC event queue. Any number of producer threads may offer()
/// concurrently; exactly one consumer drains. Mutex-guarded — the queue is
/// touched a handful of times per round, never on the epoch read path.
class IngestQueue {
 public:
  IngestQueue(std::size_t capacity, ShedPolicy shed);

  /// Offers one event. Evaluates the `serve.ingest` fault site first (see
  /// file header); a full queue applies the shed policy. Returns whether
  /// the event was enqueued. Thread-safe.
  bool offer(IngestEvent event);

  /// Removes and returns all queued events, oldest first. Single consumer.
  std::vector<IngestEvent> drain();

  std::size_t depth() const;
  std::size_t capacity() const { return capacity_; }
  ShedPolicy shed_policy() const { return shed_; }

  /// Producer-side accounting since construction (also exported as
  /// serve.ingest.* registry counters — these locals exist so tests can
  /// assert per-queue without registry resets).
  std::uint64_t offered() const {
    return offered_.load(std::memory_order_relaxed);
  }
  std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Events lost to shedding or an injected drop fault.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t capacity_;
  const ShedPolicy shed_;
  mutable std::mutex mutex_;
  std::deque<IngestEvent> events_;
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Per-round record of what the service actually consumed: batch r holds
/// the events round r drained, in the drain order the round applied them.
/// Feeding the batches back through ServeService::step(batch) reproduces
/// the run bit-identically (the determinism contract's replay side).
/// Stored flat, one event array plus each round's end offset, so a long
/// run costs two growing arrays rather than one heap block per round.
class IngestLog {
 public:
  /// `batch` must not point into this log.
  void append(std::span<const IngestEvent> batch) {
    events_.insert(events_.end(), batch.begin(), batch.end());
    ends_.push_back(events_.size());
  }

  std::size_t rounds() const { return ends_.size(); }
  /// Valid until the next append().
  std::span<const IngestEvent> batch(std::size_t round) const {
    const std::size_t begin = round == 0 ? 0 : ends_[round - 1];
    return std::span<const IngestEvent>(events_).subspan(
        begin, ends_[round] - begin);
  }
  std::size_t total_events() const { return events_.size(); }

  friend bool operator==(const IngestLog&, const IngestLog&) = default;

 private:
  std::vector<IngestEvent> events_;
  std::vector<std::size_t> ends_;
};

}  // namespace rwc::serve
