// Tests for the serve control-plane state machine (serve/service.hpp):
// ingest backpressure and sanitization, epoch publication, determinism
// over the recorded log, and checkpoint/restore round-trips. Concurrent
// stress lives in tests/serve/ (tier2).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "exec/rcu.hpp"
#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "serve/service.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "util/rng.hpp"

namespace rwc::serve {
namespace {

struct Fixture {
  graph::Graph topology;
  te::TrafficMatrix demands;
  te::McfTe engine;

  Fixture() {
    util::Rng topo_rng = util::Rng::stream(99, 0);
    topology = sim::waxman(8, topo_rng);
    util::Rng demand_rng = util::Rng::stream(99, 1);
    sim::GravityParams gravity;
    gravity.total = util::Gbps{topology.total_capacity().value * 0.3};
    demands = sim::gravity_matrix(topology, gravity, demand_rng);
  }

  ServeService make(ServeConfig config = ServeConfig{}) const {
    return ServeService(topology, engine, demands, config);
  }
};

TEST(ServeIngest, BoundedQueueShedsOldestByDefault) {
  IngestQueue queue(/*capacity=*/3, ShedPolicy::kDropOldest);
  for (std::uint32_t i = 0; i < 5; ++i)
    EXPECT_TRUE(queue.offer({IngestType::kSnr, i, 10.0}));
  EXPECT_EQ(queue.depth(), 3u);
  EXPECT_EQ(queue.dropped(), 2u);
  const std::vector<IngestEvent> drained = queue.drain();
  ASSERT_EQ(drained.size(), 3u);
  // Oldest two were evicted: indices 2, 3, 4 remain in FIFO order.
  EXPECT_EQ(drained[0].index, 2u);
  EXPECT_EQ(drained[2].index, 4u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(ServeIngest, DropNewestRejectsTheIncomingEvent) {
  IngestQueue queue(/*capacity=*/2, ShedPolicy::kDropNewest);
  EXPECT_TRUE(queue.offer({IngestType::kSnr, 0, 10.0}));
  EXPECT_TRUE(queue.offer({IngestType::kSnr, 1, 10.0}));
  EXPECT_FALSE(queue.offer({IngestType::kSnr, 2, 10.0}));
  const std::vector<IngestEvent> drained = queue.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[1].index, 1u);
}

TEST(ServeService, StepPublishesConsistentMonotoneEpochs) {
  const Fixture fixture;
  ServeService service = fixture.make();
  exec::RcuReader reader(service.rcu_domain());
  {
    exec::RcuGuard<PlanEpoch> before(service.epoch_cell(), reader);
    EXPECT_FALSE(before);  // nothing published yet
  }
  service.step();
  service.queue().offer({IngestType::kSnr, 0, 6.0});
  service.step();
  exec::RcuGuard<PlanEpoch> epoch(service.epoch_cell(), reader);
  ASSERT_TRUE(epoch);
  EXPECT_EQ(epoch->epoch, 2u);
  EXPECT_EQ(epoch->round, 1u);
  EXPECT_TRUE(epoch->consistent());
  EXPECT_EQ(epoch->capacity_gbps.size(), fixture.topology.edge_count());
  EXPECT_EQ(epoch->signature_chain, service.signature_chain());
}

TEST(ServeService, SanitizationClampsGarbageAndKeepsStateOnNan) {
  const Fixture fixture;
  ServeService service = fixture.make();
  const double before = service.link_snr()[1].value;
  service.queue().offer(
      {IngestType::kSnr, 1, std::numeric_limits<double>::quiet_NaN()});
  service.queue().offer({IngestType::kSnr, 2, 1.0e12});
  service.queue().offer({IngestType::kSnr, 3, -500.0});
  service.queue().offer({IngestType::kDemand, 0, -8.0});
  // Unroutable index: deterministically ignored, never UB.
  service.queue().offer({IngestType::kSnr, 1u << 30, 12.0});
  service.step();
  EXPECT_EQ(service.link_snr()[1].value, before);  // NaN carried nothing
  EXPECT_EQ(service.link_snr()[2].value, 40.0);    // clamped to ceiling
  EXPECT_EQ(service.link_snr()[3].value, -10.0);   // clamped to floor
  EXPECT_EQ(service.demands()[0].volume.value, 0.0);
}

TEST(ServeService, ReplayingTheRecordedLogReproducesTheChain) {
  const Fixture fixture;
  ServeService live = fixture.make();
  util::Rng rng = util::Rng::stream(7, 0);
  for (int round = 0; round < 6; ++round) {
    const int events = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < events; ++i)
      live.queue().offer(
          {IngestType::kSnr,
           static_cast<std::uint32_t>(rng.uniform_int(
               0, static_cast<std::int64_t>(
                      fixture.topology.edge_count()) - 1)),
           rng.uniform(4.0, 20.0)});
    live.step();
  }

  ServeService replayed = fixture.make();
  for (std::size_t round = 0; round < live.log().rounds(); ++round)
    replayed.step(live.log().batch(round));
  EXPECT_EQ(replayed.round(), live.round());
  EXPECT_EQ(replayed.signature_chain(), live.signature_chain());
  // The replayed service's own log must equal the live log (a second-order
  // replay would reproduce again).
  EXPECT_EQ(replayed.log(), live.log());
}

TEST(ServeService, FaultedIngestIsAbsorbedByTheLogContract) {
  const Fixture fixture;
  ServeService live = fixture.make();
  {
    // Drop every third offer and corrupt one: the log only ever holds what
    // the service consumed, so a fault-free replay still matches.
    fault::ScopedPlan plan(fault::FaultPlan::parse(
        "serve.ingest%3@0:drop;serve.ingest%5@1:garbage"));
    for (std::uint32_t i = 0; i < 12; ++i)
      live.queue().offer({IngestType::kSnr, i % 4, 8.0 + i});
    live.step();
    live.step();
  }
  ServeService replayed = fixture.make();
  for (std::size_t round = 0; round < live.log().rounds(); ++round)
    replayed.step(live.log().batch(round));
  EXPECT_EQ(replayed.signature_chain(), live.signature_chain());
}

TEST(ServeService, CheckpointRestoreContinuesBitIdentically) {
  const Fixture fixture;
  ServeService reference = fixture.make();
  ServeService restored = fixture.make();

  auto batch_for = [&](std::uint64_t round) {
    std::vector<IngestEvent> batch;
    util::Rng round_rng = util::Rng::stream(11, 100 + round);
    const int events = static_cast<int>(round_rng.uniform_int(1, 3));
    for (int i = 0; i < events; ++i)
      batch.push_back(
          {IngestType::kSnr,
           static_cast<std::uint32_t>(round_rng.uniform_int(
               0, static_cast<std::int64_t>(
                      fixture.topology.edge_count()) - 1)),
           round_rng.uniform(4.0, 20.0)});
    return batch;
  };

  for (std::uint64_t round = 0; round < 4; ++round)
    reference.step(batch_for(round));
  const replay::Checkpoint checkpoint = reference.checkpoint();
  for (std::uint64_t round = 4; round < 8; ++round)
    reference.step(batch_for(round));

  ASSERT_EQ(restored.restore(checkpoint), replay::Error::kNone);
  EXPECT_EQ(restored.round(), 4u);
  for (std::uint64_t round = 4; round < 8; ++round)
    restored.step(batch_for(round));
  EXPECT_EQ(restored.signature_chain(), reference.signature_chain());
  EXPECT_EQ(restored.epochs_published(), reference.epochs_published());
}

TEST(ServeService, CheckpointSurvivesTheWireFormat) {
  const Fixture fixture;
  ServeService service = fixture.make();
  service.queue().offer({IngestType::kSnr, 0, 9.5});
  service.step();
  service.step();

  const replay::Checkpoint checkpoint = service.checkpoint();
  const std::vector<std::byte> bytes = replay::encode(checkpoint);
  replay::Checkpoint decoded;
  ASSERT_EQ(replay::decode(bytes, decoded), replay::Error::kNone);
  EXPECT_TRUE(decoded.serve_present);
  EXPECT_EQ(decoded.serve_payload, checkpoint.serve_payload);

  ServeService restored = fixture.make();
  ASSERT_EQ(restored.restore(decoded), replay::Error::kNone);
  EXPECT_EQ(restored.round(), service.round());
  EXPECT_EQ(restored.signature_chain(), service.signature_chain());
  EXPECT_EQ(restored.link_snr()[0].value, service.link_snr()[0].value);
}

TEST(ServeService, RestoreRejectsForeignAndServelessCheckpoints) {
  const Fixture fixture;
  ServeService service = fixture.make();
  service.step();
  replay::Checkpoint checkpoint = service.checkpoint();

  ServeService other = fixture.make();
  replay::Checkpoint foreign = checkpoint;
  foreign.config_fingerprint ^= 1;
  EXPECT_EQ(other.restore(foreign), replay::Error::kConfigMismatch);

  replay::Checkpoint serveless = checkpoint;
  serveless.serve_present = false;
  EXPECT_EQ(other.restore(serveless), replay::Error::kMissingSection);

  replay::Checkpoint truncated = checkpoint;
  truncated.serve_payload.resize(truncated.serve_payload.size() / 2);
  EXPECT_EQ(other.restore(truncated), replay::Error::kMalformed);
  // Rejected restores leave the service untouched.
  EXPECT_EQ(other.round(), 0u);
}

TEST(ServeService, RestoreRejectsHysteresisStateOfTheWrongLength) {
  // A checkpoint whose hysteresis vectors are one link short still
  // decodes; restore must reject it as kMalformed before it writes
  // anything, leaving round, chain and capacities as they were.
  const Fixture fixture;
  ServeConfig config;
  config.hysteresis = core::HysteresisParams{};
  ServeService source = fixture.make(config);
  source.step();
  replay::Checkpoint short_state = source.checkpoint();
  short_state.controller.hysteresis->candidate.pop_back();
  short_state.controller.hysteresis->streak.pop_back();
  replay::Checkpoint decoded;
  ASSERT_EQ(replay::decode(replay::encode(short_state), decoded),
            replay::Error::kNone);

  ServeService service = fixture.make(config);
  service.queue().offer({IngestType::kSnr, 0, 6.0});  // 50 G on link 0
  service.step();
  service.step();
  const std::uint64_t round = service.round();
  const std::uint64_t chain = service.signature_chain();
  const std::span<const util::Gbps> live =
      service.controller().configured_capacities();
  const std::vector<util::Gbps> capacities(live.begin(), live.end());
  ASSERT_NE(capacities, decoded.controller.configured);

  EXPECT_EQ(service.restore(decoded), replay::Error::kMalformed);
  EXPECT_EQ(service.round(), round);
  EXPECT_EQ(service.signature_chain(), chain);
  const std::span<const util::Gbps> after =
      service.controller().configured_capacities();
  EXPECT_EQ(std::vector<util::Gbps>(after.begin(), after.end()), capacities);
}

TEST(ServeService, RestoreRejectsPathsThroughUnknownEdges) {
  // A last assignment routed over an edge id past the topology would be
  // indexed by the next round's update schedule; restore rejects it.
  const Fixture fixture;
  ServeConfig config;
  config.update = update::SchedulerConfig{};
  ServeService source = fixture.make(config);
  source.step();
  replay::Checkpoint foreign = source.checkpoint();
  bool planted = false;
  for (auto& routing : foreign.controller.last_assignment.routings)
    for (auto& [path, volume] : routing.paths)
      if (!planted && !path.edges.empty()) {
        path.edges.back() = graph::EdgeId{1 << 20};
        planted = true;
      }
  ASSERT_TRUE(planted);
  replay::Checkpoint decoded;
  ASSERT_EQ(replay::decode(replay::encode(foreign), decoded),
            replay::Error::kNone);

  ServeService service = fixture.make(config);
  EXPECT_EQ(service.restore(decoded), replay::Error::kMalformed);
  EXPECT_EQ(service.round(), 0u);
  service.step();  // the untouched service still runs
  EXPECT_EQ(service.signature_chain(), source.signature_chain());
}

// The controller executes each validated schedule inside the round, before
// the epoch publishes. With every commit failing, each non-empty schedule
// aborts (update.exec.aborts counts them) and the chain is the fault-free
// run's.
TEST(ServeService, AbortedTransitionsLeaveTheChainUnchanged) {
  const Fixture fixture;
  ServeConfig config;
  config.update = update::SchedulerConfig{};
  const auto run = [&](std::size_t& aborted) {
    ServeService service = fixture.make(config);
    util::Rng rng = util::Rng::stream(11, 0);
    for (int round = 0; round < 8; ++round) {
      service.queue().offer(
          {IngestType::kSnr,
           static_cast<std::uint32_t>(rng.uniform_int(
               0, static_cast<std::int64_t>(
                      fixture.topology.edge_count()) - 1)),
           rng.uniform(4.0, 20.0)});
      const ServeService::RoundReport report = service.step();
      EXPECT_EQ(report.execution.has_value(), report.update_valid)
          << "round " << round;
      if (report.execution.has_value() && report.execution->aborted)
        ++aborted;
    }
    return service.signature_chain();
  };
  std::size_t clean_aborts = 0;
  const std::uint64_t clean = run(clean_aborts);
  const obs::Counter& aborts =
      obs::Registry::global().counter("update.exec.aborts");
  const std::uint64_t before = aborts.value();
  std::size_t faulted_aborts = 0;
  std::uint64_t faulted = 0;
  {
    fault::ScopedPlan armed(fault::FaultPlan::parse("update.commit%1@0:fail"));
    faulted = run(faulted_aborts);
  }
  EXPECT_EQ(clean_aborts, 0u);
  EXPECT_GT(faulted_aborts, 0u);
  EXPECT_EQ(aborts.value() - before, faulted_aborts);
  EXPECT_EQ(faulted, clean);
}

TEST(ServeService, FingerprintSeparatesConfigsButNotTuningKnobs) {
  const Fixture fixture;
  ServeConfig base;
  const ServeService a = fixture.make(base);

  ServeConfig margin = base;
  margin.snr_margin = util::Db{1.5};
  EXPECT_NE(fixture.make(margin).config_fingerprint(),
            a.config_fingerprint());

  ServeConfig tuning = base;
  tuning.queue_capacity = 7;
  tuning.shed = ShedPolicy::kDropNewest;
  tuning.incremental = !base.incremental;
  tuning.max_readers = 3;
  EXPECT_EQ(fixture.make(tuning).config_fingerprint(),
            a.config_fingerprint());
}

}  // namespace
}  // namespace rwc::serve
