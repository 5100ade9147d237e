// Replay-layer properties (tests/prop/): on randomized topologies and
// demand matrices, (1) restore-then-continue is bit-identical to the
// uninterrupted run from any checkpoint round, (2) a corrupted newest
// checkpoint makes restore_latest fall back to the previous one
// deterministically (the `replay.restore` fault site injects the
// corruption), and (3) no single-byte corruption of a serialized
// checkpoint ever decodes as valid — the format's framing + CRCs catch
// every flip, without crashing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "prop/generators.hpp"
#include "prop/seeds.hpp"
#include "prop/invariants.hpp"
#include "replay/checkpoint.hpp"
#include "replay/driver.hpp"
#include "te/mcf_te.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

using replay::Checkpoint;
using replay::CheckpointStore;
using replay::Error;
using replay::ReplayConfig;
using replay::ReplayDriver;

// Default seed triple; the nightly sweep widens this via RWC_PROP_SEEDS
// (tests/prop/seeds.hpp).
const std::vector<std::uint64_t> kSeeds = prop::sweep_seeds({17, 29, 47});

struct ReplayFixture {
  graph::Graph topology;
  te::TrafficMatrix demands;
  ReplayConfig config;
};

ReplayFixture make_fixture(std::uint64_t seed) {
  util::Rng rng = util::Rng::stream(seed, 300);
  ReplayFixture fixture;
  fixture.topology = prop::random_topology(rng);
  fixture.demands = prop::random_demands(fixture.topology, rng);
  fixture.config.rounds = 12;
  fixture.config.chunk_rounds = 5;  // off-round-count chunking forces refills
  fixture.config.seed = seed;
  return fixture;
}

TEST(PropReplay, RestoreContinueMatchesUninterruptedRun) {
  const te::McfTe engine;
  for (const std::uint64_t seed : kSeeds) {
    const ReplayFixture fixture = make_fixture(seed);
    const std::string context = "seed " + std::to_string(seed);

    std::vector<prop::RoundSignature> reference;
    std::vector<Checkpoint> checkpoints;
    ReplayDriver driver(fixture.topology, engine, fixture.demands,
                        fixture.config);
    while (!driver.done()) {
      checkpoints.push_back(driver.checkpoint());  // one per round boundary
      reference.push_back(prop::signature_of(driver.step()));
    }

    for (std::size_t k = 0; k < checkpoints.size(); ++k) {
      ReplayDriver resumed(fixture.topology, engine, fixture.demands,
                           fixture.config);
      ASSERT_EQ(resumed.restore(checkpoints[k]), Error::kNone)
          << context << ", checkpoint " << k;
      for (std::size_t r = k; r < reference.size(); ++r) {
        const prop::InvariantResult check = prop::check_signatures_equal(
            reference[r], prop::signature_of(resumed.step()),
            context + ", checkpoint " + std::to_string(k) + ", round " +
                std::to_string(r));
        ASSERT_TRUE(check.ok) << check.detail;
      }
      ASSERT_EQ(resumed.signature_chain(), driver.signature_chain())
          << context << ", checkpoint " << k;
    }
  }
}

TEST(PropReplay, CorruptedNewestCheckpointFallsBackDeterministically) {
  const te::McfTe engine;
  for (const std::uint64_t seed : kSeeds) {
    const std::string context = "seed " + std::to_string(seed);
    const ReplayFixture fixture = make_fixture(seed);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("rwc-prop-replay-" + std::to_string(seed));
    std::filesystem::remove_all(dir);
    CheckpointStore store(dir, /*keep=*/4);

    std::vector<prop::RoundSignature> reference;
    ReplayDriver driver(fixture.topology, engine, fixture.demands,
                        fixture.config);
    Checkpoint at4, at8;
    while (!driver.done()) {
      if (driver.round() == 4) at4 = driver.checkpoint();
      if (driver.round() == 8) at8 = driver.checkpoint();
      reference.push_back(prop::signature_of(driver.step()));
    }
    ASSERT_EQ(store.write(at4), Error::kNone) << context;
    ASSERT_EQ(store.write(at8), Error::kNone) << context;

    const std::uint64_t rejected_before =
        obs::Registry::global().counter("replay.restore.rejected").value();
    ReplayDriver resumed(fixture.topology, engine, fixture.demands,
                         fixture.config);
    {
      // First read (the newest file, round 8) arrives truncated; the store
      // must fall back to the round-4 checkpoint, which reads clean.
      fault::ScopedPlan plan(
          fault::FaultPlan::parse("replay.restore@0:drop"));
      ASSERT_EQ(resumed.restore_latest(store), Error::kNone) << context;
    }
    ASSERT_EQ(resumed.round(), 4u) << context;
    EXPECT_GT(
        obs::Registry::global().counter("replay.restore.rejected").value(),
        rejected_before)
        << context;

    // The fallback continuation still matches the reference tail exactly.
    for (std::size_t r = 4; r < reference.size(); ++r) {
      const prop::InvariantResult check = prop::check_signatures_equal(
          reference[r], prop::signature_of(resumed.step()),
          context + ", round " + std::to_string(r));
      ASSERT_TRUE(check.ok) << check.detail;
    }
    ASSERT_EQ(resumed.signature_chain(), driver.signature_chain()) << context;
    std::filesystem::remove_all(dir);
  }
}

TEST(PropReplay, SingleByteFlipsNeverDecode) {
  const te::McfTe engine;
  for (const std::uint64_t seed : kSeeds) {
    const ReplayFixture fixture = make_fixture(seed);
    // ReplayDriver writes mandatory sections only, so every byte is
    // load-bearing: with an optional section present, one flip of its id
    // could in principle re-tag it as skippable-unknown and still decode.
    ReplayDriver driver(fixture.topology, engine, fixture.demands,
                        fixture.config);
    driver.run(3);
    const std::vector<std::byte> bytes = replay::encode(driver.checkpoint());

    util::Rng rng = util::Rng::stream(seed, 301);
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t offset = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bytes.size()) - 1));
      const std::byte flip{
          static_cast<unsigned char>(rng.uniform_int(1, 255))};
      std::vector<std::byte> corrupted = bytes;
      corrupted[offset] ^= flip;
      Checkpoint out;
      const Error error = replay::decode(corrupted, out);
      EXPECT_NE(error, Error::kNone)
          << "seed " << seed << ": flipping byte " << offset << " with 0x"
          << std::hex << std::to_integer<int>(flip)
          << " decoded as a valid checkpoint";
    }
  }
}

}  // namespace
}  // namespace rwc
