// Checkpoint format tests (rwc::replay): round-trip fidelity for every
// section, typed rejection of every corruption class the format defends
// against (bad magic/version, truncation at any byte, CRC-detected bit
// rot, missing mandatory sections), skipping of retired sections, file IO,
// the replay.restore fault site, and CheckpointStore rotation +
// deterministic fallback.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "replay/checkpoint.hpp"
#include "support/checkpoint_splice.hpp"

namespace rwc {
namespace {

using replay::Checkpoint;
using replay::CheckpointStore;
using replay::Error;

/// A checkpoint exercising every section with non-default content; the
/// optional serve section only `with_serve`.
Checkpoint sample_checkpoint(bool with_serve = true) {
  Checkpoint ck;
  ck.config_fingerprint = 0xFEEDFACECAFEBEEFull;
  ck.round = 40;
  ck.chunk_base_round = 32;
  ck.signature_chain = 0x123456789ABCDEF0ull;
  ck.metrics.offered_gbps_hours = 1234.5;
  ck.metrics.delivered_gbps_hours = 1200.25;
  ck.metrics.availability = 39.875;  // running sum
  ck.metrics.link_failures = 3;
  ck.metrics.link_flaps = 7;
  ck.metrics.upgrades = 11;
  ck.metrics.restorations = 2;
  ck.metrics.lock_failures = 0;
  ck.metrics.reconfig_downtime_hours = 0.75;
  ck.metrics.te_rounds = 40;

  ck.controller.configured = {util::Gbps{100.0}, util::Gbps{150.0}};
  core::HysteresisFilter::State hysteresis;
  hysteresis.candidate = {util::Gbps{200.0}, util::Gbps{0.0}};
  hysteresis.streak = {2, 0};
  ck.controller.hysteresis = hysteresis;
  te::FlowAssignment assignment;
  te::FlowAssignment::DemandRouting routing;
  routing.demand = {graph::NodeId{0}, graph::NodeId{1}, util::Gbps{42.0}, 1};
  graph::Path path;
  path.edges = {graph::EdgeId{0}, graph::EdgeId{1}};
  path.weight = 2.0;
  routing.paths.emplace_back(path, util::Gbps{42.0});
  routing.routed = util::Gbps{42.0};
  assignment.routings.push_back(routing);
  assignment.edge_load_gbps = {42.0, 42.0};
  assignment.total_routed = util::Gbps{42.0};
  assignment.total_cost = 0.25;
  ck.controller.last_assignment = assignment;
  ck.controller.last_traffic = {42.0, 42.0};
  ck.controller.last_snr = {util::Db{14.5}, util::Db{6.25}};

  for (int e = 0; e < 2; ++e) {
    telemetry::SnrTraceCursor::State cursor;
    cursor.position = 32;
    cursor.rng.engine = {0x1111ull + static_cast<std::uint64_t>(e), 0x2222ull,
                         0x3333ull, 0x4444ull};
    cursor.rng.cached_normal = 0.5;
    cursor.rng.has_cached_normal = (e == 0);
    ck.cursors.push_back(cursor);
  }

  ck.latency_rng.engine = {1, 2, 3, 4};
  ck.latency_rng.cached_normal = -1.25;
  ck.latency_rng.has_cached_normal = true;

  if (with_serve) {
    ck.serve_present = true;
    for (int i = 0; i < 19; ++i)
      ck.serve_payload.push_back(static_cast<std::byte>(i * 41 + 3));
  }
  return ck;
}

void expect_checkpoints_equal(const Checkpoint& a, const Checkpoint& b) {
  EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.chunk_base_round, b.chunk_base_round);
  EXPECT_EQ(a.signature_chain, b.signature_chain);
  EXPECT_EQ(a.metrics.offered_gbps_hours, b.metrics.offered_gbps_hours);
  EXPECT_EQ(a.metrics.delivered_gbps_hours, b.metrics.delivered_gbps_hours);
  EXPECT_EQ(a.metrics.availability, b.metrics.availability);
  EXPECT_EQ(a.metrics.link_failures, b.metrics.link_failures);
  EXPECT_EQ(a.metrics.link_flaps, b.metrics.link_flaps);
  EXPECT_EQ(a.metrics.upgrades, b.metrics.upgrades);
  EXPECT_EQ(a.metrics.restorations, b.metrics.restorations);
  EXPECT_EQ(a.metrics.lock_failures, b.metrics.lock_failures);
  EXPECT_EQ(a.metrics.reconfig_downtime_hours,
            b.metrics.reconfig_downtime_hours);
  EXPECT_EQ(a.metrics.te_rounds, b.metrics.te_rounds);

  ASSERT_EQ(a.controller.configured.size(), b.controller.configured.size());
  for (std::size_t i = 0; i < a.controller.configured.size(); ++i)
    EXPECT_EQ(a.controller.configured[i].value,
              b.controller.configured[i].value);
  ASSERT_EQ(a.controller.hysteresis.has_value(),
            b.controller.hysteresis.has_value());
  if (a.controller.hysteresis.has_value()) {
    ASSERT_EQ(a.controller.hysteresis->candidate.size(),
              b.controller.hysteresis->candidate.size());
    for (std::size_t i = 0; i < a.controller.hysteresis->candidate.size();
         ++i) {
      EXPECT_EQ(a.controller.hysteresis->candidate[i].value,
                b.controller.hysteresis->candidate[i].value);
      EXPECT_EQ(a.controller.hysteresis->streak[i],
                b.controller.hysteresis->streak[i]);
    }
  }
  const te::FlowAssignment& aa = a.controller.last_assignment;
  const te::FlowAssignment& ba = b.controller.last_assignment;
  ASSERT_EQ(aa.routings.size(), ba.routings.size());
  for (std::size_t r = 0; r < aa.routings.size(); ++r) {
    EXPECT_EQ(aa.routings[r].demand.src, ba.routings[r].demand.src);
    EXPECT_EQ(aa.routings[r].demand.dst, ba.routings[r].demand.dst);
    EXPECT_EQ(aa.routings[r].demand.volume.value,
              ba.routings[r].demand.volume.value);
    EXPECT_EQ(aa.routings[r].demand.priority, ba.routings[r].demand.priority);
    ASSERT_EQ(aa.routings[r].paths.size(), ba.routings[r].paths.size());
    for (std::size_t p = 0; p < aa.routings[r].paths.size(); ++p) {
      EXPECT_EQ(aa.routings[r].paths[p].first.edges,
                ba.routings[r].paths[p].first.edges);
      EXPECT_EQ(aa.routings[r].paths[p].first.weight,
                ba.routings[r].paths[p].first.weight);
      EXPECT_EQ(aa.routings[r].paths[p].second.value,
                ba.routings[r].paths[p].second.value);
    }
    EXPECT_EQ(aa.routings[r].routed.value, ba.routings[r].routed.value);
  }
  EXPECT_EQ(aa.edge_load_gbps, ba.edge_load_gbps);
  EXPECT_EQ(aa.total_routed.value, ba.total_routed.value);
  EXPECT_EQ(aa.total_cost, ba.total_cost);
  EXPECT_EQ(a.controller.last_traffic, b.controller.last_traffic);
  ASSERT_EQ(a.controller.last_snr.size(), b.controller.last_snr.size());
  for (std::size_t i = 0; i < a.controller.last_snr.size(); ++i)
    EXPECT_EQ(a.controller.last_snr[i].value, b.controller.last_snr[i].value);

  ASSERT_EQ(a.cursors.size(), b.cursors.size());
  for (std::size_t i = 0; i < a.cursors.size(); ++i)
    EXPECT_EQ(a.cursors[i], b.cursors[i]);
  EXPECT_EQ(a.latency_rng, b.latency_rng);

  EXPECT_EQ(a.serve_present, b.serve_present);
  EXPECT_EQ(a.serve_payload, b.serve_payload);
}

/// Scratch directory per test, removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("rwc-replay-test-" + name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(ReplayCheckpoint, Crc32KnownAnswer) {
  const char digits[] = "123456789";
  EXPECT_EQ(replay::crc32(std::as_bytes(std::span(digits, 9))), 0xCBF43926u);
}

TEST(ReplayCheckpoint, EncodeDecodeRoundTripsAllSections) {
  const Checkpoint original = sample_checkpoint();
  const std::vector<std::byte> bytes = replay::encode(original);
  Checkpoint decoded;
  ASSERT_EQ(replay::decode(bytes, decoded), Error::kNone)
      << "a freshly encoded checkpoint must decode";
  expect_checkpoints_equal(original, decoded);
}

TEST(ReplayCheckpoint, ColdCacheMarkerRoundTrips) {
  // Absent optional sections decode as absent, not as empty payloads.
  const Checkpoint original = sample_checkpoint(/*with_serve=*/false);
  const std::vector<std::byte> bytes = replay::encode(original);
  Checkpoint decoded;
  ASSERT_EQ(replay::decode(bytes, decoded), Error::kNone);
  expect_checkpoints_equal(original, decoded);
  EXPECT_FALSE(decoded.serve_present);
  EXPECT_FALSE(decoded.demand_present);
}

TEST(ReplayCheckpoint, RetiredCacheSectionsAreSkipped) {
  // Earlier builds wrote engine caches under ids 5 and 6 and the obs,
  // update and dataplane sections under ids 7, 9 and 11. A checkpoint that
  // still carries them, whatever their bytes, must decode to the same
  // fields as one without them.
  for (const bool with_serve : {false, true}) {
    const Checkpoint original = sample_checkpoint(with_serve);
    const std::vector<std::byte> plain = replay::encode(original);
    const std::vector<std::byte> spliced =
        replay::with_retired_sections(plain);
    ASSERT_GT(spliced.size(), plain.size());
    Checkpoint decoded;
    ASSERT_EQ(replay::decode(spliced, decoded), Error::kNone)
        << "with_serve=" << with_serve;
    expect_checkpoints_equal(original, decoded);
    EXPECT_EQ(replay::encode(decoded), plain) << "with_serve=" << with_serve;
  }
}

TEST(ReplayCheckpoint, DecodeRejectsBadMagic) {
  std::vector<std::byte> bytes = replay::encode(sample_checkpoint());
  bytes[0] ^= std::byte{0xFF};
  Checkpoint out;
  EXPECT_EQ(replay::decode(bytes, out), Error::kBadMagic);
}

TEST(ReplayCheckpoint, DecodeRejectsBadVersion) {
  std::vector<std::byte> bytes = replay::encode(sample_checkpoint());
  bytes[8] = std::byte{99};  // version is little-endian at offset 8
  Checkpoint out;
  EXPECT_EQ(replay::decode(bytes, out), Error::kBadVersion);
}

TEST(ReplayCheckpoint, DecodeRejectsEveryTruncationLength) {
  const std::vector<std::byte> bytes = replay::encode(sample_checkpoint());
  Checkpoint out;
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const Error error =
        replay::decode(std::span(bytes.data(), length), out);
    EXPECT_NE(error, Error::kNone)
        << "prefix of " << length << "/" << bytes.size()
        << " bytes decoded as a valid checkpoint";
  }
}

TEST(ReplayCheckpoint, DecodeRejectsPayloadBitRot) {
  std::vector<std::byte> bytes = replay::encode(sample_checkpoint());
  // Past the header and the first section's framing, this lands inside a
  // CRC-protected payload.
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  Checkpoint out;
  EXPECT_EQ(replay::decode(bytes, out), Error::kCrcMismatch);
}

TEST(ReplayCheckpoint, DecodeRejectsMissingMandatorySection) {
  const Checkpoint original = sample_checkpoint(/*with_serve=*/false);
  std::vector<std::byte> bytes = replay::encode(original);
  // Retag the first section (kMeta, id at offset 16) as an unknown id; the
  // decoder skips unknown sections, leaving the mandatory meta one absent.
  bytes[16] = std::byte{200};
  Checkpoint out;
  EXPECT_EQ(replay::decode(bytes, out), Error::kMissingSection);
}

TEST(ReplayCheckpoint, WriteReadFileRoundTrips) {
  const TempDir dir("file-roundtrip");
  const Checkpoint original = sample_checkpoint();
  const std::filesystem::path path = dir.path / "ck.bin";
  ASSERT_EQ(replay::write_file(path, original), Error::kNone);
  Checkpoint decoded;
  ASSERT_EQ(replay::read_file(path, decoded), Error::kNone);
  expect_checkpoints_equal(original, decoded);
  // Temp file from the atomic write must not linger.
  EXPECT_FALSE(std::filesystem::exists(dir.path / "ck.bin.tmp"));
}

TEST(ReplayCheckpoint, ReadFileMissingIsIoError) {
  const TempDir dir("file-missing");
  Checkpoint out;
  EXPECT_EQ(replay::read_file(dir.path / "absent.bin", out), Error::kIo);
}

TEST(ReplayCheckpoint, FaultSiteDropTruncatesExactlyOnce) {
  const TempDir dir("fault-drop");
  const std::filesystem::path path = dir.path / "ck.bin";
  ASSERT_EQ(replay::write_file(path, sample_checkpoint()), Error::kNone);
  fault::ScopedPlan plan(fault::FaultPlan::parse("replay.restore@0:drop"));
  Checkpoint out;
  const Error first = replay::read_file(path, out);
  EXPECT_TRUE(first == Error::kTruncated || first == Error::kMalformed)
      << "got " << replay::to_string(first);
  // One-shot injection: the second read sees intact bytes.
  EXPECT_EQ(replay::read_file(path, out), Error::kNone);
  EXPECT_GE(fault::Registry::global().injected("replay.restore"), 1u);
}

TEST(ReplayCheckpoint, FaultSiteGarbageIsDetectedByCrc) {
  const TempDir dir("fault-garbage");
  const std::filesystem::path path = dir.path / "ck.bin";
  ASSERT_EQ(replay::write_file(path, sample_checkpoint()), Error::kNone);
  // Offset 100 lands inside the first (meta) section's payload.
  fault::ScopedPlan plan(
      fault::FaultPlan::parse("replay.restore@0:garbage=100"));
  Checkpoint out;
  EXPECT_EQ(replay::read_file(path, out), Error::kCrcMismatch);
}

TEST(ReplayCheckpoint, StoreRotatesOldFiles) {
  const TempDir dir("store-rotate");
  CheckpointStore store(dir.path / "ckpts", /*keep=*/2);
  Checkpoint ck = sample_checkpoint();
  for (std::uint64_t round : {10u, 20u, 30u}) {
    ck.round = round;
    ck.chunk_base_round = round;  // round may never precede the chunk base
    ASSERT_EQ(store.write(ck), Error::kNone);
  }
  const auto files = store.files();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].filename().string(), "ckpt-000000000020.bin");
  EXPECT_EQ(files[1].filename().string(), "ckpt-000000000030.bin");

  Checkpoint loaded;
  ASSERT_EQ(store.load_latest(ck.config_fingerprint, loaded), Error::kNone);
  EXPECT_EQ(loaded.round, 30u);
}

TEST(ReplayCheckpoint, StoreFallsBackPastCorruptNewest) {
  const TempDir dir("store-fallback");
  CheckpointStore store(dir.path / "ckpts", /*keep=*/4);
  Checkpoint ck = sample_checkpoint();
  ck.round = 10;
  ck.chunk_base_round = 10;
  ASSERT_EQ(store.write(ck), Error::kNone);
  ck.round = 20;
  ck.chunk_base_round = 20;
  ASSERT_EQ(store.write(ck), Error::kNone);
  // Truncate the newest file on disk (a torn write).
  const auto files = store.files();
  ASSERT_EQ(files.size(), 2u);
  std::filesystem::resize_file(files.back(),
                               std::filesystem::file_size(files.back()) / 2);

  const std::uint64_t fallbacks_before =
      obs::Registry::global().counter("replay.restore.fallbacks").value();
  Checkpoint loaded;
  ASSERT_EQ(store.load_latest(ck.config_fingerprint, loaded), Error::kNone);
  EXPECT_EQ(loaded.round, 10u) << "must fall back to the previous checkpoint";
  EXPECT_GT(obs::Registry::global().counter("replay.restore.fallbacks").value(),
            fallbacks_before);
}

TEST(ReplayCheckpoint, StoreReportsNewestErrorWhenNothingLoads) {
  const TempDir dir("store-all-bad");
  CheckpointStore store(dir.path / "ckpts", /*keep=*/4);
  Checkpoint ck = sample_checkpoint();
  ck.round = 5;
  ASSERT_EQ(store.write(ck), Error::kNone);
  const auto files = store.files();
  std::filesystem::resize_file(files.back(), 4);  // not even a full magic
  Checkpoint loaded;
  EXPECT_EQ(store.load_latest(ck.config_fingerprint, loaded),
            Error::kTruncated);
}

TEST(ReplayCheckpoint, StoreEmptyIsNotFound) {
  const TempDir dir("store-empty");
  const CheckpointStore store(dir.path / "ckpts", 4);
  Checkpoint loaded;
  EXPECT_EQ(store.load_latest(0, loaded), Error::kNotFound);
}

TEST(ReplayCheckpoint, StoreSkipsForeignConfiguration) {
  const TempDir dir("store-foreign");
  CheckpointStore store(dir.path / "ckpts", 4);
  Checkpoint ck = sample_checkpoint();
  ASSERT_EQ(store.write(ck), Error::kNone);
  Checkpoint loaded;
  EXPECT_EQ(store.load_latest(ck.config_fingerprint ^ 1, loaded),
            Error::kConfigMismatch);
}

TEST(ReplayCheckpoint, ErrorNamesAreStable) {
  EXPECT_STREQ(replay::to_string(Error::kNone), "none");
  EXPECT_STREQ(replay::to_string(Error::kTruncated), "truncated");
  EXPECT_STREQ(replay::to_string(Error::kCrcMismatch), "crc-mismatch");
  EXPECT_STREQ(replay::to_string(Error::kConfigMismatch), "config-mismatch");
}

}  // namespace
}  // namespace rwc
