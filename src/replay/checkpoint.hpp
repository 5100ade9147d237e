// Versioned binary checkpoints of a long-horizon replay run (rwc::replay).
//
// A Checkpoint captures everything that evolves across TE rounds of a
// ReplayDriver — controller hysteresis/round state, the SNR trace cursor
// positions at the current chunk base, the analytic-accounting Rng stream,
// cumulative metrics and a rolling round-signature digest, plus the
// optional serve and demand sections of the drivers that run them.
// A driver built with the same inputs and restored from a checkpoint
// continues bit-identically to the uninterrupted run (docs/REPLAY.md states
// the contract; tests/test_replay_driver.cpp proves it at pool sizes
// 1/2/8).
//
// On the wire a checkpoint is a magic/version header plus length- and
// CRC32-framed sections, so a stale, truncated or corrupted snapshot is
// rejected with a typed Error — never undefined behavior:
//
//   magic[8] "RWCKPT01" | u32 version | u32 section_count
//   per section: u32 id | u64 payload_length | u32 crc32 | payload
//
// All integers are little-endian; doubles/floats travel as their IEEE-754
// bit patterns (bit-exactness is the whole point). Unknown section ids are
// skipped (forward compatibility within a format version); the meta,
// controller, cursors and rng sections are mandatory. Ids 5 and 6 held
// engine caches in earlier builds, and ids 7, 9 and 11 the obs registry,
// an update-executor cursor and a dataplane state that no driver wrote;
// they are retired, and a checkpoint that still carries them decodes with
// the sections skipped.
//
// docs/REPLAY.md documents the format, versioning policy and the recovery
// workflow; docs/FAULTS.md documents the `replay.restore` fault site that
// read_file() evaluates to exercise truncation/corruption handling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "core/controller.hpp"
#include "demand/pipeline.hpp"
#include "sim/simulator.hpp"
#include "telemetry/snr_model.hpp"
#include "util/rng.hpp"

namespace rwc::replay {

/// Why a checkpoint could not be decoded, loaded or applied. Every failure
/// mode of the restore path maps to exactly one of these; none of them is
/// an exception or UB.
enum class Error {
  kNone,            ///< success
  kIo,              ///< file could not be read/written
  kNotFound,        ///< store holds no checkpoint at all
  kBadMagic,        ///< not a checkpoint file
  kBadVersion,      ///< produced by an incompatible format version
  kTruncated,       ///< bytes end before the framing says they should
  kCrcMismatch,     ///< a section's payload fails its CRC32
  kMalformed,       ///< framing intact but a payload does not parse
  kMissingSection,  ///< a mandatory section is absent
  kConfigMismatch,  ///< valid checkpoint of a different run configuration
};

const char* to_string(Error error);

/// On-the-wire format version; bumped on any incompatible layout change
/// (docs/REPLAY.md, "Versioning").
inline constexpr std::uint32_t kFormatVersion = 1;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
std::uint32_t crc32(std::span<const std::byte> bytes);

/// Full deterministic state of a ReplayDriver between rounds.
struct Checkpoint {
  // Meta section.
  std::uint64_t config_fingerprint = 0;  ///< ReplayDriver::config_fingerprint
  std::uint64_t round = 0;               ///< rounds completed when captured
  std::uint64_t chunk_base_round = 0;    ///< round the cursor states refer to
  std::uint64_t signature_chain = 0;     ///< rolling RoundSignature digest
  /// Cumulative accounting; `availability` holds the per-round running SUM
  /// (ReplayDriver::metrics() normalizes it on read-out).
  sim::SimulationMetrics metrics;

  // Controller section: everything the §4 pipeline carries across rounds.
  core::DynamicCapacityController::PersistentState controller;

  // Cursors section: one SNR trace cursor state per physical edge, captured
  // at the last chunk refill (the in-flight chunk is regenerated on
  // restore).
  std::vector<telemetry::SnrTraceCursor::State> cursors;

  // Rng section: the analytic latency-accounting stream.
  util::RngState latency_rng;

  // Serve section (optional): opaque state payload of the rwc::serve
  // control-plane state machine (current demands/SNR, ingest-log cursor —
  // serve/service.cpp owns the inner framing, docs/SERVE.md documents it).
  // The envelope CRC-frames it like every other section; decoders that
  // predate the section skip it by id.
  bool serve_present = false;
  std::vector<std::byte> serve_payload;

  // Demand section (present exactly when the run estimates demands from
  // link counters, core::ControllerOptions::demand): the DemandPipeline's
  // cross-round state — round index, EWMA prior, last observed counters,
  // capacity peaks (docs/DEMAND.md). It CHANGES RESULTS, so restore()
  // treats it as mandatory whenever the restoring driver runs estimated
  // and rejects its absence with kMissingSection.
  bool demand_present = false;
  demand::DemandPipeline::State demand_state;
};

/// Whether the controller and demand sections of `checkpoint` can apply to
/// `controller`. kMalformed when DynamicCapacityController::can_restore
/// rejects the controller section; kMissingSection when the controller
/// estimates demands and the demand section is absent; kMalformed when
/// that section's per-link vectors do not match; kNone otherwise.
/// ReplayDriver and serve::ServeService run it before touching any state,
/// so a foreign checkpoint is a typed error, never a throw from a
/// half-applied restore.
Error check_controller_sections(
    const Checkpoint& checkpoint,
    const core::DynamicCapacityController& controller);

/// Serializes `checkpoint` into the framed binary form above.
std::vector<std::byte> encode(const Checkpoint& checkpoint);

/// Parses `bytes`; on any Error other than kNone, `out` is unspecified.
Error decode(std::span<const std::byte> bytes, Checkpoint& out);

/// encode() + atomic write (temp file + rename) to `path`.
Error write_file(const std::filesystem::path& path,
                 const Checkpoint& checkpoint);

/// Reads and decodes `path`. Evaluates the `replay.restore` fault site on
/// the raw bytes before decoding: kDrop truncates the tail (magnitude
/// bytes; 0 drops half the file), kGarbage flips one byte (at offset
/// magnitude mod size) — so an armed plan exercises exactly the corruption
/// paths the decoder must reject.
Error read_file(const std::filesystem::path& path, Checkpoint& out);

/// Directory of rotated checkpoint files ("ckpt-<round>.bin"), keeping the
/// newest `keep` and loading newest-first with deterministic fallback: a
/// file that fails to decode or belongs to a different configuration is
/// counted under replay.restore.rejected and the scan falls back to the
/// next-older file (replay.restore.fallbacks).
class CheckpointStore {
 public:
  /// Creates `directory` if needed; `keep` >= 1 files are retained.
  explicit CheckpointStore(std::filesystem::path directory,
                           std::size_t keep = 4);

  /// Writes `checkpoint` as ckpt-<round>.bin and prunes old files.
  Error write(const Checkpoint& checkpoint);

  /// Newest checkpoint that decodes and (when `expected_fingerprint` is
  /// non-zero) matches the configuration. kNotFound when the directory has
  /// no checkpoint files; otherwise the newest file's error when none
  /// survives.
  Error load_latest(std::uint64_t expected_fingerprint, Checkpoint& out) const;

  /// Checkpoint files, oldest first.
  std::vector<std::filesystem::path> files() const;

  const std::filesystem::path& directory() const { return directory_; }
  std::size_t keep() const { return keep_; }

 private:
  std::filesystem::path directory_;
  std::size_t keep_;
};

}  // namespace rwc::replay
