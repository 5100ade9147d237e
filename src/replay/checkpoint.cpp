#include "replay/checkpoint.hpp"

#include "replay/wire.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <system_error>

#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace rwc::replay {

namespace {

using wire::ByteReader;
using wire::ByteWriter;

constexpr std::array<char, 8> kMagic = {'R', 'W', 'C', 'K', 'P', 'T',
                                        '0', '1'};

/// Section ids of format version 1. Ids are stable forever; a removed
/// section's id is never reused.
enum class SectionId : std::uint32_t {
  kMeta = 1,
  kController = 2,
  kCursors = 3,
  kRng = 4,
  /// Retired: min-cost warm-start recordings. Decoders skip it.
  kRetiredWarmStarts = 5,
  /// Retired: SWAN k-shortest-path cache. Decoders skip it.
  kRetiredKspTunnels = 6,
  /// Retired: global obs counters and gauges. Decoders skip it.
  kRetiredObs = 7,
  kServe = 8,
  /// Retired: update::ScheduleExecutor cursor. Decoders skip it.
  kRetiredUpdate = 9,
  kDemand = 10,
  /// Retired: dataplane::DataplaneSim state. Decoders skip it.
  kRetiredDataplane = 11,
};

/// Handles into the global registry (docs/OBSERVABILITY.md: replay.*).
struct CheckpointMetrics {
  obs::Counter& writes;
  obs::Counter& bytes;
  obs::Counter& rejected;
  obs::Counter& fallbacks;

  static CheckpointMetrics& instance() {
    static auto& registry = obs::Registry::global();
    static CheckpointMetrics metrics{
        registry.counter("replay.checkpoint.writes"),
        registry.counter("replay.checkpoint.bytes"),
        registry.counter("replay.restore.rejected"),
        registry.counter("replay.restore.fallbacks"),
    };
    return metrics;
  }
};

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

void write_rng_state(ByteWriter& writer, const util::RngState& state) {
  for (std::uint64_t word : state.engine) writer.u64(word);
  writer.f64(state.cached_normal);
  writer.u8(state.has_cached_normal ? 1 : 0);
}

util::RngState read_rng_state(ByteReader& reader) {
  util::RngState state;
  for (std::uint64_t& word : state.engine) word = reader.u64();
  state.cached_normal = reader.f64();
  state.has_cached_normal = reader.u8() != 0;
  return state;
}

void write_path(ByteWriter& writer, const graph::Path& path) {
  writer.u64(path.edges.size());
  for (graph::EdgeId edge : path.edges) writer.i32(edge.value);
  writer.f64(path.weight);
}

graph::Path read_path(ByteReader& reader) {
  graph::Path path;
  const std::uint64_t edges = reader.u64();
  if (!reader.fits(edges)) return path;
  path.edges.reserve(edges);
  for (std::uint64_t i = 0; i < edges; ++i)
    path.edges.push_back(graph::EdgeId{reader.i32()});
  path.weight = reader.f64();
  return path;
}

std::vector<std::byte> encode_meta(const Checkpoint& checkpoint) {
  ByteWriter writer;
  writer.u64(checkpoint.config_fingerprint);
  writer.u64(checkpoint.round);
  writer.u64(checkpoint.chunk_base_round);
  writer.u64(checkpoint.signature_chain);
  const sim::SimulationMetrics& m = checkpoint.metrics;
  writer.f64(m.offered_gbps_hours);
  writer.f64(m.delivered_gbps_hours);
  writer.f64(m.availability);
  writer.u64(m.link_failures);
  writer.u64(m.link_flaps);
  writer.u64(m.upgrades);
  writer.u64(m.restorations);
  writer.u64(m.lock_failures);
  writer.f64(m.reconfig_downtime_hours);
  writer.u64(m.te_rounds);
  return writer.take();
}

bool decode_meta(std::span<const std::byte> payload, Checkpoint& out) {
  ByteReader reader(payload);
  out.config_fingerprint = reader.u64();
  out.round = reader.u64();
  out.chunk_base_round = reader.u64();
  out.signature_chain = reader.u64();
  sim::SimulationMetrics& m = out.metrics;
  m.offered_gbps_hours = reader.f64();
  m.delivered_gbps_hours = reader.f64();
  m.availability = reader.f64();
  m.link_failures = reader.u64();
  m.link_flaps = reader.u64();
  m.upgrades = reader.u64();
  m.restorations = reader.u64();
  m.lock_failures = reader.u64();
  m.reconfig_downtime_hours = reader.f64();
  m.te_rounds = reader.u64();
  return !reader.failed() && reader.exhausted();
}

void write_assignment(ByteWriter& writer, const te::FlowAssignment& a) {
  writer.u64(a.routings.size());
  for (const auto& routing : a.routings) {
    writer.i32(routing.demand.src.value);
    writer.i32(routing.demand.dst.value);
    writer.f64(routing.demand.volume.value);
    writer.i32(routing.demand.priority);
    writer.u64(routing.paths.size());
    for (const auto& [path, volume] : routing.paths) {
      write_path(writer, path);
      writer.f64(volume.value);
    }
    writer.f64(routing.routed.value);
  }
  writer.u64(a.edge_load_gbps.size());
  for (double load : a.edge_load_gbps) writer.f64(load);
  writer.f64(a.total_routed.value);
  writer.f64(a.total_cost);
}

te::FlowAssignment read_assignment(ByteReader& reader) {
  te::FlowAssignment a;
  const std::uint64_t routings = reader.u64();
  if (!reader.fits(routings)) return a;
  a.routings.reserve(routings);
  for (std::uint64_t r = 0; r < routings && !reader.failed(); ++r) {
    te::FlowAssignment::DemandRouting routing;
    routing.demand.src = graph::NodeId{reader.i32()};
    routing.demand.dst = graph::NodeId{reader.i32()};
    routing.demand.volume = util::Gbps{reader.f64()};
    routing.demand.priority = reader.i32();
    const std::uint64_t paths = reader.u64();
    if (!reader.fits(paths)) break;
    routing.paths.reserve(paths);
    for (std::uint64_t p = 0; p < paths && !reader.failed(); ++p) {
      graph::Path path = read_path(reader);
      const util::Gbps volume{reader.f64()};
      routing.paths.emplace_back(std::move(path), volume);
    }
    routing.routed = util::Gbps{reader.f64()};
    a.routings.push_back(std::move(routing));
  }
  const std::uint64_t loads = reader.u64();
  if (!reader.fits(loads)) return a;
  a.edge_load_gbps.reserve(loads);
  for (std::uint64_t i = 0; i < loads; ++i)
    a.edge_load_gbps.push_back(reader.f64());
  a.total_routed = util::Gbps{reader.f64()};
  a.total_cost = reader.f64();
  return a;
}

std::vector<std::byte> encode_controller(const Checkpoint& checkpoint) {
  ByteWriter writer;
  const auto& state = checkpoint.controller;
  writer.u64(state.configured.size());
  for (util::Gbps rate : state.configured) writer.f64(rate.value);
  writer.u8(state.hysteresis.has_value() ? 1 : 0);
  if (state.hysteresis.has_value()) {
    writer.u64(state.hysteresis->candidate.size());
    for (util::Gbps rate : state.hysteresis->candidate) writer.f64(rate.value);
    for (int streak : state.hysteresis->streak) writer.i32(streak);
  }
  write_assignment(writer, state.last_assignment);
  writer.u64(state.last_traffic.size());
  for (double traffic : state.last_traffic) writer.f64(traffic);
  writer.u64(state.last_snr.size());
  for (util::Db snr : state.last_snr) writer.f64(snr.value);
  return writer.take();
}

bool decode_controller(std::span<const std::byte> payload, Checkpoint& out) {
  ByteReader reader(payload);
  auto& state = out.controller;
  const std::uint64_t configured = reader.u64();
  if (!reader.fits(configured)) return false;
  state.configured.reserve(configured);
  for (std::uint64_t i = 0; i < configured; ++i)
    state.configured.push_back(util::Gbps{reader.f64()});
  if (reader.u8() != 0) {
    core::HysteresisFilter::State hysteresis;
    const std::uint64_t links = reader.u64();
    if (!reader.fits(links)) return false;
    hysteresis.candidate.reserve(links);
    for (std::uint64_t i = 0; i < links; ++i)
      hysteresis.candidate.push_back(util::Gbps{reader.f64()});
    hysteresis.streak.reserve(links);
    for (std::uint64_t i = 0; i < links; ++i)
      hysteresis.streak.push_back(reader.i32());
    state.hysteresis = std::move(hysteresis);
  }
  state.last_assignment = read_assignment(reader);
  const std::uint64_t traffic = reader.u64();
  if (!reader.fits(traffic)) return false;
  state.last_traffic.reserve(traffic);
  for (std::uint64_t i = 0; i < traffic; ++i)
    state.last_traffic.push_back(reader.f64());
  const std::uint64_t snr = reader.u64();
  if (!reader.fits(snr)) return false;
  state.last_snr.reserve(snr);
  for (std::uint64_t i = 0; i < snr; ++i)
    state.last_snr.push_back(util::Db{reader.f64()});
  return !reader.failed() && reader.exhausted();
}

std::vector<std::byte> encode_cursors(const Checkpoint& checkpoint) {
  ByteWriter writer;
  writer.u64(checkpoint.cursors.size());
  for (const auto& cursor : checkpoint.cursors) {
    writer.u64(cursor.position);
    write_rng_state(writer, cursor.rng);
  }
  return writer.take();
}

bool decode_cursors(std::span<const std::byte> payload, Checkpoint& out) {
  ByteReader reader(payload);
  const std::uint64_t count = reader.u64();
  if (!reader.fits(count)) return false;
  out.cursors.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    telemetry::SnrTraceCursor::State state;
    state.position = reader.u64();
    state.rng = read_rng_state(reader);
    out.cursors.push_back(state);
  }
  return !reader.failed() && reader.exhausted();
}

std::vector<std::byte> encode_rng(const Checkpoint& checkpoint) {
  ByteWriter writer;
  write_rng_state(writer, checkpoint.latency_rng);
  return writer.take();
}

bool decode_rng(std::span<const std::byte> payload, Checkpoint& out) {
  ByteReader reader(payload);
  out.latency_rng = read_rng_state(reader);
  return !reader.failed() && reader.exhausted();
}

std::vector<std::byte> encode_demand(const Checkpoint& checkpoint) {
  ByteWriter writer;
  const demand::DemandPipeline::State& state = checkpoint.demand_state;
  writer.u64(state.round);
  writer.u8(state.ewma_warm ? 1 : 0);
  writer.u64(state.ewma.size());
  for (double value : state.ewma) writer.f64(value);
  writer.u64(state.last_observed.size());
  for (const demand::CounterSample& sample : state.last_observed) {
    writer.f64(sample.tx_bytes);
    writer.f64(sample.tx_packets);
    writer.f64(sample.lost_packets);
    writer.u8(sample.missing ? 1 : 0);
  }
  writer.u64(state.capacity_peak_gbps.size());
  for (double peak : state.capacity_peak_gbps) writer.f64(peak);
  return writer.take();
}

bool decode_demand(std::span<const std::byte> payload, Checkpoint& out) {
  ByteReader reader(payload);
  demand::DemandPipeline::State& state = out.demand_state;
  state.round = reader.u64();
  state.ewma_warm = reader.u8() != 0;
  const std::uint64_t ewma = reader.u64();
  if (!reader.fits(ewma)) return false;
  state.ewma.reserve(ewma);
  for (std::uint64_t i = 0; i < ewma; ++i) state.ewma.push_back(reader.f64());
  const std::uint64_t samples = reader.u64();
  if (!reader.fits(samples)) return false;
  state.last_observed.reserve(samples);
  for (std::uint64_t i = 0; i < samples && !reader.failed(); ++i) {
    demand::CounterSample sample;
    sample.tx_bytes = reader.f64();
    sample.tx_packets = reader.f64();
    sample.lost_packets = reader.f64();
    sample.missing = reader.u8() != 0;
    state.last_observed.push_back(sample);
  }
  const std::uint64_t peaks = reader.u64();
  if (!reader.fits(peaks)) return false;
  state.capacity_peak_gbps.reserve(peaks);
  for (std::uint64_t i = 0; i < peaks; ++i)
    state.capacity_peak_gbps.push_back(reader.f64());
  return !reader.failed() && reader.exhausted();
}

void append_section(ByteWriter& writer, SectionId id,
                    const std::vector<std::byte>& payload) {
  writer.u32(static_cast<std::uint32_t>(id));
  writer.u64(payload.size());
  writer.u32(crc32(payload));
  for (std::byte b : payload)
    writer.u8(std::to_integer<std::uint8_t>(b));
}

}  // namespace

const char* to_string(Error error) {
  switch (error) {
    case Error::kNone:
      return "none";
    case Error::kIo:
      return "io";
    case Error::kNotFound:
      return "not-found";
    case Error::kBadMagic:
      return "bad-magic";
    case Error::kBadVersion:
      return "bad-version";
    case Error::kTruncated:
      return "truncated";
    case Error::kCrcMismatch:
      return "crc-mismatch";
    case Error::kMalformed:
      return "malformed";
    case Error::kMissingSection:
      return "missing-section";
    case Error::kConfigMismatch:
      return "config-mismatch";
  }
  return "unknown";
}

std::uint32_t crc32(std::span<const std::byte> bytes) {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::byte b : bytes)
    crc = (crc >> 8) ^ table[(crc ^ std::to_integer<std::uint32_t>(b)) & 0xFFu];
  return crc ^ 0xFFFFFFFFu;
}

Error check_controller_sections(
    const Checkpoint& checkpoint,
    const core::DynamicCapacityController& controller) {
  if (!controller.can_restore(checkpoint.controller)) return Error::kMalformed;
  // The demand section changes results, so an estimating controller cannot
  // resume without it (the round index drives the counter noise stream,
  // the EWMA anchors damped solves).
  if (controller.demand_pipeline() == nullptr) return Error::kNone;
  if (!checkpoint.demand_present) return Error::kMissingSection;
  const std::size_t edges = controller.physical_topology().edge_count();
  const demand::DemandPipeline::State& state = checkpoint.demand_state;
  const bool shapes_ok =
      (state.last_observed.empty() || state.last_observed.size() == edges) &&
      (state.capacity_peak_gbps.empty() ||
       state.capacity_peak_gbps.size() == edges);
  return shapes_ok ? Error::kNone : Error::kMalformed;
}

std::vector<std::byte> encode(const Checkpoint& checkpoint) {
  std::vector<std::pair<SectionId, std::vector<std::byte>>> sections;
  sections.emplace_back(SectionId::kMeta, encode_meta(checkpoint));
  sections.emplace_back(SectionId::kController, encode_controller(checkpoint));
  sections.emplace_back(SectionId::kCursors, encode_cursors(checkpoint));
  sections.emplace_back(SectionId::kRng, encode_rng(checkpoint));
  if (checkpoint.serve_present)
    sections.emplace_back(SectionId::kServe, checkpoint.serve_payload);
  if (checkpoint.demand_present)
    sections.emplace_back(SectionId::kDemand, encode_demand(checkpoint));

  ByteWriter writer;
  for (char c : kMagic) writer.u8(static_cast<std::uint8_t>(c));
  writer.u32(kFormatVersion);
  writer.u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& [id, payload] : sections)
    append_section(writer, id, payload);
  return writer.take();
}

Error decode(std::span<const std::byte> bytes, Checkpoint& out) {
  out = Checkpoint{};
  if (bytes.size() < kMagic.size()) return Error::kTruncated;
  for (std::size_t i = 0; i < kMagic.size(); ++i)
    if (std::to_integer<char>(bytes[i]) != kMagic[i]) return Error::kBadMagic;

  ByteReader header(bytes.subspan(kMagic.size()));
  const std::uint32_t version = header.u32();
  if (header.failed()) return Error::kTruncated;
  if (version != kFormatVersion) return Error::kBadVersion;
  const std::uint32_t section_count = header.u32();
  if (header.failed()) return Error::kTruncated;

  std::size_t offset = kMagic.size() + 8;  // version + count
  bool saw_meta = false, saw_controller = false, saw_cursors = false,
       saw_rng = false;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    if (offset + 16 > bytes.size()) return Error::kTruncated;
    ByteReader section_header(bytes.subspan(offset, 16));
    const std::uint32_t id = section_header.u32();
    const std::uint64_t length = section_header.u64();
    const std::uint32_t expected_crc = section_header.u32();
    offset += 16;
    if (length > bytes.size() - offset) return Error::kTruncated;
    const std::span<const std::byte> payload = bytes.subspan(offset, length);
    offset += length;
    if (crc32(payload) != expected_crc) return Error::kCrcMismatch;

    bool ok = true;
    switch (static_cast<SectionId>(id)) {
      case SectionId::kMeta:
        ok = decode_meta(payload, out);
        saw_meta = true;
        break;
      case SectionId::kController:
        ok = decode_controller(payload, out);
        saw_controller = true;
        break;
      case SectionId::kCursors:
        ok = decode_cursors(payload, out);
        saw_cursors = true;
        break;
      case SectionId::kRng:
        ok = decode_rng(payload, out);
        saw_rng = true;
        break;
      case SectionId::kServe:
        // Opaque subsystem payload: the serve state machine owns the inner
        // framing (serve/service.cpp); the envelope only guarantees CRC
        // integrity and length.
        out.serve_payload.assign(payload.begin(), payload.end());
        out.serve_present = true;
        break;
      case SectionId::kDemand:
        ok = decode_demand(payload, out);
        out.demand_present = true;
        break;
      default:
        // Unknown or retired id within a known version: skip (forward and
        // backward compatibility).
        break;
    }
    if (!ok) return Error::kMalformed;
  }
  if (offset != bytes.size()) return Error::kMalformed;
  if (!saw_meta || !saw_controller || !saw_cursors || !saw_rng)
    return Error::kMissingSection;
  // Internal consistency the framing cannot express.
  if (out.round < out.chunk_base_round) return Error::kMalformed;
  if (out.controller.hysteresis.has_value() &&
      out.controller.hysteresis->candidate.size() !=
          out.controller.hysteresis->streak.size())
    return Error::kMalformed;
  return Error::kNone;
}

Error write_file(const std::filesystem::path& path,
                 const Checkpoint& checkpoint) {
  const std::vector<std::byte> bytes = encode(checkpoint);
  // Temp-then-rename so a crash mid-write never leaves a half checkpoint
  // under the final name (the decoder would reject one anyway, but the
  // store should not have to skip it).
  std::filesystem::path temp = path;
  temp += ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return Error::kIo;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return Error::kIo;
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) return Error::kIo;
  auto& metrics = CheckpointMetrics::instance();
  metrics.writes.add();
  metrics.bytes.add(bytes.size());
  return Error::kNone;
}

Error read_file(const std::filesystem::path& path, Checkpoint& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Error::kIo;
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()), size);
    if (!in) return Error::kIo;
  }

  // Fault injection (docs/FAULTS.md, site replay.restore): corrupt the raw
  // bytes after the read so the decoder's rejection paths are exercised
  // end to end, exactly as a torn write or bit rot would.
  if (const fault::Action action = fault::next("replay.restore")) {
    if (action.kind == fault::Kind::kDrop && !bytes.empty()) {
      std::size_t drop = action.magnitude > 0.0
                             ? static_cast<std::size_t>(action.magnitude)
                             : bytes.size() / 2;
      drop = std::min(drop, bytes.size());
      bytes.resize(bytes.size() - drop);
    } else if (action.kind == fault::Kind::kGarbage && !bytes.empty()) {
      const std::size_t index =
          static_cast<std::size_t>(action.magnitude) % bytes.size();
      bytes[index] ^= std::byte{0xA5};
    }
  }
  return decode(bytes, out);
}

CheckpointStore::CheckpointStore(std::filesystem::path directory,
                                 std::size_t keep)
    : directory_(std::move(directory)), keep_(keep == 0 ? 1 : keep) {
  std::filesystem::create_directories(directory_);
}

namespace {

std::filesystem::path file_for_round(const std::filesystem::path& directory,
                                     std::uint64_t round) {
  // Zero-padded so lexicographic file order == round order.
  std::string name = std::to_string(round);
  name.insert(0, name.size() < 12 ? 12 - name.size() : 0, '0');
  return directory / ("ckpt-" + name + ".bin");
}

}  // namespace

Error CheckpointStore::write(const Checkpoint& checkpoint) {
  const Error error =
      write_file(file_for_round(directory_, checkpoint.round), checkpoint);
  if (error != Error::kNone) return error;
  std::vector<std::filesystem::path> existing = files();
  while (existing.size() > keep_) {
    std::error_code ec;
    std::filesystem::remove(existing.front(), ec);
    existing.erase(existing.begin());
  }
  return Error::kNone;
}

Error CheckpointStore::load_latest(std::uint64_t expected_fingerprint,
                                   Checkpoint& out) const {
  const std::vector<std::filesystem::path> candidates = files();
  if (candidates.empty()) return Error::kNotFound;
  auto& metrics = CheckpointMetrics::instance();
  Error newest_error = Error::kNotFound;
  bool first = true;
  // Newest first; every rejected file is one deterministic fallback step.
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    Error error = read_file(*it, out);
    if (error == Error::kNone && expected_fingerprint != 0 &&
        out.config_fingerprint != expected_fingerprint)
      error = Error::kConfigMismatch;
    if (error == Error::kNone) return Error::kNone;
    metrics.rejected.add();
    metrics.fallbacks.add();
    if (first) newest_error = error;
    first = false;
  }
  return newest_error;
}

std::vector<std::filesystem::path> CheckpointStore::files() const {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.starts_with("ckpt-") && name.ends_with(".bin"))
      out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rwc::replay
