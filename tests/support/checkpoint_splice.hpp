// Splices a raw section into an encoded checkpoint, framed the way
// replay::encode frames its own (u32 id | u64 length | u32 crc32 | payload,
// little-endian), for the tests that feed the decoder sections it does not
// write any more (tests/test_replay_checkpoint.cpp,
// tests/test_replay_driver.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "replay/checkpoint.hpp"

namespace rwc::replay {

/// `bytes` with a section `id` carrying `payload` inserted after its first
/// `after` sections, and the header's section count raised by one.
inline std::vector<std::byte> splice_section(std::vector<std::byte> bytes,
                                             std::uint32_t id,
                                             const std::vector<std::byte>& payload,
                                             std::size_t after) {
  const auto read_le = [&](std::size_t offset, int width) {
    std::uint64_t value = 0;
    for (int i = width - 1; i >= 0; --i)
      value = (value << 8) |
              std::to_integer<std::uint64_t>(bytes[offset + static_cast<std::size_t>(i)]);
    return value;
  };
  const auto write_le = [](std::vector<std::byte>& out, std::uint64_t value,
                           int width) {
    for (int i = 0; i < width; ++i)
      out.push_back(static_cast<std::byte>((value >> (8 * i)) & 0xFFu));
  };
  constexpr std::size_t kCountOffset = 12;  // magic[8] | u32 version
  std::size_t offset = kCountOffset + 4;
  for (std::size_t s = 0; s < after; ++s)
    offset += 16 + static_cast<std::size_t>(read_le(offset + 4, 8));

  std::vector<std::byte> section;
  write_le(section, id, 4);
  write_le(section, payload.size(), 8);
  write_le(section, crc32(payload), 4);
  section.insert(section.end(), payload.begin(), payload.end());
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
               section.begin(), section.end());

  const std::uint64_t count = read_le(kCountOffset, 4) + 1;
  for (int i = 0; i < 4; ++i)
    bytes[kCountOffset + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((count >> (8 * i)) & 0xFFu);
  return bytes;
}

/// An encoded checkpoint as an older build wrote it: arbitrary bytes under
/// each retired section id (5 and 6 held engine caches; 7, 9 and 11 the
/// obs registry, an update-executor cursor and a dataplane state), after
/// the four mandatory sections, each under a valid CRC.
inline std::vector<std::byte> with_retired_sections(
    std::vector<std::byte> bytes) {
  constexpr std::uint32_t kRetiredIds[] = {5, 6, 7, 9, 11};
  std::size_t after = 4;
  for (const std::uint32_t id : kRetiredIds) {
    std::vector<std::byte> payload;
    for (std::uint32_t i = 0; i < 17 + 9 * id; ++i)
      payload.push_back(static_cast<std::byte>((i * 29 + id * 7) & 0xFFu));
    bytes = splice_section(std::move(bytes), id, payload, after++);
  }
  return bytes;
}

}  // namespace rwc::replay
