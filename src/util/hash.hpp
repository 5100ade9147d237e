// Word-at-a-time hash folds: one definition of each mixer the library's
// fingerprints, memo keys and chains are built from. They fold bit
// patterns, not rounded values, so two folds agree exactly when their
// inputs are bit-identical. Pinned chains and checkpoint fingerprints
// depend on every constant here.
#pragma once

#include <bit>
#include <cstdint>

namespace rwc::util {

/// Murmur3-finalizer-style mixer: one multiply chain per 64-bit word.
constexpr std::uint64_t mix64(std::uint64_t hash, std::uint64_t value) {
  value *= 0xff51afd7ed558ccdULL;
  value ^= value >> 33;
  hash = (hash ^ value) * 0x2545f4914f6cdd1dULL;
  return hash ^ (hash >> 29);
}

constexpr std::uint64_t mix_double(std::uint64_t hash, double value) {
  return mix64(hash, std::bit_cast<std::uint64_t>(value));
}

/// Boost-style hash_combine followed by a murmur3 finalizer step: the fold
/// of the dataplane's state signature and chains. Not interchangeable with
/// mix64.
constexpr std::uint64_t combine64(std::uint64_t hash, std::uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  hash *= 0xff51afd7ed558ccdULL;
  return hash ^ (hash >> 33);
}

constexpr std::uint64_t combine_double(std::uint64_t hash, double value) {
  return combine64(hash, std::bit_cast<std::uint64_t>(value));
}

}  // namespace rwc::util
