#pragma once

// Record-key hashing shared by the in-memory hash join and the Grace Hash
// partitioning functions (h1, h2). The two Grace Hash levels must be
// independent of each other and of the in-memory table's hash, so each use
// mixes in its own salt.

#include <cstdint>
#include <span>

namespace orv {

/// Strong 64-bit mix (stafford variant 13, as used in splitmix64).
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Combines an accumulated hash with the next 64-bit lane.
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return mix64(seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2)));
}

/// Starting accumulator of a salted key hash: hash_lanes and
/// JoinKey::hash_row both begin here, so their values coincide.
constexpr std::uint64_t hash_seed(std::uint64_t salt) {
  return mix64(salt ^ 0x243f6a8885a308d3ull);
}

/// Hash of a span of 64-bit key lanes with a salt. Composite join keys are
/// canonicalized into lanes by the schema layer.
inline std::uint64_t hash_lanes(std::span<const std::uint64_t> lanes,
                                std::uint64_t salt) {
  std::uint64_t h = hash_seed(salt);
  for (std::uint64_t lane : lanes) h = hash_combine(h, lane);
  return h;
}

}  // namespace orv
