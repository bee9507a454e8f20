#pragma once

// Equi-join key handling: resolving named join attributes against schemas
// and canonicalizing a row's key into 64-bit lanes for hashing/equality.

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/hash.hpp"
#include "subtable/subtable.hpp"

namespace orv {

/// Canonical key lane of a value of C++ type T (std::int32_t,
/// std::int64_t, float or double): what key_lane_from_bytes returns for
/// T's attribute type, without the type switch. A float adds +0.0, which
/// turns -0.0 into +0.0 without a branch and leaves every other value
/// alone but a signalling NaN, which comes out quiet (a NaN either way).
template <typename T>
std::uint64_t key_lane_of(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    const double d = static_cast<double>(v) + 0.0;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
  } else {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  }
}

/// Calls fn(T{}) with the C++ type T of an attribute type: one type
/// switch per call, so `fn` can loop over a column with the type fixed.
template <typename F>
void with_attr_type(AttrType type, F&& fn) {
  switch (type) {
    case AttrType::Int32:
      return fn(std::int32_t{});
    case AttrType::Int64:
      return fn(std::int64_t{});
    case AttrType::Float32:
      return fn(float{});
    case AttrType::Float64:
      return fn(double{});
  }
  throw_bad_attr_type("with_attr_type");
}

/// The T field at `p`.
template <typename T>
T load_field(const std::byte* p) {
  T v{};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Join-attribute indices resolved against one schema, with cached types
/// and offsets for the hot path.
class JoinKey {
 public:
  /// Resolves attribute names (e.g. {"x","y"}) against `schema`. All names
  /// must exist; at least one is required.
  static JoinKey resolve(const Schema& schema,
                         const std::vector<std::string>& attr_names);

  std::size_t arity() const { return offsets_.size(); }
  const std::vector<std::size_t>& attr_indices() const { return indices_; }

  /// Writes the row's canonical key lanes into `lanes` (must have arity()
  /// capacity).
  void extract_lanes(const std::byte* row, std::uint64_t* lanes) const {
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      lanes[i] = key_lane_from_bytes(types_[i], row + offsets_[i]);
    }
  }

  /// Hash of a row's key with the given salt (distinct salts give the
  /// independent functions h1, h2 and the in-memory table hash).
  /// Equals hash_lanes of the row's extract_lanes without materializing
  /// them.
  std::uint64_t hash_row(const std::byte* row, std::uint64_t salt) const {
    std::uint64_t h = hash_seed(salt);
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      h = hash_combine(h, key_lane_from_bytes(types_[i], row + offsets_[i]));
    }
    return h;
  }

  /// Canonical lanes of `n` rows, one key attribute at a time (one type
  /// switch per attribute): row j is at rows + sel[j] * stride, or at
  /// rows + j * stride when `sel` is null, and its lane i goes to
  /// lanes[i * lane_stride + j]. Equal to extract_lanes row by row.
  /// Returns true when some floating lane is NaN (see has_nan).
  bool lane_columns(const std::byte* rows, std::size_t stride,
                    const std::uint32_t* sel, std::size_t n,
                    std::uint64_t* lanes, std::size_t lane_stride) const;

  bool lanes_equal(const std::uint64_t* a, const std::uint64_t* b) const {
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  /// True when a floating lane of `lanes` holds a NaN. Such a key equals
  /// no key, itself included (IEEE semantics), so joins never match it.
  bool has_nan(const std::uint64_t* lanes) const {
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      if (is_float(i) && is_nan_lane(lanes[i])) return true;
    }
    return false;
  }

  /// True when a floating lane (f64 bits) holds a NaN: shifting out the
  /// sign bit, above the shifted infinity is NaN.
  static bool is_nan_lane(std::uint64_t lane) {
    return (lane << 1) > (0x7ff0000000000000ull << 1);
  }

  AttrType type(std::size_t i) const { return types_[i]; }
  std::size_t offset(std::size_t i) const { return offsets_[i]; }

  /// True when key attribute `i` is floating (its lane holds f64 bits);
  /// otherwise its lane holds an int64 value.
  bool is_float(std::size_t i) const {
    return types_[i] == AttrType::Float32 || types_[i] == AttrType::Float64;
  }

  /// Two keys over different schemas are compatible when they have the same
  /// arity and the attribute canonicalization matches pairwise: integers
  /// join integers (i32 x joins i64 x), floats join floats (f32 x joins
  /// f64 x). An integer lane never equals a float lane's bits, so a mixed
  /// pair would silently match nothing.
  bool compatible_with(const JoinKey& other) const {
    if (arity() != other.arity()) return false;
    for (std::size_t i = 0; i < arity(); ++i) {
      if (is_float(i) != other.is_float(i)) return false;
    }
    return true;
  }

 private:
  std::vector<std::size_t> indices_;
  std::vector<std::size_t> offsets_;
  std::vector<AttrType> types_;
};

/// Well-known salts for the three hashing contexts.
inline constexpr std::uint64_t kSaltInMemory = 0x1111111111111111ull;
inline constexpr std::uint64_t kSaltGraceH1 = 0x2222222222222222ull;
inline constexpr std::uint64_t kSaltGraceH2 = 0x3333333333333333ull;

}  // namespace orv
