#pragma once

// Dynamically-typed scalar value matching AttrType, plus the key-lane
// canonicalization used for equi-join keys.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <variant>

#include "schema/schema.hpp"

namespace orv {

/// One scalar of any supported attribute type.
class Value {
 public:
  Value() : v_(std::int32_t{0}) {}
  Value(std::int32_t v) : v_(v) {}       // NOLINT(google-explicit-constructor)
  Value(std::int64_t v) : v_(v) {}       // NOLINT
  Value(float v) : v_(v) {}              // NOLINT
  Value(double v) : v_(v) {}             // NOLINT

  AttrType type() const;

  /// Numeric widening view; exact for i32/f32/f64, may round for huge i64.
  double as_double() const;

  std::int64_t as_int64() const;

  /// Reads a value of the given type from raw record bytes.
  static Value read(AttrType type, const std::byte* p);

  /// Writes this value (converted to `type`) into raw record bytes.
  void write(AttrType type, std::byte* p) const;

  /// Canonical 64-bit lane for hashing/equality in equi-joins. Floating
  /// values normalize -0.0 to +0.0 so -0.0 joins with +0.0.
  std::uint64_t key_lane() const;

  bool operator==(const Value& other) const {
    return key_lane() == other.key_lane() && type() == other.type();
  }

  std::string to_string() const;

 private:
  std::variant<std::int32_t, std::int64_t, float, double> v_;
};

/// Throws InvalidArgument for an AttrType value outside the enum; `where`
/// names the caller. Out of line so the inline switches below stay small.
[[noreturn]] void throw_bad_attr_type(const char* where);

/// Canonical lane of a floating value: -0.0 is normalized so it joins with
/// +0.0, and the value travels as an f64 bit pattern so f32 0.5 and f64 0.5
/// canonicalize identically.
inline std::uint64_t float_lane(double d) {
  if (d == 0.0) d = 0.0;
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Canonical key lane straight from record bytes (avoids Value round-trip on
/// the join hot path).
inline std::uint64_t key_lane_from_bytes(AttrType type, const std::byte* p) {
  switch (type) {
    case AttrType::Int32: {
      std::int32_t v;
      std::memcpy(&v, p, sizeof(v));
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    }
    case AttrType::Int64: {
      std::int64_t v;
      std::memcpy(&v, p, sizeof(v));
      return static_cast<std::uint64_t>(v);
    }
    case AttrType::Float32: {
      float v;
      std::memcpy(&v, p, sizeof(v));
      return float_lane(static_cast<double>(v));
    }
    case AttrType::Float64: {
      double v;
      std::memcpy(&v, p, sizeof(v));
      return float_lane(v);
    }
  }
  throw_bad_attr_type("key_lane_from_bytes");
}

/// Numeric view straight from record bytes, widened to double exactly as
/// Value::as_double() does.
inline double as_double_from_bytes(AttrType type, const std::byte* p) {
  const auto read = [p](auto v) {
    std::memcpy(&v, p, sizeof(v));
    return static_cast<double>(v);
  };
  switch (type) {
    case AttrType::Int32:
      return read(std::int32_t{});
    case AttrType::Int64:
      return read(std::int64_t{});
    case AttrType::Float32:
      return read(float{});
    case AttrType::Float64:
      return read(double{});
  }
  throw_bad_attr_type("as_double_from_bytes");
}

}  // namespace orv
