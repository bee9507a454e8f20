#include "schema/value.hpp"

#include <cmath>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace orv {

void throw_bad_attr_type(const char* where) {
  throw InvalidArgument(std::string("bad AttrType in ") + where);
}

AttrType Value::type() const {
  switch (v_.index()) {
    case 0: return AttrType::Int32;
    case 1: return AttrType::Int64;
    case 2: return AttrType::Float32;
    default: return AttrType::Float64;
  }
}

double Value::as_double() const {
  return std::visit([](auto v) { return static_cast<double>(v); }, v_);
}

std::int64_t Value::as_int64() const {
  return std::visit([](auto v) { return static_cast<std::int64_t>(v); }, v_);
}

Value Value::read(AttrType type, const std::byte* p) {
  switch (type) {
    case AttrType::Int32: {
      std::int32_t v;
      std::memcpy(&v, p, sizeof(v));
      return Value(v);
    }
    case AttrType::Int64: {
      std::int64_t v;
      std::memcpy(&v, p, sizeof(v));
      return Value(v);
    }
    case AttrType::Float32: {
      float v;
      std::memcpy(&v, p, sizeof(v));
      return Value(v);
    }
    case AttrType::Float64: {
      double v;
      std::memcpy(&v, p, sizeof(v));
      return Value(v);
    }
  }
  throw_bad_attr_type("Value::read");
}

void Value::write(AttrType type, std::byte* p) const {
  switch (type) {
    case AttrType::Int32: {
      const auto v = static_cast<std::int32_t>(as_int64());
      std::memcpy(p, &v, sizeof(v));
      return;
    }
    case AttrType::Int64: {
      const auto v = as_int64();
      std::memcpy(p, &v, sizeof(v));
      return;
    }
    case AttrType::Float32: {
      const auto v = static_cast<float>(as_double());
      std::memcpy(p, &v, sizeof(v));
      return;
    }
    case AttrType::Float64: {
      const auto v = as_double();
      std::memcpy(p, &v, sizeof(v));
      return;
    }
  }
  throw_bad_attr_type("Value::write");
}

std::uint64_t Value::key_lane() const {
  switch (v_.index()) {
    case 0:
      return static_cast<std::uint64_t>(
          static_cast<std::int64_t>(std::get<std::int32_t>(v_)));
    case 1:
      return static_cast<std::uint64_t>(std::get<std::int64_t>(v_));
    case 2:
      return float_lane(static_cast<double>(std::get<float>(v_)));
    default:
      return float_lane(std::get<double>(v_));
  }
}

std::string Value::to_string() const {
  switch (type()) {
    case AttrType::Int32:
    case AttrType::Int64:
      return strformat("%lld", static_cast<long long>(as_int64()));
    case AttrType::Float32:
    case AttrType::Float64:
      return strformat("%g", as_double());
  }
  return "?";
}

}  // namespace orv
