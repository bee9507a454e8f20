#include "obs/json.hpp"

#include <cmath>

#include "common/strings.hpp"

namespace orv::obs {

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!first_in_scope_.empty()) {
    if (!first_in_scope_.back()) out_ += ',';
    first_in_scope_.back() = false;
  }
}

void JsonWriter::begin_object() {
  comma();
  out_ += '{';
  first_in_scope_.push_back(true);
}

void JsonWriter::end_object() {
  out_ += '}';
  first_in_scope_.pop_back();
}

void JsonWriter::begin_array() {
  comma();
  out_ += '[';
  first_in_scope_.push_back(true);
}

void JsonWriter::end_array() {
  out_ += ']';
  first_in_scope_.pop_back();
}

void JsonWriter::key(std::string_view k) {
  comma();
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::value(std::string_view v) {
  comma();
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
}

void JsonWriter::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no inf/nan
    return;
  }
  out_ += strformat("%.9g", v);
}

void JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += strformat("%llu", static_cast<unsigned long long>(v));
}

void JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
}

void JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strformat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace orv::obs
