#include "obs/json.hpp"

#include <charconv>
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
  append_escaped(k);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::value(std::string_view v) {
  comma();
  out_ += '"';
  append_escaped(v);
  out_ += '"';
}

void JsonWriter::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no inf/nan
    return;
  }
  // The same bytes as printf("%.9g"), without a format-string parse or a
  // temporary string per number.
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::general, 9);
  out_.append(buf, r.ptr);
}

void JsonWriter::value(std::uint64_t v) {
  comma();
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, r.ptr);
}

void JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
}

void JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
}

void JsonWriter::append_escaped(std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += strformat("\\u%04x", c);
        } else {
          out_ += c;
        }
    }
  }
}

}  // namespace orv::obs
