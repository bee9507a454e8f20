#pragma once

// Minimal JSON writer shared by the observability exporters (profile
// report, Chrome trace, flight-recorder dumps). No external dependency;
// output is compact valid JSON.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace orv::obs {

/// Version stamp shared by the JSON exporters (profile report, Chrome
/// trace, flight-recorder dumps). Bumped whenever an exporter's structure
/// changes, so downstream consumers (CI smoke validators, plotting
/// scripts) fail loudly on drift instead of silently misreading.
/// History: 1 = original unversioned exporters, 2 = versioned + windowed
/// metrics + diagnosis, 3 = monitor alerts + flight-recorder dumps +
/// labeled Prometheus exposition.
inline constexpr std::uint64_t kObsSchemaVersion = 3;

/// Streaming writer; the caller is responsible for well-formed nesting
/// (begin/end pairs). Keys and separators are emitted automatically.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(std::string_view k);
  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(bool v);
  /// Splices a pre-serialized JSON value (object/array/scalar) in value
  /// position; the caller guarantees it is well-formed.
  void raw(std::string_view json);

  const std::string& str() const { return out_; }
  /// Returns the bytes written since the last take() and keeps the
  /// nesting state, so a document can be written out piece by piece.
  std::string take() { return std::exchange(out_, {}); }

 private:
  void comma();
  void append_escaped(std::string_view s);

  std::string out_;
  std::vector<bool> first_in_scope_;
  bool pending_key_ = false;
};

}  // namespace orv::obs
