#pragma once

// Lightweight span tracer: named, nested, tagged spans timestamped by a
// pluggable Clock. Parent linkage is explicit (pass the parent's SpanId)
// rather than via an implicit thread-local stack: the hot paths here are
// coroutines multiplexed on one thread by sim::Engine, where "the
// currently open span" is a per-coroutine notion, not a per-thread one.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.hpp"

namespace orv::obs {

/// 1-based handle into the tracer's span table; 0 means "no span".
struct SpanId {
  std::uint32_t value = 0;
  explicit operator bool() const { return value != 0; }
  bool operator==(const SpanId& o) const { return value == o.value; }
};

/// Causal context that rides simulated messages (BDS fetch RPCs, Grace
/// Hash h1 row batches, supervisor round assignments) so spans emitted on
/// different simulated nodes link into one DAG per query. `parent` is the
/// requesting/sending span; `trace_id` groups every span of one query.
struct TraceContext {
  std::uint64_t trace_id = 0;
  SpanId parent;
};

struct SpanRecord {
  SpanId id;
  SpanId parent;         // 0 = root; structural (same-node) parent
  SpanId link;           // 0 = none; remote causal parent (cross-node edge)
  std::string name;
  double start = 0;
  double end = -1;       // < start means still open
  std::vector<std::pair<std::string, std::string>> tags;

  bool closed() const { return end >= start; }
  double duration() const { return closed() ? end - start : 0; }
  bool has_tag(std::string_view key) const {
    for (const auto& [k, v] : tags) {
      if (k == key) return true;
    }
    return false;
  }
  const std::string* tag_value(std::string_view key) const {
    for (const auto& [k, v] : tags) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Tracer {
 public:
  explicit Tracer(const Clock* clock) : clock_(clock) {}

  SpanId begin(std::string_view name, SpanId parent = {});

  /// Closes the span; returns its duration (0 for an invalid id).
  double end(SpanId id);

  /// Closes the span at an explicit timestamp (e.g. the virtual instant
  /// the query finished, when a trailing sampler tick has already advanced
  /// the clock past it).
  double end_at(SpanId id, double at);

  /// Closes a span whose owner died mid-flight (fail-stop compute crash):
  /// tags it `orphaned` so trace assembly can tell an abandoned stage from
  /// a completed one, then ends it normally.
  double end_orphaned(SpanId id);

  /// Records a remote causal parent (cross-node edge) on the span.
  void link(SpanId id, SpanId remote_parent);

  void tag(SpanId id, std::string_view key, std::string value);
  void tag(SpanId id, std::string_view key, double value);
  void tag(SpanId id, std::string_view key, std::uint64_t value);

  std::size_t num_spans() const;
  std::size_t num_open_spans() const;
  std::vector<SpanRecord> snapshot() const;

 private:
  mutable std::mutex mu_;
  const Clock* clock_;
  std::vector<SpanRecord> spans_;
};

}  // namespace orv::obs
