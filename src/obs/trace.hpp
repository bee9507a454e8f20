#pragma once

// Trace assembly and critical-path analysis over Tracer span snapshots.
//
// A query's spans — emitted on different simulated nodes and linked by the
// TraceContext that rides every sim message — are assembled into one causal
// DAG. Structural `parent` edges express same-coroutine nesting; `link`
// edges express cross-node causality (the h1 batch a receiver ingested was
// produced by a specific partitioner flush on a storage node).
//
// The critical path is recovered by a backward walk from the root span's
// end: at each instant the walk descends into the contributor (structural
// child or link parent) whose end is the latest not after the current
// cursor; gaps where no contributor ends are the span's own self-time. The
// attributed intervals are contiguous, so their durations sum to exactly
// the root span's duration — which is what lets per-stage attribution be
// cross-checked against the planner's CostBreakdown terms.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/span.hpp"

namespace orv::obs {

/// Resource class a span's virtual time is attributed to. Mirrors the
/// cost model's terms: transfer -> Network, write -> Spill, read -> Disk,
/// cpu_build + cpu_lookup -> Cpu. CacheWait is consumer starvation on the
/// prefetch channel; Other is coordination self-time.
enum class Stage : std::uint8_t {
  Disk,
  Network,
  Cpu,
  CacheWait,
  Spill,
  Other,
};
inline constexpr std::size_t kNumStages = 6;

const char* stage_name(Stage s);

/// Maps a span name to its stage. Unknown names classify as Other.
Stage classify_span(std::string_view name);

/// One query's spans assembled into a causal DAG, tolerant of malformed
/// input: duplicate child spans from retries are kept as siblings, spans
/// whose parent is missing from the snapshot become extra roots, open
/// spans are retained but never chosen by the critical-path walk.
class TraceDag {
 public:
  static TraceDag assemble(std::vector<SpanRecord> spans);

  const SpanRecord* find(SpanId id) const;
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Structural children (span.parent == id), in snapshot order.
  const std::vector<SpanId>& children_of(SpanId id) const;

  /// Spans with no resolvable structural parent.
  const std::vector<SpanId>& roots() const { return roots_; }

  std::size_t open_count() const { return open_; }

 private:
  std::vector<SpanRecord> spans_;
  std::unordered_map<std::uint32_t, std::uint32_t> index_;  // id -> pos
  std::vector<std::vector<SpanId>> children_;               // by pos
  std::vector<SpanId> roots_;
  std::size_t open_ = 0;
};

/// One contiguous interval of the critical path, attributed to `span`.
/// `self` distinguishes a span's own gap time from descended child time
/// (every segment is "own" time of its span; the flag marks intervals
/// where the walk found no contributor, i.e. the span itself was the
/// bottleneck rather than merely enclosing one).
struct PathSegment {
  SpanId span;
  std::string name;
  Stage stage = Stage::Other;
  double begin = 0;
  double end = 0;

  double duration() const { return end - begin; }
};

struct CriticalPath {
  std::vector<PathSegment> segments;  // time-ordered, contiguous
  double total = 0;                   // == root span duration
  std::array<double, kNumStages> by_stage{};

  double stage_seconds(Stage s) const {
    return by_stage[static_cast<std::size_t>(s)];
  }
  Stage dominant() const;
};

/// Backward-walk critical path from `root`'s end to its start. Contributor
/// candidates at a span are its structural children plus its link parent;
/// ties on end time break toward the longer span, then the lower id, so
/// the result is deterministic. Ties are exact (eps only widens the window
/// a candidate's end may fall in); the walk is O(n log n) in the spans.
CriticalPath critical_path(const TraceDag& dag, SpanId root);

}  // namespace orv::obs
