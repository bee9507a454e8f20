#pragma once

// Automated bottleneck diagnosis: walks one query's trace critical path,
// per-node work accounting, cache/prefetch counters, occupancy samples and
// fault-recovery accounting, and emits a structured Diagnosis — dominant
// stage, straggler nodes, partition skew, cache thrash, switch saturation,
// prefetch waste, retry amplification, node loss — each finding with a
// confidence and a concrete knob suggestion. Detectors are pure functions
// of the input evaluated in a fixed order, so the same run always produces
// a bit-identical diagnosis (asserted by the chaos sweep).

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace orv::obs {

struct DiagFinding {
  std::string kind;        // stable identifier, e.g. "retry amplification"
  std::string detail;      // evidence, human-readable
  double confidence = 0;   // [0, 1]
  std::string suggestion;  // the knob to turn
};

/// Per-node work accounting, the executor's skew feed: how long the node
/// was busy with the query, how many work items (pairs / rows) it
/// processed, and how many bytes it pulled.
struct NodeWorkSample {
  std::size_t node = 0;
  double busy_seconds = 0;
  std::uint64_t items = 0;
  double bytes = 0;
};

/// Everything the detectors read, reduced to plain numbers (qes/analysis
/// fills it from QesResult and the run's trace; the diag layer depends on
/// no executor type).
struct DiagnosisInput {
  std::string query;
  std::string algorithm;  // "IndexedJoin" | "GraceHash"
  double elapsed = 0;

  /// Critical path of the run's trace DAG (empty, total 0, when no trace
  /// was assembled; the dominant-stage detector is then skipped).
  CriticalPath path;

  std::vector<NodeWorkSample> nodes;

  // Fault/recovery accounting (QesResult mirror).
  std::uint64_t fetch_retries = 0;
  std::uint64_t pairs_reassigned = 0;
  std::uint64_t rows_repartitioned = 0;
  std::uint64_t nodes_lost = 0;
  bool degraded = false;

  // Cache and prefetch behaviour (Indexed Join).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_puts = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_wasted = 0;

  /// Occupancy time series from the sampler; the switch-saturation
  /// detector reads the "occupancy.switch" track.
  std::vector<TimeSeries> series;

  /// True when the run already used placement-affinity scheduling (the
  /// locality suggestions are then suppressed).
  bool placement_affinity = false;
};

struct Diagnosis {
  std::string query;
  std::string algorithm;
  std::string dominant_stage;  // empty when no trace was available
  double dominant_share = 0;   // fraction of the critical path
  std::vector<DiagFinding> findings;

  bool has(std::string_view kind) const;
  std::string to_json() const;
  std::string to_string() const;  // one line, for bench columns/logs
};

Diagnosis diagnose(const DiagnosisInput& in);

}  // namespace orv::obs
