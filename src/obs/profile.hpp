#pragma once

// Per-query execution profile: the span stream aggregated into named
// stages (total seconds, invocation count, quantiles), plus counters and
// the QPS PlanValidation record. This is what the fig4–fig9 benches emit
// alongside their series rows, giving the paper's end-to-end timing
// curves a stage-level breakdown.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/diag.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace orv::obs {

struct StageTime {
  std::string name;
  double seconds = 0;       // summed over all spans with this name
  std::uint64_t count = 0;  // number of spans
  double p50 = 0, p95 = 0, p99 = 0;  // over individual span durations
};

struct ExecutionProfile {
  std::string query;      // label, e.g. "fig4#3"
  std::string algorithm;  // "IndexedJoin" | "GraceHash"
  double elapsed = 0;     // end-to-end seconds
  std::vector<StageTime> stages;          // sorted by total seconds, desc
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  bool has_plan = false;
  PlanValidation plan;
  /// Optional bottleneck diagnosis for the run (obs/diag.hpp); emitted as
  /// a "diagnosis" object when present.
  bool has_diagnosis = false;
  Diagnosis diagnosis;

  std::string to_json() const;
};

/// Sums closed spans by name; quantiles come from the per-stage
/// "<name>_seconds" histograms when present in `ctx`'s registry.
std::vector<StageTime> aggregate_stages(const ObsContext& ctx);

/// Assembles a profile from the installed-run context.
ExecutionProfile build_profile(const ObsContext& ctx, std::string query,
                               std::string algorithm, double elapsed);

/// Writes the profile report, {"schema_version": 3, "profiles": [...]},
/// profile by profile, with ChromeTraceStream's take()/trailer().
class ProfileStream {
 public:
  ProfileStream();

  void add(const ExecutionProfile& profile) { w_.raw(profile.to_json()); }
  std::string take() { return w_.take(); }
  std::string trailer() const { return "]}\n"; }

 private:
  JsonWriter w_;
};

}  // namespace orv::obs
