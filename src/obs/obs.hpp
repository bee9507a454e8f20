#pragma once

// Process-wide observability context: one Registry + one Tracer + a
// pluggable Clock, installed for the duration of an instrumented run
// (typically one query). When no context is installed — the default —
// every instrumentation site reduces to one relaxed atomic load and a
// predictable branch, so the disabled overhead is a no-op.
//
// Instrumented code does:
//
//   if (auto* ctx = obs::context()) ctx->registry.counter("x").add(1);
//
// or uses StageScope, which opens a span and closes it. The span is the
// only record of stage time: the profile's per-stage quantiles and the
// Prometheus stage histograms are both computed from the spans of one
// ObsSnapshot.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace orv::obs {

/// Per-stage accuracy record: one cost-model term (transfer, write, read,
/// cpu) against the virtual seconds the critical path attributed to the
/// matching stage (network, spill, disk, cpu).
struct StageAccuracy {
  std::string stage;
  double predicted = 0;
  double measured = 0;

  double error_ratio() const {
    return predicted > 0 ? measured / predicted : 0.0;
  }
};

/// QPS cost-model feedback: what the planner predicted vs. what the run
/// measured, one record per executed query.
struct PlanValidation {
  std::string query;        // caller-supplied label
  std::string chosen;       // algorithm the planner picked
  std::string executed;     // algorithm actually run (may differ if forced)
  double predicted_ij = 0;  // model total for Indexed Join, seconds
  double predicted_gh = 0;  // model total for Grace Hash, seconds
  double predicted = 0;     // model total for the chosen algorithm
  double measured = 0;      // simulated/real elapsed seconds
  /// True when the planner consulted calibrated hardware parameters; the
  /// pre-calibration prediction is then kept in predicted_prior so the
  /// pre/post error ratios stay comparable.
  bool calibrated = false;
  double predicted_prior = 0;  // model total under the uncalibrated priors
  /// Per-stage model terms vs critical-path attribution (may be empty
  /// when no trace was assembled for the run).
  std::vector<StageAccuracy> stages;

  /// measured / predicted; 0 when the prediction is degenerate.
  double error_ratio() const {
    return predicted > 0 ? measured / predicted : 0.0;
  }
  /// measured / predicted_prior — what the error would have been without
  /// calibration; 0 when no prior prediction was recorded.
  double prior_error_ratio() const {
    return predicted_prior > 0 ? measured / predicted_prior : 0.0;
  }
};

/// One sampled counter track: (virtual time, value) points recorded by the
/// sim-time occupancy sampler at fixed intervals. Exported as Chrome
/// trace-event counter tracks.
struct TimeSeries {
  std::string name;
  std::vector<std::pair<double, double>> points;
};

/// Everything a context recorded, read once: the spans, the registry's
/// counters and gauges, the sampled counter tracks and the plan records.
/// Each sink of a query reads these values, not the live context.
struct ObsSnapshot {
  std::vector<SpanRecord> spans;
  MetricsSnapshot metrics;
  std::vector<TimeSeries> series;
  std::vector<PlanValidation> plans;
};

class ObsContext {
  const Clock* clock_;  // declared first: the tracer captures it

 public:
  /// `clock` must outlive the context; it stamps spans.
  explicit ObsContext(const Clock* clock)
      : clock_(clock), tracer(clock) {}

  Registry registry;
  Tracer tracer;

  /// Sampling interval for the sim-time occupancy sampler, in virtual
  /// seconds. 0 (the default) disables sampling entirely; the joins only
  /// spawn the sampler coroutine when this is positive, so the default
  /// event schedule is untouched.
  double sample_interval = 0;

  const Clock* clock() const { return clock_; }

  void add_plan_validation(PlanValidation pv);
  std::vector<PlanValidation> plan_validations() const;

  /// Appends one point to the named counter track (creates it on first
  /// use). `t` is the context clock's virtual time.
  void add_sample(std::string_view series, double t, double v);
  std::vector<TimeSeries> time_series() const;

  /// Reads the tracer, the registry, the tracks and the plan records
  /// once each.
  ObsSnapshot snapshot() const {
    return {tracer.snapshot(), registry.snapshot(), time_series(),
            plan_validations()};
  }

  /// Fresh trace id for one query's TraceContext (1-based; monotonic per
  /// context).
  std::uint64_t next_trace_id() {
    return trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  mutable std::mutex mu_;
  std::vector<PlanValidation> plan_validations_;
  std::vector<TimeSeries> series_;
  std::atomic<std::uint64_t> trace_ids_{0};
};

/// Installs `ctx` as the process-wide context (nullptr uninstalls). The
/// caller keeps ownership and must uninstall before destroying it.
void install(ObsContext* ctx);
void uninstall();

/// The installed context, or nullptr (the common, fully-disabled case).
inline ObsContext* context() {
  extern std::atomic<ObsContext*> g_context;
  return g_context.load(std::memory_order_acquire);
}

/// RAII install/uninstall of a context the scope owns.
class ScopedInstall {
 public:
  explicit ScopedInstall(ObsContext& ctx) { install(&ctx); }
  ~ScopedInstall() { uninstall(); }
  ScopedInstall(const ScopedInstall&) = delete;
  ScopedInstall& operator=(const ScopedInstall&) = delete;
};

/// One instrumented stage: a span named `name`, open for the scope's
/// lifetime. All operations are no-ops when `ctx` is null, so call sites
/// can hoist the context() load once per scope.
class StageScope {
 public:
  StageScope() = default;
  StageScope(ObsContext* ctx, std::string_view name, SpanId parent = {})
      : ctx_(ctx) {
    if (ctx_) id_ = ctx_->tracer.begin(name, parent);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;
  StageScope(StageScope&& o) noexcept : ctx_(o.ctx_), id_(o.id_) {
    o.ctx_ = nullptr;
  }
  ~StageScope() { close(); }

  SpanId id() const { return id_; }

  template <typename V>
  void tag(std::string_view key, V value) {
    if (ctx_) ctx_->tracer.tag(id_, key, value);
  }

  double close() {
    double d = 0;
    if (ctx_) {
      d = ctx_->tracer.end(id_);
      ctx_ = nullptr;
    }
    return d;
  }

 private:
  ObsContext* ctx_ = nullptr;
  SpanId id_;
};

}  // namespace orv::obs
