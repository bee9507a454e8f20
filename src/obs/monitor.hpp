#pragma once

// Deterministic streaming monitor over the metrics registry: a rule set —
// thresholds, rate-of-change, and Google-SRE-style multi-window SLO burn
// rates — evaluated at points on the *virtual* clock, firing typed Alert
// events with severity and an evidence snapshot. Because every input is
// "as of last event" windowed telemetry and evaluation points are
// simulation events, the alert stream is a pure function of the workload:
// bit-identical per seed, replayable, and safe to assert on in tests.
//
// Rules are built in code: Rule::make_threshold (a selector over one
// registry instrument against a bound), Rule::make_rate_of_change (the
// same selector differentiated between consecutive evaluations), and
// Rule::make_burn_rate; default_workload_rules assembles the set workload
// runs use. A burn rule mirrors two cumulative counters into its own
// short/long WindowedCounter rings at each evaluation and fires only when
// *both* windows burn error budget faster than the threshold (the SRE
// fast-burn/slow-burn AND that suppresses blips without missing sustained
// burn).
//
// Alongside the rules lives NodeHealthTracker: a per-node health score in
// [0, 1] aggregating occupancy busy fractions, fault events within a
// decaying window, and straggler deviation from the per-query node-work
// breakdown. Penalty caps are chosen so a fault-free run — however
// skewed — can never cross the default alert threshold: only injected
// faults can page.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace orv::obs {

enum class Severity { Info, Warning, Critical };
const char* severity_name(Severity s);

enum class RuleKind { Threshold, RateOfChange, BurnRate };

/// Which scalar of a registry instrument a rule reads.
enum class Selector {
  GaugeValue,
  WindowRate,  // windowed counter, events/second over its window
};
const char* selector_name(Selector s);

enum class Cmp { LT, GT, GE };
bool cmp_eval(Cmp c, double value, double threshold);

struct Rule {
  std::string name;
  Severity severity = Severity::Warning;
  RuleKind kind = RuleKind::Threshold;

  Selector selector = Selector::GaugeValue;
  std::string metric;  // registry instrument name (threshold / roc)
  Cmp cmp = Cmp::GT;
  double threshold = 0;

  // BurnRate only: numerator/denominator counters and the SRE windows.
  std::string bad_metric;
  std::string total_metric;
  double budget = 0.01;      // tolerated bad/total fraction
  double short_window = 5;   // virtual seconds
  double long_window = 60;

  static Rule make_threshold(std::string name, Selector sel,
                             std::string metric, Cmp cmp, double threshold,
                             Severity sev = Severity::Warning);
  /// Fires on the discrete derivative between consecutive evaluations:
  /// (value(now) - value(prev)) / (now - prev) compared against the
  /// threshold.
  static Rule make_rate_of_change(std::string name, Selector sel,
                                  std::string metric, Cmp cmp,
                                  double per_second,
                                  Severity sev = Severity::Warning);
  static Rule make_burn_rate(std::string name, std::string bad_metric,
                             std::string total_metric, double budget,
                             double short_window, double long_window,
                             double threshold,
                             Severity sev = Severity::Critical);
};

/// One firing (or resolution) of a rule. `seq` is the deterministic total
/// order over the run.
struct Alert {
  std::uint64_t seq = 0;
  double time = 0;
  std::string rule;
  Severity severity = Severity::Warning;
  bool resolved = false;  // false = fired, true = condition cleared
  double value = 0;       // observed value at the transition
  double threshold = 0;
  /// Evidence snapshot: the rule's inputs at fire time, name -> rendered
  /// value.
  std::vector<std::pair<std::string, std::string>> evidence;

  std::string to_string() const;
};

/// Evaluates the rule set against a registry. Call evaluate(now) at any
/// deterministic point (per-outcome, periodic tick); transitions append
/// to the alert log and invoke the callback. Alert state is also
/// published back into the registry — gauge `alert.active.rule.<name>`
/// (0/1) and counter `alert.fired.rule.<name>` — so the Prometheus
/// exposition carries current alert states for free.
class Monitor {
 public:
  Monitor(Registry& registry, std::vector<Rule> rules);

  void evaluate(double now);

  /// Every transition so far, in firing order (seq ascending).
  const std::vector<Alert>& alerts() const { return alerts_; }
  /// Fired (non-resolved) alerts only.
  std::size_t fired_count() const { return fired_; }
  bool active(std::string_view rule_name) const;
  std::vector<std::string> active_rules() const;

  /// Invoked on every transition, after the alert is appended. Used to
  /// chain the flight recorder and dashboard.
  void set_on_alert(std::function<void(const Alert&)> cb) {
    on_alert_ = std::move(cb);
  }

 private:
  struct BurnState {
    std::unique_ptr<WindowedCounter> short_bad, short_total;
    std::unique_ptr<WindowedCounter> long_bad, long_total;
    double prev_bad = 0, prev_total = 0;
  };
  struct RuleState {
    Rule rule;
    bool active = false;
    bool has_prev = false;  // rate-of-change: seen at least one sample
    double prev_value = 0, prev_time = 0;
    BurnState burn;
  };

  double read_selector(Selector sel, const std::string& metric) const;
  void transition(RuleState& st, double now, double value,
                  std::vector<std::pair<std::string, std::string>> evidence);

  Registry& registry_;
  std::vector<RuleState> states_;
  std::vector<Alert> alerts_;
  std::function<void(const Alert&)> on_alert_;
  std::uint64_t next_seq_ = 0;
  std::size_t fired_ = 0;
};

// ------------------------------------------------------------- health --

/// Per-node health scoring over deterministic observations. The tracker
/// never reads the cluster itself — callers feed it plain scalars
/// (occupancy busy fractions, per-node busy seconds of a finished query,
/// fault events) so it stays layering-clean below qes/workload. Scores
/// publish as gauges `node.health.node.<storage|compute><i>` plus
/// `node.health.min`, ready for the Prometheus label extraction.
class NodeHealthTracker {
 public:
  /// Fault events decay out of the score over this window.
  static constexpr double kFaultWindowSeconds = 5.0;
  /// Penalty per fault event inside the window, and its cap. The cap is
  /// the only penalty that can push a node below the alert threshold:
  /// busy/straggler caps sum to less than (1 - kAlertThreshold), so a
  /// fault-free node can never page regardless of skew.
  static constexpr double kFaultWeight = 0.15;
  static constexpr double kFaultCap = 0.6;
  /// Straggler deviation (node busy vs mean node busy of the last query)
  /// starts costing above this fraction, capped.
  static constexpr double kStragglerStart = 0.5;
  static constexpr double kStragglerCap = 0.25;
  /// Sustained occupancy above this busy fraction costs up to kBusyCap.
  static constexpr double kBusyStart = 0.95;
  static constexpr double kBusyCap = 0.1;
  /// The node-health rule of default_workload_rules pages when
  /// `node.health.min` falls below this.
  static constexpr double kAlertThreshold = 0.5;

  NodeHealthTracker(Registry& registry, std::size_t num_storage,
                    std::size_t num_compute);

  /// A fault event attributed to a node (injected I/O error, observed
  /// crash, retry burst). `storage` selects the node namespace.
  void note_fault(bool storage, std::size_t node, double now);
  /// Busy fraction of one node over the last sampling interval, in [0,1].
  void observe_occupancy(bool storage, std::size_t node, double busy_frac);
  /// Per-compute-node busy seconds of a finished query (QesResult
  /// node_work); updates straggler deviations.
  void observe_query_work(const std::vector<double>& busy_by_compute_node);

  /// Recomputes scores and publishes the gauges. Deterministic in the
  /// observation stream and `now`.
  void publish(double now);

  double health(bool storage, std::size_t node) const;
  double min_health() const;

  std::size_t num_storage() const { return storage_.size(); }
  std::size_t num_compute() const { return compute_.size(); }

 private:
  struct NodeState {
    std::unique_ptr<WindowedCounter> faults;  // decaying fault events
    double busy_frac = 0;
    double straggler_dev = 0;  // (busy - mean)/mean of last query, >= 0
    double score = 1.0;
  };

  void recompute(NodeState& n, double now);
  std::vector<NodeState>& lane(bool storage) {
    return storage ? storage_ : compute_;
  }

  Registry& registry_;
  std::vector<NodeState> storage_;
  std::vector<NodeState> compute_;
  double min_health_ = 1.0;
};

/// The rule set of workload runs: sustained deadline-miss burn (a 5%
/// budget over 5s/60s windows of workload.slo_missed vs
/// workload.slo_total), rejection backpressure, queue-depth growth, and
/// the node-health page at NodeHealthTracker::kAlertThreshold.
std::vector<Rule> default_workload_rules();

}  // namespace orv::obs
