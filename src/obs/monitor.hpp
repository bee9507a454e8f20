#pragma once

// Deterministic workload monitor: four fixed rules — a multi-window SLO
// burn rate, a rejection-rate threshold, a queue-growth rate of change
// and a node-health floor — evaluated at points on the *virtual* clock,
// firing typed Alert events with severity and an evidence snapshot. The
// workload driver hands the monitor plain numbers (each outcome's
// rejection and deadline result, the queue depth, the minimum node
// health) and the monitor keeps the windows it judges them over, so the
// alert stream is a pure function of one run: bit-identical per seed,
// replayable, and safe to assert on in tests.
//
// The burn rule mirrors the run's deadline counts into its own
// short/long WindowedCounter rings at each evaluation and fires only when
// *both* windows burn error budget faster than the threshold (the SRE
// fast-burn/slow-burn AND that suppresses blips without missing sustained
// burn).
//
// Alongside the monitor lives NodeHealthTracker: a per-node health score
// in [0, 1] aggregating occupancy busy fractions, fault events within a
// decaying window, and straggler deviation from the per-query node-work
// breakdown. Penalty caps are chosen so a fault-free run — however
// skewed — can never cross the alert threshold: only injected faults can
// page.

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

/// The four workload rules, evaluated in this order (which is also the
/// `seq` order of alerts raised at one evaluation):
///   slo-burn      critical  min(short, long) deadline-miss burn >= 2, at
///                           a 5% budget over 5 s and 60 s windows
///   reject-rate   warning   rejections per second over 5 s > 0
///   queue-growth  info      queue-depth derivative between evaluations
///                           > 2 per second (the first evaluation only
///                           primes it)
///   node-health   critical  minimum node health <
///                           NodeHealthTracker::kAlertThreshold
/// Call note_outcome for every resolved query and evaluate(now, ...) at
/// any deterministic point (per outcome, periodic tick); transitions
/// append to the alert log and invoke the callback.
class Monitor {
 public:
  static constexpr double kSloBudget = 0.05;  // tolerated missed fraction
  static constexpr double kSloShortWindow = 5;  // virtual seconds
  static constexpr double kSloLongWindow = 60;
  static constexpr double kSloBurnThreshold = 2;
  /// Rejection-rate window: 20 slots of 0.25 virtual seconds.
  static constexpr double kRejectSlotSeconds = 0.25;
  static constexpr std::size_t kRejectSlots = 20;
  static constexpr double kQueueGrowthPerSecond = 2;

  Monitor();

  /// One resolved query at virtual time `t`: whether admission rejected
  /// it, and for a query with a deadline whether it met it.
  void note_outcome(double t, bool rejected, bool has_deadline,
                    bool deadline_met);
  /// Evaluates the four rules at `now` against the current admission
  /// queue depth and the minimum node health.
  void evaluate(double now, std::size_t queue_depth, double min_health);

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
  enum RuleId { kSloBurn, kRejectRate, kQueueGrowth, kNodeHealth, kRules };

  void transition(RuleId rule, double now, bool firing, double value,
                  std::vector<std::pair<std::string, std::string>> evidence);

  bool active_[kRules] = {};
  std::vector<Alert> alerts_;
  std::function<void(const Alert&)> on_alert_;
  std::uint64_t next_seq_ = 0;
  std::size_t fired_ = 0;

  // slo-burn: the run's cumulative deadline counts, the counts already
  // mirrored into the rings, and the short/long bad and total rings.
  std::uint64_t slo_missed_ = 0, slo_total_ = 0;
  std::uint64_t burned_missed_ = 0, burned_total_ = 0;
  WindowedCounter short_missed_, short_total_;
  WindowedCounter long_missed_, long_total_;
  // reject-rate: rejections by outcome time.
  WindowedCounter rejected_;
  // queue-growth: the previous evaluation's depth and time.
  bool has_prev_depth_ = false;
  double prev_depth_ = 0, prev_time_ = 0;
};

// ------------------------------------------------------------- health --

/// Per-node health scoring over deterministic observations. The tracker
/// never reads the cluster itself — callers feed it plain scalars
/// (occupancy busy fractions, per-node busy seconds of a finished query,
/// fault events) so it stays layering-clean below qes/workload.
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
  /// The monitor's node-health rule pages when the minimum score falls
  /// below this.
  static constexpr double kAlertThreshold = 0.5;

  NodeHealthTracker(std::size_t num_storage, std::size_t num_compute);

  /// A fault event attributed to a node (injected I/O error, observed
  /// crash, retry burst). `storage` selects the node namespace.
  void note_fault(bool storage, std::size_t node, double now);
  /// Busy fraction of one node over the last sampling interval, in [0,1].
  void observe_occupancy(bool storage, std::size_t node, double busy_frac);
  /// Per-compute-node busy seconds of a finished query (QesResult
  /// node_work); updates straggler deviations.
  void observe_query_work(const std::vector<double>& busy_by_compute_node);

  /// Recomputes the scores as of `now`. Deterministic in the observation
  /// stream and `now`.
  void update(double now);

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

  std::vector<NodeState> storage_;
  std::vector<NodeState> compute_;
  double min_health_ = 1.0;
};

}  // namespace orv::obs
