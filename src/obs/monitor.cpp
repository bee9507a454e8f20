#include "obs/monitor.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace orv::obs {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Critical: return "critical";
  }
  return "?";
}

std::string Alert::to_string() const {
  std::string s = strformat("[%s] %s %s at t=%.6f: value=%.6g threshold=%.6g",
                            severity_name(severity), rule.c_str(),
                            resolved ? "resolved" : "fired", time, value,
                            threshold);
  for (const auto& [k, v] : evidence) s += " " + k + "=" + v;
  return s;
}

// ------------------------------------------------------------ Monitor --

namespace {

struct RuleInfo {
  const char* name;
  Severity severity;
  double threshold;
};

// Indexed by Monitor::RuleId.
constexpr RuleInfo kRuleInfo[] = {
    {"slo-burn", Severity::Critical, Monitor::kSloBurnThreshold},
    {"reject-rate", Severity::Warning, 0.0},
    {"queue-growth", Severity::Info, Monitor::kQueueGrowthPerSecond},
    {"node-health", Severity::Critical, NodeHealthTracker::kAlertThreshold},
};

/// Error-budget burn of one window: its missed fraction over the budget,
/// 0 for an empty window.
double burn(const WindowedCounter& missed, const WindowedCounter& total) {
  const auto t = total.windowed_total();
  if (t == 0) return 0.0;
  const double frac =
      static_cast<double>(missed.windowed_total()) / static_cast<double>(t);
  return frac / Monitor::kSloBudget;
}

}  // namespace

// Each burn window has 10 slots: slot-boundary quantization stays under
// 10% of the window while the ring stays tiny.
Monitor::Monitor()
    : short_missed_(kSloShortWindow / 10, 10),
      short_total_(kSloShortWindow / 10, 10),
      long_missed_(kSloLongWindow / 10, 10),
      long_total_(kSloLongWindow / 10, 10),
      rejected_(kRejectSlotSeconds, kRejectSlots) {}

void Monitor::note_outcome(double t, bool rejected, bool has_deadline,
                           bool deadline_met) {
  if (has_deadline) {
    ++slo_total_;
    if (!deadline_met) ++slo_missed_;
  }
  if (rejected) rejected_.add(t, 1);
}

void Monitor::transition(
    RuleId rule, double now, bool firing, double value,
    std::vector<std::pair<std::string, std::string>> evidence) {
  if (firing == active_[rule]) return;
  active_[rule] = firing;
  const RuleInfo& info = kRuleInfo[rule];
  Alert a;
  a.seq = next_seq_++;
  a.time = now;
  a.rule = info.name;
  a.severity = info.severity;
  a.resolved = !firing;
  a.value = value;
  a.threshold = info.threshold;
  a.evidence = std::move(evidence);
  if (firing) ++fired_;
  alerts_.push_back(std::move(a));
  // The callback may dump the flight recorder or write a dash line; it
  // must not mutate the monitor (evaluate is not reentrant).
  if (on_alert_) on_alert_(alerts_.back());
}

void Monitor::evaluate(double now, std::size_t queue_depth,
                       double min_health) {
  // slo-burn: mirror the deadline counts since the last evaluation into
  // the short/long rings, then compare both windows' burn. The rings
  // always advance, even with a zero delta: windowed totals are "as of
  // last event", so a ring that stops receiving events would never decay
  // and the alert could never resolve.
  const std::uint64_t d_missed = slo_missed_ - burned_missed_;
  const std::uint64_t d_total = slo_total_ - burned_total_;
  burned_missed_ = slo_missed_;
  burned_total_ = slo_total_;
  short_missed_.add(now, d_missed);
  long_missed_.add(now, d_missed);
  short_total_.add(now, d_total);
  long_total_.add(now, d_total);
  const double burn_short = burn(short_missed_, short_total_);
  const double burn_long = burn(long_missed_, long_total_);
  // Both windows must burn: the long window proves it is sustained, the
  // short window proves it is still happening.
  const double slo = std::min(burn_short, burn_long);
  transition(kSloBurn, now, slo >= kSloBurnThreshold, slo,
             {{"short_burn", strformat("%.6g", burn_short)},
              {"long_burn", strformat("%.6g", burn_long)},
              {"workload.slo_missed",
               strformat("%llu", (unsigned long long)slo_missed_)},
              {"workload.slo_total",
               strformat("%llu", (unsigned long long)slo_total_)}});

  // reject-rate: advance the ring to `now` first, like the burn rings, so
  // a window with no rejection reads 0 and the alert resolves.
  rejected_.add(now, 0);
  const double reject_rate = rejected_.rate();
  transition(kRejectRate, now, reject_rate > 0.0, reject_rate,
             {{"workload.rejected", strformat("%.6g", reject_rate)},
              {"selector", "rate"}});

  // queue-growth: the first sample has no derivative.
  const auto depth = static_cast<double>(queue_depth);
  if (has_prev_depth_) {
    const double growth =
        now > prev_time_ ? (depth - prev_depth_) / (now - prev_time_) : 0.0;
    transition(kQueueGrowth, now, growth > kQueueGrowthPerSecond, growth,
               {{"workload.queue_depth", strformat("%.6g", depth)},
                {"derivative_per_s", strformat("%.6g", growth)}});
  }
  has_prev_depth_ = true;
  prev_depth_ = depth;
  prev_time_ = now;

  transition(kNodeHealth, now,
             min_health < NodeHealthTracker::kAlertThreshold, min_health,
             {{"node.health.min", strformat("%.6g", min_health)},
              {"selector", "gauge"}});
}

bool Monitor::active(std::string_view rule_name) const {
  for (int r = 0; r < kRules; ++r) {
    if (kRuleInfo[r].name == rule_name) return active_[r];
  }
  return false;
}

std::vector<std::string> Monitor::active_rules() const {
  std::vector<std::string> out;
  for (int r = 0; r < kRules; ++r) {
    if (active_[r]) out.push_back(kRuleInfo[r].name);
  }
  return out;
}

// -------------------------------------------------- NodeHealthTracker --

NodeHealthTracker::NodeHealthTracker(std::size_t num_storage,
                                     std::size_t num_compute) {
  auto init = [&](std::vector<NodeState>& lane, std::size_t n) {
    lane.resize(n);
    for (NodeState& s : lane) {
      s.faults =
          std::make_unique<WindowedCounter>(kFaultWindowSeconds / 8.0, 8);
    }
  };
  init(storage_, num_storage);
  init(compute_, num_compute);
}

void NodeHealthTracker::note_fault(bool storage, std::size_t node,
                                   double now) {
  auto& l = lane(storage);
  if (node >= l.size()) return;  // unknown node: ignore, never resize
  l[node].faults->add(now, 1);
}

void NodeHealthTracker::observe_occupancy(bool storage, std::size_t node,
                                          double busy_frac) {
  auto& l = lane(storage);
  if (node >= l.size()) return;
  l[node].busy_frac = std::clamp(busy_frac, 0.0, 1.0);
}

void NodeHealthTracker::observe_query_work(
    const std::vector<double>& busy_by_compute_node) {
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t j = 0; j < busy_by_compute_node.size() &&
                          j < compute_.size();
       ++j) {
    sum += busy_by_compute_node[j];
    ++n;
  }
  if (n == 0) return;
  const double mean = sum / static_cast<double>(n);
  for (std::size_t j = 0; j < n; ++j) {
    compute_[j].straggler_dev =
        mean > 0
            ? std::max(0.0, (busy_by_compute_node[j] - mean) / mean)
            : 0.0;
  }
}

void NodeHealthTracker::recompute(NodeState& n, double now) {
  // "As of now": a fault burst older than the window must decay even if
  // no new fault arrived, so advance the ring with a zero-count event.
  n.faults->add(now, 0);
  const double faults =
      static_cast<double>(n.faults->windowed_total());
  const double fault_pen = std::min(kFaultCap, kFaultWeight * faults);
  const double straggler_pen =
      std::min(kStragglerCap, std::max(0.0, n.straggler_dev - kStragglerStart));
  const double busy_pen =
      std::min(kBusyCap, std::max(0.0, n.busy_frac - kBusyStart));
  n.score = std::clamp(1.0 - fault_pen - straggler_pen - busy_pen, 0.0, 1.0);
}

void NodeHealthTracker::update(double now) {
  min_health_ = 1.0;
  for (auto* lane : {&storage_, &compute_}) {
    for (NodeState& n : *lane) {
      recompute(n, now);
      min_health_ = std::min(min_health_, n.score);
    }
  }
}

double NodeHealthTracker::health(bool storage, std::size_t node) const {
  const auto& l = storage ? storage_ : compute_;
  return node < l.size() ? l[node].score : 1.0;
}

double NodeHealthTracker::min_health() const { return min_health_; }

}  // namespace orv::obs
