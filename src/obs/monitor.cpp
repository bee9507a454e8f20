#include "obs/monitor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
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

const char* selector_name(Selector s) {
  switch (s) {
    case Selector::GaugeValue: return "gauge";
    case Selector::WindowRate: return "rate";
  }
  return "?";
}

bool cmp_eval(Cmp c, double value, double threshold) {
  switch (c) {
    case Cmp::LT: return value < threshold;
    case Cmp::GT: return value > threshold;
    case Cmp::GE: return value >= threshold;
  }
  return false;
}

Rule Rule::make_threshold(std::string name, Selector sel, std::string metric,
                          Cmp cmp, double threshold, Severity sev) {
  Rule r;
  r.name = std::move(name);
  r.severity = sev;
  r.kind = RuleKind::Threshold;
  r.selector = sel;
  r.metric = std::move(metric);
  r.cmp = cmp;
  r.threshold = threshold;
  return r;
}

Rule Rule::make_rate_of_change(std::string name, Selector sel,
                               std::string metric, Cmp cmp, double per_second,
                               Severity sev) {
  Rule r = make_threshold(std::move(name), sel, std::move(metric), cmp,
                          per_second, sev);
  r.kind = RuleKind::RateOfChange;
  return r;
}

Rule Rule::make_burn_rate(std::string name, std::string bad_metric,
                          std::string total_metric, double budget,
                          double short_window, double long_window,
                          double threshold, Severity sev) {
  ORV_REQUIRE(budget > 0, "burn-rate rule needs a positive error budget");
  ORV_REQUIRE(short_window > 0 && long_window >= short_window,
              "burn-rate windows must satisfy 0 < short <= long");
  Rule r;
  r.name = std::move(name);
  r.severity = sev;
  r.kind = RuleKind::BurnRate;
  r.cmp = Cmp::GE;
  r.threshold = threshold;
  r.bad_metric = std::move(bad_metric);
  r.total_metric = std::move(total_metric);
  r.budget = budget;
  r.short_window = short_window;
  r.long_window = long_window;
  return r;
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

Monitor::Monitor(Registry& registry, std::vector<Rule> rules)
    : registry_(registry) {
  states_.reserve(rules.size());
  for (Rule& r : rules) {
    RuleState st;
    st.rule = std::move(r);
    if (st.rule.kind == RuleKind::BurnRate) {
      // 10 slots per window keeps slot-boundary quantization under 10% of
      // the window while the ring stays tiny.
      const double ss = st.rule.short_window / 10.0;
      const double ls = st.rule.long_window / 10.0;
      st.burn.short_bad = std::make_unique<WindowedCounter>(ss, 10);
      st.burn.short_total = std::make_unique<WindowedCounter>(ss, 10);
      st.burn.long_bad = std::make_unique<WindowedCounter>(ls, 10);
      st.burn.long_total = std::make_unique<WindowedCounter>(ls, 10);
    }
    states_.push_back(std::move(st));
  }
}

double Monitor::read_selector(Selector sel, const std::string& metric) const {
  switch (sel) {
    case Selector::GaugeValue:
      return registry_.gauge(metric).value();
    case Selector::WindowRate:
      return registry_.windowed_counter(metric).rate();
  }
  return 0;
}

void Monitor::transition(
    RuleState& st, double now, double value,
    std::vector<std::pair<std::string, std::string>> evidence) {
  const bool firing = cmp_eval(st.rule.cmp, value, st.rule.threshold);
  if (firing == st.active) return;
  st.active = firing;
  Alert a;
  a.seq = next_seq_++;
  a.time = now;
  a.rule = st.rule.name;
  a.severity = st.rule.severity;
  a.resolved = !firing;
  a.value = value;
  a.threshold = st.rule.threshold;
  a.evidence = std::move(evidence);
  if (firing) {
    ++fired_;
    registry_.counter("alert.fired.rule." + st.rule.name).add(1);
    registry_.counter("monitor.alerts.fired").add(1);
  }
  registry_.gauge("alert.active.rule." + st.rule.name).set(firing ? 1 : 0);
  alerts_.push_back(a);
  // The callback may dump the flight recorder or write a dash line; it
  // must not mutate the monitor (evaluate is not reentrant).
  if (on_alert_) on_alert_(alerts_.back());
}

void Monitor::evaluate(double now) {
  for (RuleState& st : states_) {
    const Rule& r = st.rule;
    switch (r.kind) {
      case RuleKind::Threshold: {
        const double v = read_selector(r.selector, r.metric);
        transition(st, now, v,
                   {{r.metric, strformat("%.6g", v)},
                    {"selector", selector_name(r.selector)}});
        break;
      }
      case RuleKind::RateOfChange: {
        const double v = read_selector(r.selector, r.metric);
        double rate = 0;
        if (st.has_prev && now > st.prev_time) {
          rate = (v - st.prev_value) / (now - st.prev_time);
        }
        const bool had_prev = st.has_prev;
        st.has_prev = true;
        st.prev_value = v;
        st.prev_time = now;
        if (!had_prev) break;  // first sample has no derivative
        transition(st, now, rate,
                   {{r.metric, strformat("%.6g", v)},
                    {"derivative_per_s", strformat("%.6g", rate)}});
        break;
      }
      case RuleKind::BurnRate: {
        // Mirror cumulative counter deltas into the rule's own
        // short/long rings, then compare both windows' burn.
        const double bad =
            static_cast<double>(registry_.counter(r.bad_metric).value());
        const double total =
            static_cast<double>(registry_.counter(r.total_metric).value());
        const auto d_bad =
            static_cast<std::uint64_t>(std::max(0.0, bad - st.burn.prev_bad));
        const auto d_total = static_cast<std::uint64_t>(
            std::max(0.0, total - st.burn.prev_total));
        st.burn.prev_bad = bad;
        st.burn.prev_total = total;
        // Always advance the rings, even with a zero delta: windowed
        // totals are "as of last event", so a ring that stops receiving
        // events would never decay and the alert could never resolve.
        st.burn.short_bad->add(now, d_bad);
        st.burn.long_bad->add(now, d_bad);
        st.burn.short_total->add(now, d_total);
        st.burn.long_total->add(now, d_total);
        auto burn = [&r](const WindowedCounter& b, const WindowedCounter& t) {
          const auto tt = t.windowed_total();
          if (tt == 0) return 0.0;
          const double frac =
              static_cast<double>(b.windowed_total()) / static_cast<double>(tt);
          return frac / r.budget;
        };
        const double burn_short =
            burn(*st.burn.short_bad, *st.burn.short_total);
        const double burn_long = burn(*st.burn.long_bad, *st.burn.long_total);
        // Both windows must burn: the long window proves it is sustained,
        // the short window proves it is still happening.
        const double v = std::min(burn_short, burn_long);
        transition(st, now, v,
                   {{"short_burn", strformat("%.6g", burn_short)},
                    {"long_burn", strformat("%.6g", burn_long)},
                    {r.bad_metric, strformat("%.0f", bad)},
                    {r.total_metric, strformat("%.0f", total)}});
        break;
      }
    }
  }
}

bool Monitor::active(std::string_view rule_name) const {
  for (const RuleState& st : states_) {
    if (st.rule.name == rule_name) return st.active;
  }
  return false;
}

std::vector<std::string> Monitor::active_rules() const {
  std::vector<std::string> out;
  for (const RuleState& st : states_) {
    if (st.active) out.push_back(st.rule.name);
  }
  return out;
}

// -------------------------------------------------- NodeHealthTracker --

NodeHealthTracker::NodeHealthTracker(Registry& registry,
                                     std::size_t num_storage,
                                     std::size_t num_compute)
    : registry_(registry) {
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

void NodeHealthTracker::publish(double now) {
  min_health_ = 1.0;
  auto walk = [&](std::vector<NodeState>& lane, const char* kind) {
    for (std::size_t i = 0; i < lane.size(); ++i) {
      recompute(lane[i], now);
      registry_.gauge(strformat("node.health.node.%s%zu", kind, i))
          .set(lane[i].score);
      min_health_ = std::min(min_health_, lane[i].score);
    }
  };
  walk(storage_, "storage");
  walk(compute_, "compute");
  registry_.gauge("node.health.min").set(min_health_);
}

double NodeHealthTracker::health(bool storage, std::size_t node) const {
  const auto& l = storage ? storage_ : compute_;
  return node < l.size() ? l[node].score : 1.0;
}

double NodeHealthTracker::min_health() const { return min_health_; }

double NodeHealthTracker::capacity_fraction() const {
  if (compute_.empty()) return 1.0;
  double sum = 0;
  for (const NodeState& n : compute_) sum += n.score;
  return std::clamp(sum / static_cast<double>(compute_.size()), 0.0, 1.0);
}

std::vector<Rule> default_workload_rules() {
  std::vector<Rule> rules;
  rules.push_back(Rule::make_burn_rate(
      "slo-burn", "workload.slo_missed", "workload.slo_total", 0.05, 5.0,
      60.0, 2.0, Severity::Critical));
  rules.push_back(Rule::make_threshold(
      "reject-rate", Selector::WindowRate, "workload.rejected", Cmp::GT, 0.0,
      Severity::Warning));
  rules.push_back(Rule::make_rate_of_change(
      "queue-growth", Selector::GaugeValue, "workload.queue_depth", Cmp::GT,
      2.0, Severity::Info));
  rules.push_back(Rule::make_threshold(
      "node-health", Selector::GaugeValue, "node.health.min", Cmp::LT,
      NodeHealthTracker::kAlertThreshold, Severity::Critical));
  return rules;
}

}  // namespace orv::obs
