// Workload monitor: the four fixed rules — node-health and reject-rate
// thresholds, queue-growth rate of change, slo-burn multi-window burn
// rate — fire and resolve with their names, severities, thresholds and
// evidence; the alert stream is deterministic; and per-node health
// scoring (fault decay, penalty caps, the fault-free-can-never-page
// invariant) holds.

#include <gtest/gtest.h>

#include "obs/monitor.hpp"

namespace orv::obs {
namespace {

using Evidence = std::vector<std::pair<std::string, std::string>>;

/// `n` outcomes at time `t` with a deadline, `missed` of them missed.
void note_deadlines(Monitor& mon, double t, int n, int missed) {
  for (int i = 0; i < n; ++i) {
    mon.note_outcome(t, /*rejected=*/false, /*has_deadline=*/true,
                     /*deadline_met=*/i >= missed);
  }
}

// ---------------------------------------------------------- monitor

TEST(MonitorTest, ThresholdFiresAndResolves) {
  Monitor mon;
  mon.evaluate(1.0, 0, /*min_health=*/0.9);
  EXPECT_TRUE(mon.alerts().empty());

  mon.evaluate(2.0, 0, 0.3);
  ASSERT_EQ(mon.alerts().size(), 1u);
  const Alert& fired = mon.alerts()[0];
  EXPECT_EQ(fired.rule, "node-health");
  EXPECT_EQ(fired.severity, Severity::Critical);
  EXPECT_FALSE(fired.resolved);
  EXPECT_DOUBLE_EQ(fired.value, 0.3);
  EXPECT_DOUBLE_EQ(fired.threshold, NodeHealthTracker::kAlertThreshold);
  EXPECT_DOUBLE_EQ(fired.time, 2.0);
  EXPECT_EQ(fired.evidence,
            (Evidence{{"node.health.min", "0.3"}, {"selector", "gauge"}}));
  EXPECT_TRUE(mon.active("node-health"));
  EXPECT_EQ(mon.fired_count(), 1u);

  // Steady state: no duplicate alert while the condition holds.
  mon.evaluate(3.0, 0, 0.3);
  EXPECT_EQ(mon.alerts().size(), 1u);

  mon.evaluate(4.0, 0, 0.9);
  ASSERT_EQ(mon.alerts().size(), 2u);
  EXPECT_TRUE(mon.alerts()[1].resolved);
  EXPECT_FALSE(mon.active("node-health"));
  EXPECT_EQ(mon.fired_count(), 1u);  // resolutions don't count as firings
}

TEST(MonitorTest, RejectRateFiresOnAnyRejectionInItsWindow) {
  Monitor mon;
  mon.evaluate(1.0, 0, 1.0);
  mon.note_outcome(1.5, /*rejected=*/true, false, false);
  mon.evaluate(1.5, 0, 1.0);
  ASSERT_EQ(mon.alerts().size(), 1u);
  const Alert& a = mon.alerts()[0];
  EXPECT_EQ(a.rule, "reject-rate");
  EXPECT_EQ(a.severity, Severity::Warning);
  EXPECT_DOUBLE_EQ(a.value, 1.0 / 5.0);  // one rejection over a 5 s window
  EXPECT_DOUBLE_EQ(a.threshold, 0.0);
  EXPECT_EQ(a.evidence,
            (Evidence{{"workload.rejected", "0.2"}, {"selector", "rate"}}));
  // The rejection at 1.5 s is still inside the 5 s window at 6 s.
  mon.evaluate(6.0, 0, 1.0);
  EXPECT_TRUE(mon.active("reject-rate"));
  // Once the window holds no rejection the alert resolves.
  mon.evaluate(6.75, 0, 1.0);
  EXPECT_FALSE(mon.active("reject-rate"));
  ASSERT_EQ(mon.alerts().size(), 2u);
  EXPECT_EQ(mon.alerts()[1].rule, "reject-rate");
  EXPECT_TRUE(mon.alerts()[1].resolved);
  EXPECT_DOUBLE_EQ(mon.alerts()[1].time, 6.75);
  EXPECT_DOUBLE_EQ(mon.alerts()[1].value, 0.0);
  mon.evaluate(30.0, 0, 1.0);
  EXPECT_EQ(mon.alerts().size(), 2u);
  // A new rejection fires it again.
  mon.note_outcome(31.0, true, false, false);
  mon.evaluate(31.0, 0, 1.0);
  EXPECT_TRUE(mon.active("reject-rate"));
  ASSERT_EQ(mon.alerts().size(), 3u);
  EXPECT_FALSE(mon.alerts()[2].resolved);
  EXPECT_DOUBLE_EQ(mon.alerts()[2].time, 31.0);
}

TEST(MonitorTest, RateOfChangeSkipsFirstSampleThenDifferentiates) {
  Monitor mon;
  mon.evaluate(1.0, 100, 1.0);  // deep queue, but no derivative yet
  EXPECT_TRUE(mon.alerts().empty());

  mon.evaluate(2.0, 101, 1.0);  // +1/s: under threshold
  EXPECT_TRUE(mon.alerts().empty());

  mon.evaluate(3.0, 111, 1.0);  // +10/s
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].rule, "queue-growth");
  EXPECT_EQ(mon.alerts()[0].severity, Severity::Info);
  EXPECT_DOUBLE_EQ(mon.alerts()[0].value, 10.0);
  EXPECT_EQ(mon.alerts()[0].evidence,
            (Evidence{{"workload.queue_depth", "111"},
                      {"derivative_per_s", "10"}}));

  mon.evaluate(4.0, 111, 1.0);  // flat: resolves
  ASSERT_EQ(mon.alerts().size(), 2u);
  EXPECT_TRUE(mon.alerts()[1].resolved);
}

TEST(MonitorTest, BurnRateNeedsBothWindowsBurning) {
  Monitor mon;
  // Sustained 50% misses: burn = 0.5 / 0.05 = 10 in both windows.
  double t = 0;
  for (int i = 0; i < 20; ++i) {
    t += 0.25;
    note_deadlines(mon, t, 2, 1);
    mon.evaluate(t, 0, 1.0);
  }
  ASSERT_FALSE(mon.alerts().empty());
  const Alert& fired = mon.alerts()[0];
  EXPECT_EQ(fired.rule, "slo-burn");
  EXPECT_EQ(fired.severity, Severity::Critical);
  EXPECT_FALSE(fired.resolved);
  EXPECT_DOUBLE_EQ(fired.value, 10.0);
  EXPECT_DOUBLE_EQ(fired.threshold, Monitor::kSloBurnThreshold);
  EXPECT_DOUBLE_EQ(fired.time, 0.25);
  EXPECT_EQ(fired.evidence, (Evidence{{"short_burn", "10"},
                                      {"long_burn", "10"},
                                      {"workload.slo_missed", "1"},
                                      {"workload.slo_total", "2"}}));
  EXPECT_TRUE(mon.active("slo-burn"));

  // Recovery: traffic continues with every deadline met. The short
  // window drains, and min(short, long) drops below the threshold long
  // before the long window does — the SRE fast-resolve property.
  for (int i = 0; i < 30; ++i) {
    t += 0.25;
    note_deadlines(mon, t, 2, 0);
    mon.evaluate(t, 0, 1.0);
  }
  EXPECT_FALSE(mon.active("slo-burn"));
  EXPECT_TRUE(mon.alerts().back().resolved);
  EXPECT_EQ(mon.alerts().size(), 2u);
}

TEST(MonitorTest, BurnRateBlipInShortWindowAloneDoesNotPage) {
  // The same blip after two histories: a long healthy one, then none.
  auto blip_pages = [](bool healthy_history) {
    Monitor mon;
    double t = 0;
    for (int i = 0; i < 200; ++i) {  // 50 s
      t += 0.25;
      if (healthy_history) note_deadlines(mon, t, 10, 0);
      mon.evaluate(t, 0, 1.0);
    }
    // Six quiet seconds: the short window empties, the long one keeps
    // the healthy history.
    for (int i = 0; i < 24; ++i) {
      t += 0.25;
      mon.evaluate(t, 0, 1.0);
    }
    // Two misses: the short window burns 20; the long one, holding
    // ~2000 good outcomes, stays near 0.
    t += 0.25;
    note_deadlines(mon, t, 2, 2);
    mon.evaluate(t, 0, 1.0);
    return mon.active("slo-burn");
  };
  EXPECT_FALSE(blip_pages(true));
  EXPECT_TRUE(blip_pages(false));  // both windows burn: it pages
}

TEST(MonitorTest, AlertStreamIsDeterministic) {
  auto drive = [] {
    Monitor mon;
    double t = 0;
    for (int i = 0; i < 80; ++i) {
      t += 0.125;
      note_deadlines(mon, t, 3, i % 4 == 0 ? 1 : 0);
      if (i % 9 == 0) mon.note_outcome(t, true, true, false);
      mon.evaluate(t, (i * 7) % 5, (i % 7) / 5.0);
    }
    return mon.alerts();
  };
  const auto a = drive();
  const auto b = drive();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].seq, i);  // seq is the dense firing order
    EXPECT_EQ(a[i].rule, b[i].rule);
    EXPECT_EQ(a[i].resolved, b[i].resolved);
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_DOUBLE_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].evidence, b[i].evidence);
  }
}

TEST(MonitorTest, OnAlertCallbackSeesEveryTransition) {
  Monitor mon;
  std::vector<std::string> seen;
  mon.set_on_alert([&](const Alert& a) {
    seen.push_back(a.rule + (a.resolved ? ":resolved" : ":fired"));
  });
  mon.evaluate(1.0, 0, 0.2);
  mon.evaluate(2.0, 0, 1.0);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "node-health:fired");
  EXPECT_EQ(seen[1], "node-health:resolved");
}

// ------------------------------------------------------ node health

TEST(NodeHealth, FreshNodesAreFullyHealthy) {
  NodeHealthTracker h(2, 3);
  h.update(1.0);
  EXPECT_DOUBLE_EQ(h.min_health(), 1.0);
  EXPECT_DOUBLE_EQ(h.health(true, 0), 1.0);
  EXPECT_DOUBLE_EQ(h.health(false, 2), 1.0);
}

TEST(NodeHealth, FaultsDepressHealthThenDecayOut) {
  // Fault window 5s, 0.15 per fault capped at 0.6.
  NodeHealthTracker h(2, 2);
  for (int i = 0; i < 4; ++i) h.note_fault(true, 0, 1.0);
  h.update(1.0);
  EXPECT_NEAR(h.health(true, 0), 1.0 - 4 * 0.15, 1e-12);
  EXPECT_LT(h.min_health(),
            NodeHealthTracker::kAlertThreshold);  // enough faults page
  EXPECT_DOUBLE_EQ(h.health(true, 1), 1.0);        // attribution is per-node

  // Far past the fault window: the burst decays and health recovers.
  h.update(20.0);
  EXPECT_DOUBLE_EQ(h.health(true, 0), 1.0);
  EXPECT_DOUBLE_EQ(h.min_health(), 1.0);
}

TEST(NodeHealth, FaultPenaltyIsCapped) {
  NodeHealthTracker h(1, 1);
  for (int i = 0; i < 100; ++i) h.note_fault(false, 0, 2.0);
  h.update(2.0);
  EXPECT_NEAR(h.health(false, 0), 1.0 - 0.6, 1e-12);  // fault_cap
}

TEST(NodeHealth, FaultFreeNodesCanNeverPage) {
  // The engineered invariant behind "zero false-positive node alerts":
  // kStragglerCap + kBusyCap < 1 - kAlertThreshold, so without fault
  // events even the worst skew and saturation stay above the threshold.
  using H = NodeHealthTracker;
  NodeHealthTracker h(1, 3);
  h.observe_occupancy(false, 0, 1.0);                 // fully saturated
  h.observe_query_work({100.0, 0.0, 0.0});            // extreme straggler
  h.observe_occupancy(true, 0, 1.0);
  h.update(1.0);
  EXPECT_GT(h.min_health(), H::kAlertThreshold);
  // Straggler penalty is capped; busy penalty at full saturation is
  // (1.0 - kBusyStart). Worst fault-free total: 0.25 + 0.05 = 0.3.
  EXPECT_NEAR(h.health(false, 0),
              1.0 - H::kStragglerCap - (1.0 - H::kBusyStart), 1e-12);
  // Fed to the monitor, that worst case does not page.
  Monitor mon;
  mon.evaluate(1.0, 0, h.min_health());
  EXPECT_FALSE(mon.active("node-health"));
}

TEST(NodeHealth, StragglerDeviationComesFromQueryWork) {
  NodeHealthTracker h(0, 2);
  // Node 0 did 3x the mean: deviation (3-2)/2 = 0.5... relative to mean
  // busy = (3 + 1)/2 = 2 -> dev0 = 0.5, dev1 = 0. Penalty starts at 0.5,
  // so node 0 sits exactly at the start: no penalty yet.
  h.observe_query_work({3.0, 1.0});
  h.update(1.0);
  EXPECT_DOUBLE_EQ(h.health(false, 0), 1.0);
  // Heavier skew: busy = {5, 1}, mean 3, dev0 = 2/3 -> penalty 1/6.
  h.observe_query_work({5.0, 1.0});
  h.update(2.0);
  EXPECT_NEAR(h.health(false, 0), 1.0 - (2.0 / 3.0 - 0.5), 1e-12);
  EXPECT_DOUBLE_EQ(h.health(false, 1), 1.0);
}

TEST(NodeHealth, UnknownNodeIndicesAreIgnored) {
  NodeHealthTracker h(1, 1);
  h.note_fault(true, 99, 1.0);
  h.observe_occupancy(false, 99, 1.0);
  h.update(1.0);
  EXPECT_DOUBLE_EQ(h.min_health(), 1.0);
}

TEST(DefaultRules, CoverSloRejectQueueAndNodeHealth) {
  Monitor mon;
  mon.evaluate(1.0, 0, 1.0);  // primes queue-growth
  EXPECT_TRUE(mon.alerts().empty());
  // One rejected query that had a deadline, a queue jump and a sick node:
  // all four rules fire at one evaluation, in their fixed order.
  mon.note_outcome(2.0, /*rejected=*/true, /*has_deadline=*/true, false);
  mon.evaluate(2.0, 10, 0.25);
  ASSERT_EQ(mon.alerts().size(), 4u);
  const struct {
    const char* rule;
    Severity severity;
    double threshold;
  } want[] = {{"slo-burn", Severity::Critical, 2.0},
              {"reject-rate", Severity::Warning, 0.0},
              {"queue-growth", Severity::Info, 2.0},
              {"node-health", Severity::Critical, 0.5}};
  for (std::size_t i = 0; i < 4; ++i) {
    const Alert& a = mon.alerts()[i];
    EXPECT_EQ(a.seq, i);
    EXPECT_EQ(a.rule, want[i].rule);
    EXPECT_EQ(a.severity, want[i].severity);
    EXPECT_DOUBLE_EQ(a.threshold, want[i].threshold);
    EXPECT_DOUBLE_EQ(a.time, 2.0);
  }
  EXPECT_EQ(mon.active_rules(),
            (std::vector<std::string>{"slo-burn", "reject-rate",
                                      "queue-growth", "node-health"}));
  EXPECT_EQ(mon.alerts()[0].to_string(),
            "[critical] slo-burn fired at t=2.000000: value=20 threshold=2 "
            "short_burn=20 long_burn=20 workload.slo_missed=1 "
            "workload.slo_total=1");
}

}  // namespace
}  // namespace orv::obs
