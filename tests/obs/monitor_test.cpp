// Streaming monitor: threshold / rate-of-change / multi-window burn-rate
// semantics, alert determinism, registry-published alert state, the
// default workload rule set, and per-node health scoring (fault decay,
// penalty caps, the fault-free-can-never-page invariant).

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/monitor.hpp"

namespace orv::obs {
namespace {

// ---------------------------------------------------------- monitor

TEST(MonitorTest, ThresholdFiresAndResolves) {
  Registry reg;
  Monitor mon(reg, {Rule::make_threshold("deep-queue", Selector::GaugeValue,
                                         "q.depth", Cmp::GT, 5.0,
                                         Severity::Warning)});
  reg.gauge("q.depth").set(3);
  mon.evaluate(1.0);
  EXPECT_TRUE(mon.alerts().empty());

  reg.gauge("q.depth").set(9);
  mon.evaluate(2.0);
  ASSERT_EQ(mon.alerts().size(), 1u);
  const Alert& fired = mon.alerts()[0];
  EXPECT_EQ(fired.rule, "deep-queue");
  EXPECT_FALSE(fired.resolved);
  EXPECT_DOUBLE_EQ(fired.value, 9.0);
  EXPECT_DOUBLE_EQ(fired.time, 2.0);
  EXPECT_TRUE(mon.active("deep-queue"));
  EXPECT_EQ(mon.fired_count(), 1u);
  // Alert state published back into the registry for the exposition.
  EXPECT_DOUBLE_EQ(reg.gauge("alert.active.rule.deep-queue").value(), 1.0);
  EXPECT_EQ(reg.counter("alert.fired.rule.deep-queue").value(), 1u);

  // Steady state: no duplicate alert while the condition holds.
  mon.evaluate(3.0);
  EXPECT_EQ(mon.alerts().size(), 1u);

  reg.gauge("q.depth").set(2);
  mon.evaluate(4.0);
  ASSERT_EQ(mon.alerts().size(), 2u);
  EXPECT_TRUE(mon.alerts()[1].resolved);
  EXPECT_FALSE(mon.active("deep-queue"));
  EXPECT_DOUBLE_EQ(reg.gauge("alert.active.rule.deep-queue").value(), 0.0);
  EXPECT_EQ(mon.fired_count(), 1u);  // resolutions don't count as firings
}

TEST(MonitorTest, RateOfChangeSkipsFirstSampleThenDifferentiates) {
  Registry reg;
  Monitor mon(reg,
              {Rule::make_rate_of_change("qgrowth", Selector::GaugeValue,
                                         "q.depth", Cmp::GT, 2.0,
                                         Severity::Info)});
  reg.gauge("q.depth").set(100);  // huge absolute value, but no derivative
  mon.evaluate(1.0);
  EXPECT_TRUE(mon.alerts().empty());  // first sample: no previous point

  reg.gauge("q.depth").set(101);  // +1/s: under threshold
  mon.evaluate(2.0);
  EXPECT_TRUE(mon.alerts().empty());

  reg.gauge("q.depth").set(111);  // +10/s
  mon.evaluate(3.0);
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_DOUBLE_EQ(mon.alerts()[0].value, 10.0);

  reg.gauge("q.depth").set(111);  // flat: resolves
  mon.evaluate(4.0);
  ASSERT_EQ(mon.alerts().size(), 2u);
  EXPECT_TRUE(mon.alerts()[1].resolved);
}

TEST(MonitorTest, BurnRateNeedsBothWindowsBurning) {
  Registry reg;
  Monitor mon(reg, {Rule::make_burn_rate("slo", "bad", "total",
                                         /*budget=*/0.1, /*short=*/1.0,
                                         /*long=*/10.0, /*threshold=*/2.0)});
  auto& bad = reg.counter("bad");
  auto& total = reg.counter("total");

  // Sustained 50% failure: burn = (0.5 / 0.1) = 5 in both windows.
  double t = 0;
  for (int i = 0; i < 20; ++i) {
    t += 0.25;
    total.add(2);
    bad.add(1);
    mon.evaluate(t);
  }
  ASSERT_FALSE(mon.alerts().empty());
  EXPECT_EQ(mon.alerts()[0].rule, "slo");
  EXPECT_FALSE(mon.alerts()[0].resolved);
  EXPECT_GE(mon.alerts()[0].value, 2.0);
  EXPECT_TRUE(mon.active("slo"));

  // Recovery: traffic continues with zero failures. The short window
  // drains quickly, and min(short, long) drops below the threshold long
  // before the long window does — the SRE fast-resolve property.
  for (int i = 0; i < 10; ++i) {
    t += 0.25;
    total.add(2);
    mon.evaluate(t);
  }
  EXPECT_FALSE(mon.active("slo"));
  EXPECT_TRUE(mon.alerts().back().resolved);
}

TEST(MonitorTest, BurnRateBlipInShortWindowAloneDoesNotPage) {
  Registry reg;
  Monitor mon(reg, {Rule::make_burn_rate("slo", "bad", "total", 0.1, 1.0,
                                         10.0, 2.0)});
  auto& bad = reg.counter("bad");
  auto& total = reg.counter("total");
  // A long healthy history...
  double t = 0;
  for (int i = 0; i < 40; ++i) {
    t += 0.25;
    total.add(10);
    mon.evaluate(t);
  }
  // ...then one bad quarter-second blip. Short-window burn spikes, but
  // the long window still holds ~400 good events: min() stays low.
  t += 0.25;
  total.add(2);
  bad.add(2);
  mon.evaluate(t);
  EXPECT_FALSE(mon.active("slo"));
}

TEST(MonitorTest, AlertStreamIsDeterministic) {
  auto drive = [] {
    Registry reg;
    Monitor mon(
        reg,
        {Rule::make_threshold("g", Selector::GaugeValue, "v", Cmp::GT, 0.5),
         Rule::make_burn_rate("b", "bad", "total", 0.05, 1.0, 4.0, 1.0)});
    double t = 0;
    for (int i = 0; i < 50; ++i) {
      t += 0.125;
      reg.gauge("v").set((i % 7) / 5.0);
      reg.counter("total").add(3);
      if (i % 4 == 0) reg.counter("bad").add(1);
      mon.evaluate(t);
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
  }
}

TEST(MonitorTest, OnAlertCallbackSeesEveryTransition) {
  Registry reg;
  Monitor mon(reg, {Rule::make_threshold("g", Selector::GaugeValue, "v",
                                         Cmp::GT, 1.0)});
  std::vector<std::string> seen;
  mon.set_on_alert([&](const Alert& a) {
    seen.push_back(a.rule + (a.resolved ? ":resolved" : ":fired"));
  });
  reg.gauge("v").set(2);
  mon.evaluate(1.0);
  reg.gauge("v").set(0);
  mon.evaluate(2.0);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "g:fired");
  EXPECT_EQ(seen[1], "g:resolved");
}

// ------------------------------------------------------ node health

TEST(NodeHealth, FreshNodesAreFullyHealthy) {
  Registry reg;
  NodeHealthTracker h(reg, 2, 3);
  h.publish(1.0);
  EXPECT_DOUBLE_EQ(h.min_health(), 1.0);
  EXPECT_DOUBLE_EQ(h.health(true, 0), 1.0);
  EXPECT_DOUBLE_EQ(h.health(false, 2), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("node.health.node.storage0").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("node.health.min").value(), 1.0);
}

TEST(NodeHealth, FaultsDepressHealthThenDecayOut) {
  Registry reg;
  // Fault window 5s, 0.15 per fault capped at 0.6.
  NodeHealthTracker h(reg, 2, 2);
  for (int i = 0; i < 4; ++i) h.note_fault(true, 0, 1.0);
  h.publish(1.0);
  EXPECT_NEAR(h.health(true, 0), 1.0 - 4 * 0.15, 1e-12);
  EXPECT_LT(h.min_health(),
            NodeHealthTracker::kAlertThreshold);  // enough faults page
  EXPECT_DOUBLE_EQ(h.health(true, 1), 1.0);        // attribution is per-node

  // Far past the fault window: the burst decays and health recovers.
  h.publish(20.0);
  EXPECT_DOUBLE_EQ(h.health(true, 0), 1.0);
  EXPECT_DOUBLE_EQ(h.min_health(), 1.0);
}

TEST(NodeHealth, FaultPenaltyIsCapped) {
  Registry reg;
  NodeHealthTracker h(reg, 1, 1);
  for (int i = 0; i < 100; ++i) h.note_fault(false, 0, 2.0);
  h.publish(2.0);
  EXPECT_NEAR(h.health(false, 0), 1.0 - 0.6, 1e-12);  // fault_cap
}

TEST(NodeHealth, FaultFreeNodesCanNeverPage) {
  // The engineered invariant behind "zero false-positive node alerts":
  // kStragglerCap + kBusyCap < 1 - kAlertThreshold, so without fault
  // events even the worst skew and saturation stay above the threshold.
  using H = NodeHealthTracker;
  Registry reg;
  NodeHealthTracker h(reg, 1, 3);
  h.observe_occupancy(false, 0, 1.0);                 // fully saturated
  h.observe_query_work({100.0, 0.0, 0.0});            // extreme straggler
  h.observe_occupancy(true, 0, 1.0);
  h.publish(1.0);
  EXPECT_GT(h.min_health(), H::kAlertThreshold);
  // Straggler penalty is capped; busy penalty at full saturation is
  // (1.0 - kBusyStart). Worst fault-free total: 0.25 + 0.05 = 0.3.
  EXPECT_NEAR(h.health(false, 0),
              1.0 - H::kStragglerCap - (1.0 - H::kBusyStart), 1e-12);
}

TEST(NodeHealth, StragglerDeviationComesFromQueryWork) {
  Registry reg;
  NodeHealthTracker h(reg, 0, 2);
  // Node 0 did 3x the mean: deviation (3-2)/2 = 0.5... relative to mean
  // busy = (3 + 1)/2 = 2 -> dev0 = 0.5, dev1 = 0. Penalty starts at 0.5,
  // so node 0 sits exactly at the start: no penalty yet.
  h.observe_query_work({3.0, 1.0});
  h.publish(1.0);
  EXPECT_DOUBLE_EQ(h.health(false, 0), 1.0);
  // Heavier skew: busy = {5, 1}, mean 3, dev0 = 2/3 -> penalty 1/6.
  h.observe_query_work({5.0, 1.0});
  h.publish(2.0);
  EXPECT_NEAR(h.health(false, 0), 1.0 - (2.0 / 3.0 - 0.5), 1e-12);
  EXPECT_DOUBLE_EQ(h.health(false, 1), 1.0);
}

TEST(NodeHealth, UnknownNodeIndicesAreIgnored) {
  Registry reg;
  NodeHealthTracker h(reg, 1, 1);
  h.note_fault(true, 99, 1.0);
  h.observe_occupancy(false, 99, 1.0);
  h.publish(1.0);
  EXPECT_DOUBLE_EQ(h.min_health(), 1.0);
}

TEST(DefaultRules, CoverSloRejectQueueAndNodeHealth) {
  const auto rules = default_workload_rules();
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].name, "slo-burn");
  EXPECT_EQ(rules[0].kind, RuleKind::BurnRate);
  EXPECT_EQ(rules[0].bad_metric, "workload.slo_missed");
  EXPECT_EQ(rules[3].name, "node-health");
  EXPECT_DOUBLE_EQ(rules[3].threshold, NodeHealthTracker::kAlertThreshold);
}

}  // namespace
}  // namespace orv::obs
