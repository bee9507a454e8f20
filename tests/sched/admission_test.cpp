// AdmissionController: bounded FIFO run queue + rejection backpressure,
// exercised with synthetic fixed-duration "queries" on a bare simulation
// engine.

#include <gtest/gtest.h>

#include <vector>

#include "sched/admission.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

struct QueryRun {
  double admitted_at = -1;
  bool rejected = false;
};

/// Arrives at `at`, requests a slot, holds it for `dur` virtual seconds.
sim::Task<> synthetic_query(sim::Engine& engine, AdmissionController& adm,
                            double at, double dur, QueryRun& run) {
  co_await engine.wait_until(at);
  const bool ok = co_await adm.admit();
  if (!ok) {
    run.rejected = true;
    co_return;
  }
  run.admitted_at = engine.now();
  co_await engine.sleep(dur);
  adm.release();
}

TEST(Admission, UnlimitedWhenMaxRunningZero) {
  sim::Engine engine;
  AdmissionController adm(engine, {});
  std::vector<QueryRun> runs(8);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    engine.spawn(synthetic_query(engine, adm, 0.0, 5.0, runs[i]));
  }
  engine.run();
  for (const auto& r : runs) {
    EXPECT_FALSE(r.rejected);
    EXPECT_DOUBLE_EQ(r.admitted_at, 0.0);  // nobody waited
  }
  EXPECT_EQ(adm.admitted(), 8u);
  EXPECT_EQ(adm.rejected(), 0u);
}

TEST(Admission, BoundsConcurrencyAndFifoOrder) {
  sim::Engine engine;
  AdmissionConfig cfg;
  cfg.max_running = 2;
  AdmissionController adm(engine, cfg);
  std::vector<QueryRun> runs(4);
  // All arrive at t=0; each runs 10s. With 2 slots: two start at 0, the
  // next two at 10 — in arrival (spawn) order under FIFO.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    engine.spawn(synthetic_query(engine, adm, 0.0, 10.0, runs[i]));
  }
  engine.run();
  EXPECT_DOUBLE_EQ(runs[0].admitted_at, 0.0);
  EXPECT_DOUBLE_EQ(runs[1].admitted_at, 0.0);
  EXPECT_DOUBLE_EQ(runs[2].admitted_at, 10.0);
  EXPECT_DOUBLE_EQ(runs[3].admitted_at, 10.0);
}

TEST(Admission, RejectsWhenQueueFull) {
  sim::Engine engine;
  AdmissionConfig cfg;
  cfg.max_running = 1;
  cfg.max_queued = 1;
  AdmissionController adm(engine, cfg);
  std::vector<QueryRun> runs(3);
  // Stagger arrivals so the order is unambiguous: q0 runs, q1 queues,
  // q2 finds the queue full and bounces.
  engine.spawn(synthetic_query(engine, adm, 0.0, 10.0, runs[0]));
  engine.spawn(synthetic_query(engine, adm, 1.0, 10.0, runs[1]));
  engine.spawn(synthetic_query(engine, adm, 2.0, 10.0, runs[2]));
  engine.run();
  EXPECT_FALSE(runs[0].rejected);
  EXPECT_FALSE(runs[1].rejected);
  EXPECT_TRUE(runs[2].rejected);
  EXPECT_DOUBLE_EQ(runs[1].admitted_at, 10.0);
  EXPECT_EQ(adm.rejected(), 1u);
  EXPECT_EQ(adm.admitted(), 2u);
}

TEST(Admission, SlotHandoffKeepsRunningConstant) {
  sim::Engine engine;
  AdmissionConfig cfg;
  cfg.max_running = 2;
  AdmissionController adm(engine, cfg);
  std::vector<QueryRun> runs(6);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    engine.spawn(
        synthetic_query(engine, adm, static_cast<double>(i), 7.0, runs[i]));
  }
  engine.run();
  EXPECT_EQ(adm.running(), 0u);
  EXPECT_EQ(adm.queued(), 0u);
  EXPECT_EQ(adm.admitted(), 6u);
  for (const auto& r : runs) EXPECT_FALSE(r.rejected);
}

TEST(Admission, WaitersAreServedInArrivalOrderWhateverTheirLength) {
  sim::Engine engine;
  AdmissionConfig cfg;
  cfg.max_running = 1;
  AdmissionController adm(engine, cfg);
  std::vector<QueryRun> runs(3);
  // q1 (8 s) arrives before q2 (1 s): FIFO serves q1 first even though
  // q2 is shorter.
  engine.spawn(synthetic_query(engine, adm, 0.0, 10.0, runs[0]));
  engine.spawn(synthetic_query(engine, adm, 1.0, 8.0, runs[1]));
  engine.spawn(synthetic_query(engine, adm, 2.0, 1.0, runs[2]));
  engine.run();
  EXPECT_DOUBLE_EQ(runs[0].admitted_at, 0.0);
  EXPECT_DOUBLE_EQ(runs[1].admitted_at, 10.0);
  EXPECT_DOUBLE_EQ(runs[2].admitted_at, 18.0);
  EXPECT_EQ(adm.rejected(), 0u);
}

TEST(Admission, UnboundedQueueSerializesWithoutRejecting) {
  sim::Engine engine;
  AdmissionConfig cfg;
  cfg.max_running = 1;  // max_queued 0: the wait queue has no bound
  AdmissionController adm(engine, cfg);
  std::vector<QueryRun> runs(5);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    engine.spawn(synthetic_query(engine, adm, 0.0, 2.0, runs[i]));
  }
  engine.run();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_FALSE(runs[i].rejected);
    EXPECT_DOUBLE_EQ(runs[i].admitted_at, 2.0 * static_cast<double>(i));
  }
  EXPECT_EQ(adm.admitted(), 5u);
  EXPECT_EQ(adm.rejected(), 0u);
}

TEST(Admission, ReleaseWithNoWaiterFreesTheSlot) {
  sim::Engine engine;
  AdmissionConfig cfg;
  cfg.max_running = 1;
  cfg.max_queued = 1;
  AdmissionController adm(engine, cfg);
  std::vector<QueryRun> runs(2);
  // q0 finishes at 1, long before q1 arrives: q1 takes the freed slot at
  // once instead of queueing.
  engine.spawn(synthetic_query(engine, adm, 0.0, 1.0, runs[0]));
  engine.spawn(synthetic_query(engine, adm, 5.0, 1.0, runs[1]));
  engine.run();
  EXPECT_DOUBLE_EQ(runs[1].admitted_at, 5.0);
  EXPECT_EQ(adm.running(), 0u);
  EXPECT_EQ(adm.queued(), 0u);
  EXPECT_EQ(adm.admitted(), 2u);
}

}  // namespace
}  // namespace orv
