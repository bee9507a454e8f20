// AdmissionController: bounded run queue + policy ordering + rejection
// backpressure, exercised with synthetic fixed-duration "queries" on a
// bare simulation engine.

#include <gtest/gtest.h>

#include <vector>

#include "sched/admission.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

struct QueryRun {
  std::size_t client = 0;
  double admitted_at = -1;
  bool rejected = false;
};

/// Arrives at `at`, requests a slot, holds it for `dur` virtual seconds.
sim::Task<> synthetic_query(sim::Engine& engine, AdmissionController& adm,
                            std::size_t client, double at, double dur,
                            double predicted, QueryRun& run) {
  co_await engine.wait_until(at);
  run.client = client;
  const bool ok = co_await adm.admit(client, predicted);
  if (!ok) {
    run.rejected = true;
    co_return;
  }
  run.admitted_at = engine.now();
  co_await engine.sleep(dur);
  adm.release(client, dur);
}

TEST(Admission, UnlimitedWhenMaxRunningZero) {
  sim::Engine engine;
  AdmissionController adm(engine, {});
  std::vector<QueryRun> runs(8);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    engine.spawn(synthetic_query(engine, adm, i, 0.0, 5.0, 1.0, runs[i]));
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
    engine.spawn(synthetic_query(engine, adm, i, 0.0, 10.0, 1.0, runs[i]));
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
  engine.spawn(synthetic_query(engine, adm, 0, 0.0, 10.0, 1.0, runs[0]));
  engine.spawn(synthetic_query(engine, adm, 1, 1.0, 10.0, 1.0, runs[1]));
  engine.spawn(synthetic_query(engine, adm, 2, 2.0, 10.0, 1.0, runs[2]));
  engine.run();
  EXPECT_FALSE(runs[0].rejected);
  EXPECT_FALSE(runs[1].rejected);
  EXPECT_TRUE(runs[2].rejected);
  EXPECT_DOUBLE_EQ(runs[1].admitted_at, 10.0);
  EXPECT_EQ(adm.rejected(), 1u);
  EXPECT_EQ(adm.admitted(), 2u);
}

TEST(Admission, ShortestCostFirstReordersQueue) {
  sim::Engine engine;
  AdmissionConfig cfg;
  cfg.max_running = 1;
  cfg.policy = AdmissionPolicy::ShortestCostFirst;
  AdmissionController adm(engine, cfg);
  std::vector<QueryRun> runs(4);
  engine.spawn(synthetic_query(engine, adm, 0, 0.0, 10.0, 5.0, runs[0]));
  // Three queue up behind q0 with predicted costs 9, 1, 4: SJF serves
  // them 2 (cost 1), 3 (cost 4), 1 (cost 9).
  engine.spawn(synthetic_query(engine, adm, 1, 1.0, 2.0, 9.0, runs[1]));
  engine.spawn(synthetic_query(engine, adm, 2, 1.0, 2.0, 1.0, runs[2]));
  engine.spawn(synthetic_query(engine, adm, 3, 1.0, 2.0, 4.0, runs[3]));
  engine.run();
  EXPECT_DOUBLE_EQ(runs[2].admitted_at, 10.0);
  EXPECT_DOUBLE_EQ(runs[3].admitted_at, 12.0);
  EXPECT_DOUBLE_EQ(runs[1].admitted_at, 14.0);
}

TEST(Admission, FairShareFavorsLightClient) {
  sim::Engine engine;
  AdmissionConfig cfg;
  cfg.max_running = 1;
  cfg.policy = AdmissionPolicy::FairShare;
  AdmissionController adm(engine, cfg);
  std::vector<QueryRun> runs(4);
  // Client 0 hogs the slot for 50s. Then client 0's second query and
  // client 1's first are both waiting: fair share picks client 1 (zero
  // accumulated service) despite client 0 arriving first.
  engine.spawn(synthetic_query(engine, adm, 0, 0.0, 50.0, 1.0, runs[0]));
  engine.spawn(synthetic_query(engine, adm, 0, 1.0, 5.0, 1.0, runs[1]));
  engine.spawn(synthetic_query(engine, adm, 1, 2.0, 5.0, 1.0, runs[2]));
  engine.spawn(synthetic_query(engine, adm, 1, 3.0, 5.0, 1.0, runs[3]));
  engine.run();
  EXPECT_DOUBLE_EQ(runs[2].admitted_at, 50.0);  // client 1 jumps the queue
  // After client 1 served once (5s < client 0's 50s), client 1's second
  // query still leads.
  EXPECT_DOUBLE_EQ(runs[3].admitted_at, 55.0);
  EXPECT_DOUBLE_EQ(runs[1].admitted_at, 60.0);
  EXPECT_DOUBLE_EQ(adm.client_service(0), 55.0);
  EXPECT_DOUBLE_EQ(adm.client_service(1), 10.0);
}

TEST(Admission, SlotHandoffKeepsRunningConstant) {
  sim::Engine engine;
  AdmissionConfig cfg;
  cfg.max_running = 2;
  AdmissionController adm(engine, cfg);
  std::vector<QueryRun> runs(6);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    engine.spawn(synthetic_query(engine, adm, i, static_cast<double>(i), 7.0,
                                 1.0, runs[i]));
  }
  engine.run();
  EXPECT_EQ(adm.running(), 0u);
  EXPECT_EQ(adm.queued(), 0u);
  EXPECT_EQ(adm.admitted(), 6u);
  for (const auto& r : runs) EXPECT_FALSE(r.rejected);
}

}  // namespace
}  // namespace orv
