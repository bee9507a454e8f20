// Targeted fault scenarios: each test injects one specific failure class
// and asserts (a) the query still produces the byte-identical fault-free
// result (or fails cleanly with FaultError where no recovery is possible),
// and (b) the recovery machinery that should have fired actually did.

#include <gtest/gtest.h>

#include "../chaos_util.hpp"
#include "obs/obs.hpp"

namespace orv {
namespace {

using chaos::ChaosRig;
using chaos::Scenario;

Scenario fixed_scenario(std::size_t num_storage = 2,
                        std::size_t num_compute = 3) {
  Scenario sc;
  sc.spec.grid = {8, 8, 8};
  sc.spec.part1 = {4, 4, 4};
  sc.spec.part2 = {2, 2, 2};
  sc.spec.extra_attrs1 = 1;
  sc.spec.extra_attrs2 = 2;
  sc.spec.seed = 42;
  sc.spec.num_storage_nodes = num_storage;
  sc.cspec.num_storage = num_storage;
  sc.cspec.num_compute = num_compute;
  sc.join_attrs = {"x", "y", "z"};
  return sc;
}

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : rig(fixed_scenario()) {}

  void expect_identical(const QesResult& baseline, const QesResult& faulted) {
    EXPECT_EQ(baseline.result_tuples, faulted.result_tuples);
    EXPECT_EQ(baseline.result_fingerprint, faulted.result_fingerprint);
  }

  ChaosRig rig;
};

TEST_F(RecoveryTest, EmptyPlanInjectorIsInvisibleToIndexedJoin) {
  // An injector with nothing to inject must not perturb the
  // simulation at all: identical result AND identical virtual elapsed.
  const QesResult baseline = rig.run(/*indexed_join=*/true);
  fault::FaultPlan plan;
  const QesResult with_inj = rig.run(true, &plan);
  expect_identical(baseline, with_inj);
  EXPECT_DOUBLE_EQ(baseline.elapsed, with_inj.elapsed);
  EXPECT_FALSE(with_inj.degraded);
  EXPECT_EQ(with_inj.fetch_retries, 0u);
}

TEST_F(RecoveryTest, AnotherClustersFaultPlanLeavesThisRunAlone) {
  // Cluster A, on its own engine, drops half its messages. A fault-free
  // GH run on another cluster must match the same run alone exactly.
  const QesResult alone = rig.run(/*indexed_join=*/false);
  fault::FaultPlan drops;
  drops.seed = 5;
  drops.message_drop_prob = 0.5;
  sim::Engine engine_a;
  const Cluster a(engine_a, rig.sc.cluster(&drops));
  ASSERT_NE(a.faults(), nullptr);
  const QesResult beside = rig.run(false);
  EXPECT_EQ(beside.elapsed, alone.elapsed);
  EXPECT_EQ(beside.net_frames_sent, alone.net_frames_sent);
  EXPECT_EQ(beside.fetch_retries, 0u);
  EXPECT_EQ(beside.result_fingerprint, alone.result_fingerprint);
  EXPECT_EQ(a.faults()->stats().total(), 0u);
}

TEST_F(RecoveryTest, EmptyPlanInjectorPreservesGraceHashResult) {
  // GH's fault path adds a quiesce round after partitioning, which shifts
  // elapsed slightly; the result multiset must still be untouched.
  const QesResult baseline = rig.run(/*indexed_join=*/false);
  fault::FaultPlan plan;
  const QesResult with_inj = rig.run(false, &plan);
  expect_identical(baseline, with_inj);
  EXPECT_FALSE(with_inj.degraded);
  EXPECT_EQ(with_inj.rows_repartitioned, 0u);
}

TEST_F(RecoveryTest, IndexedJoinReassignsPairsAfterComputeCrash) {
  const QesResult baseline = rig.run(true);
  fault::FaultPlan plan;
  plan.crashes.push_back({fault::NodeKind::Compute, 0, 0.0, fault::kNever});
  const QesResult faulted = rig.run(true, &plan);
  expect_identical(baseline, faulted);
  EXPECT_TRUE(faulted.degraded);
  EXPECT_EQ(faulted.compute_nodes_lost, 1u);
  EXPECT_GT(faulted.pairs_reassigned, 0u);
}

TEST_F(RecoveryTest, IndexedJoinSurvivesMidRunComputeCrash) {
  const QesResult baseline = rig.run(true);
  // Crash partway through so the victim has already accumulated output;
  // exactly-once accounting must not double-count its completed pairs.
  fault::FaultPlan plan;
  plan.crashes.push_back(
      {fault::NodeKind::Compute, 1, baseline.elapsed * 0.5, fault::kNever});
  const QesResult faulted = rig.run(true, &plan);
  expect_identical(baseline, faulted);
  EXPECT_TRUE(faulted.degraded);
  EXPECT_EQ(faulted.compute_nodes_lost, 1u);
}

TEST_F(RecoveryTest, GraceHashRepartitionsAfterComputeCrash) {
  const QesResult baseline = rig.run(false);
  fault::FaultPlan plan;
  plan.crashes.push_back({fault::NodeKind::Compute, 0, 0.0, fault::kNever});
  const QesResult faulted = rig.run(false, &plan);
  expect_identical(baseline, faulted);
  EXPECT_TRUE(faulted.degraded);
  EXPECT_EQ(faulted.compute_nodes_lost, 1u);
  EXPECT_GT(faulted.rows_repartitioned, 0u);
}

TEST_F(RecoveryTest, GraceHashSurvivesTwoComputeCrashes) {
  ChaosRig wide(fixed_scenario(2, 4));
  const QesResult baseline = wide.run(false);
  fault::FaultPlan plan;
  plan.crashes.push_back({fault::NodeKind::Compute, 1, 0.0, fault::kNever});
  plan.crashes.push_back(
      {fault::NodeKind::Compute, 3, baseline.elapsed * 0.3, fault::kNever});
  const QesResult faulted = wide.run(false, &plan);
  EXPECT_EQ(baseline.result_tuples, faulted.result_tuples);
  EXPECT_EQ(baseline.result_fingerprint, faulted.result_fingerprint);
  EXPECT_EQ(faulted.compute_nodes_lost, 2u);
}

TEST_F(RecoveryTest, AllComputeNodesDeadFailsCleanlyNotHangs) {
  fault::FaultPlan plan;
  for (std::size_t j = 0; j < 3; ++j) {
    plan.crashes.push_back({fault::NodeKind::Compute, j, 0.0, fault::kNever});
  }
  EXPECT_THROW(rig.run(true, &plan), fault::FaultError);
  EXPECT_THROW(rig.run(false, &plan), fault::FaultError);
}

TEST_F(RecoveryTest, StorageOutageIsRiddenOutByRetries) {
  const QesResult ij_base = rig.run(true);
  const QesResult gh_base = rig.run(false);
  fault::FaultPlan plan;
  plan.crashes.push_back({fault::NodeKind::Storage, 0, 0.0, 0.6});
  plan.retry.fetch_timeout = 0.1;  // fetches time out rather than stall

  const QesResult ij = rig.run(true, &plan);
  expect_identical(ij_base, ij);
  EXPECT_TRUE(ij.degraded);
  EXPECT_GT(ij.fetch_retries, 0u);
  EXPECT_GE(ij.elapsed, ij_base.elapsed);  // recovery costs time, not rows

  // GH storage nodes read their own chunks, so an outage stalls the
  // producer until recovery instead of bouncing RPCs: no retries, but the
  // outage window shows up in elapsed time.
  const QesResult gh = rig.run(false, &plan);
  EXPECT_EQ(gh_base.result_tuples, gh.result_tuples);
  EXPECT_EQ(gh_base.result_fingerprint, gh.result_fingerprint);
  EXPECT_GT(gh.elapsed, gh_base.elapsed);
}

TEST_F(RecoveryTest, PermanentStorageLossIsACleanFailure) {
  fault::FaultPlan plan;
  plan.crashes.push_back(
      {fault::NodeKind::Storage, 0, 0.0, fault::kNever});
  EXPECT_THROW(rig.run(true, &plan), fault::FaultError);
  EXPECT_THROW(rig.run(false, &plan), fault::FaultError);
}

TEST_F(RecoveryTest, TransientIoErrorsAreRetriedToTheSameResult) {
  const QesResult ij_base = rig.run(true);
  const QesResult gh_base = rig.run(false);
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.chunk_read_error_prob = 0.5;
  plan.retry.max_attempts = 64;  // prob 0.5 needs headroom to converge

  const QesResult ij = rig.run(true, &plan);
  expect_identical(ij_base, ij);
  EXPECT_TRUE(ij.degraded);
  EXPECT_GT(ij.fetch_retries, 0u);

  const QesResult gh = rig.run(false, &plan);
  EXPECT_EQ(gh_base.result_tuples, gh.result_tuples);
  EXPECT_EQ(gh_base.result_fingerprint, gh.result_fingerprint);
  EXPECT_GT(gh.fetch_retries, 0u);
}

TEST_F(RecoveryTest, DroppedBatchesAreRetransmittedLosslessly) {
  const QesResult baseline = rig.run(false);
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.message_drop_prob = 0.3;
  plan.retransmit_timeout = 0.002;
  const QesResult faulted = rig.run(false, &plan);
  EXPECT_EQ(baseline.result_tuples, faulted.result_tuples);
  EXPECT_EQ(baseline.result_fingerprint, faulted.result_fingerprint);
  // Drops cost time (retransmit waits), never data.
  EXPECT_GT(faulted.elapsed, baseline.elapsed);
}

TEST_F(RecoveryTest, DelayedBatchesPreserveTheResult) {
  const QesResult baseline = rig.run(false);
  fault::FaultPlan plan;
  plan.seed = 13;
  plan.message_delay_prob = 1.0;
  plan.message_delay_max = 0.01;
  const QesResult faulted = rig.run(false, &plan);
  EXPECT_EQ(baseline.result_tuples, faulted.result_tuples);
  EXPECT_EQ(baseline.result_fingerprint, faulted.result_fingerprint);
}

TEST_F(RecoveryTest, RecoveryIsVisibleThroughObsCounters) {
  obs::WallClock clock;
  obs::ObsContext ctx(&clock);
  obs::ScopedInstall obs_scope(ctx);
  fault::FaultPlan plan;
  plan.seed = 17;
  plan.chunk_read_error_prob = 0.4;
  plan.retry.max_attempts = 64;
  plan.crashes.push_back({fault::NodeKind::Compute, 0, 0.0, fault::kNever});
  const QesResult faulted = rig.run(true, &plan);
  EXPECT_TRUE(faulted.degraded);
  EXPECT_GT(ctx.registry.counter("fault.injected").value(), 0u);
  EXPECT_GT(ctx.registry.counter("retry.attempts").value(), 0u);
  EXPECT_GT(ctx.registry.counter("query.degraded").value(), 0u);
}

TEST_F(RecoveryTest, FaultedRunsReplayBitForBit) {
  // The determinism contract behind one-command seed reproduction.
  fault::FaultPlan plan = fault::FaultPlan::chaos(123, 2, 3);
  const QesResult a = rig.run(true, &plan);
  const QesResult b = rig.run(true, &plan);
  EXPECT_EQ(a.result_fingerprint, b.result_fingerprint);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.fetch_retries, b.fetch_retries);
  EXPECT_EQ(a.pairs_reassigned, b.pairs_reassigned);

  const QesResult c = rig.run(false, &plan);
  const QesResult d = rig.run(false, &plan);
  EXPECT_EQ(c.result_fingerprint, d.result_fingerprint);
  EXPECT_DOUBLE_EQ(c.elapsed, d.elapsed);
  EXPECT_EQ(c.rows_repartitioned, d.rows_repartitioned);
}

}  // namespace
}  // namespace orv
