// Distributed DDS: join views and aggregated join views executed on the
// simulated cluster must equal the local executor's results; planner
// integration (pricing, parity with a direct run of the chosen
// algorithm); materialization with projection.

#include "dds/distributed.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "datagen/generator.hpp"
#include "dds/local_executor.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

DatasetSpec small_spec() {
  DatasetSpec spec;
  spec.grid = {8, 8, 8};
  spec.part1 = {4, 4, 4};
  spec.part2 = {2, 2, 2};
  spec.num_storage_nodes = 2;
  return spec;
}

/// Crossed strip partitions: every left strip overlaps every right strip
/// of its z-slab, so n_e*c_S = 32T, far past the IJ/GH crossover.
DatasetSpec crossed_spec() {
  DatasetSpec spec;
  spec.grid = {32, 32, 4};
  spec.part1 = {32, 1, 4};
  spec.part2 = {1, 32, 4};
  spec.num_storage_nodes = 2;
  return spec;
}

ClusterSpec rig_cluster() {
  ClusterSpec cspec;
  cspec.num_storage = 2;
  cspec.num_compute = 3;
  return cspec;
}

struct Rig {
  GeneratedDataset ds;
  sim::Engine engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<BdsService> bds;
  std::unique_ptr<DistributedDds> dds;
  std::unique_ptr<LocalExecutor> local;

  explicit Rig(const DatasetSpec& spec = small_spec()) {
    ds = generate_dataset(spec);
    const ClusterSpec cspec = rig_cluster();
    cluster = std::make_unique<Cluster>(engine, cspec);
    bds = std::make_unique<BdsService>(*cluster, ds.meta, ds.stores);
    dds = std::make_unique<DistributedDds>(*cluster, *bds, ds.meta);
    local = std::make_unique<LocalExecutor>(ds.meta, ds.stores);
  }
};

SubTable placeholder() {
  return SubTable(Schema::make({{"t", AttrType::Int32}}), SubTableId{});
}

TEST(DistributedDds, SupportsJoinShapes) {
  Rig r;
  EXPECT_TRUE(r.dds->supports(
      *ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x"})));
  EXPECT_TRUE(r.dds->supports(*ViewDef::aggregate(
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x"}), {},
      {AggSpec{AggSpec::Fn::Count, "", "n"}})));
  EXPECT_FALSE(r.dds->supports(*ViewDef::base(1)));
  EXPECT_THROW(r.dds->execute(*ViewDef::base(1)), InvalidArgument);
}

TEST(DistributedDds, JoinViewMatchesLocalExecutor) {
  Rig r;
  const auto view =
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"});
  SubTable rows = placeholder();
  const DistributedRun run = r.dds->execute(*view, {}, &rows);
  const SubTable expected = r.local->execute(*view);
  EXPECT_EQ(rows.num_rows(), expected.num_rows());
  EXPECT_EQ(rows.unordered_fingerprint(), expected.unordered_fingerprint());
  EXPECT_EQ(run.qes.result_tuples, expected.num_rows());
  EXPECT_GT(run.qes.elapsed, 0.0);
  EXPECT_EQ(run.graph_stats.num_edges, r.ds.stats.num_edges);
}

TEST(DistributedDds, RangeSelectedJoinMatchesLocal) {
  Rig r;
  const auto view = ViewDef::select(
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"}),
      {{"x", {0, 3}}, {"wp", {0.0, 0.5}}});
  SubTable rows = placeholder();
  r.dds->execute(*view, {}, &rows);
  const SubTable expected = r.local->execute(*view);
  EXPECT_EQ(rows.num_rows(), expected.num_rows());
  EXPECT_EQ(rows.unordered_fingerprint(), expected.unordered_fingerprint());
}

TEST(DistributedDds, ProjectionApplied) {
  Rig r;
  const auto view = ViewDef::project(
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"}),
      {"wp", "oilp"});
  SubTable rows = placeholder();
  r.dds->execute(*view, {}, &rows);
  ASSERT_EQ(rows.schema().num_attrs(), 2u);
  EXPECT_EQ(rows.schema().attr(0).name, "wp");
  EXPECT_EQ(rows.num_rows(), 512u);
  const SubTable expected = r.local->execute(*view);
  EXPECT_EQ(rows.unordered_fingerprint(), expected.unordered_fingerprint());
}

TEST(DistributedDds, AggregateOverJoinMatchesLocal) {
  Rig r;
  const auto view = ViewDef::aggregate(
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"}),
      {"z"},
      {AggSpec{AggSpec::Fn::Avg, "wp", "avg_wp"},
       AggSpec{AggSpec::Fn::Count, "", "n"}});
  SubTable rows = placeholder();
  const DistributedRun run = r.dds->execute(*view, {}, &rows);
  const SubTable expected = r.local->execute(*view);
  ASSERT_EQ(rows.num_rows(), expected.num_rows());
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(rows.as_double(i, 0), expected.as_double(i, 0));
    EXPECT_NEAR(rows.as_double(i, 1), expected.as_double(i, 1), 1e-9);
    EXPECT_DOUBLE_EQ(rows.as_double(i, 2), expected.as_double(i, 2));
  }
  // Aggregation happened at the nodes: the QES still counted raw tuples.
  EXPECT_EQ(run.qes.result_tuples, 512u);
}

TEST(DistributedDds, HavingFilterAppliedAfterMerge) {
  Rig r;
  const auto agg = ViewDef::aggregate(
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"}),
      {"z"}, {AggSpec{AggSpec::Fn::Avg, "wp", "avg_wp"}});
  const auto view = ViewDef::select(agg, {{"avg_wp", {0.5, 1.0}}});
  SubTable rows = placeholder();
  r.dds->execute(*view, {}, &rows);
  const SubTable expected = r.local->execute(*view);
  EXPECT_EQ(rows.num_rows(), expected.num_rows());
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    EXPECT_GE(rows.as_double(i, 1), 0.5);
  }
}

TEST(DistributedDds, PlannerDecisionExposed) {
  Rig r;
  const auto view =
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"});
  const DistributedRun run = r.dds->execute(*view);
  EXPECT_GT(run.decision.ij.total(), 0.0);
  EXPECT_GT(run.decision.gh.total(), 0.0);
  EXPECT_GT(run.decision.predicted_seconds(), 0.0);
}

TEST(DistributedDds, NoMaterializationStillCountsTuples) {
  Rig r;
  const auto view =
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"});
  const DistributedRun run = r.dds->execute(*view);  // rows_out == nullptr
  EXPECT_EQ(run.qes.result_tuples, 512u);
}

TEST(DistributedDds, CpuWorkFactorPricesSlowerCpu) {
  // cpu_work_factor k repeats every hash charge k times, so the plan must
  // price the CPU k times slower, as the session and the benches do.
  Rig r;
  const auto view =
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"});
  QesOptions slow;
  slow.cpu_work_factor = 4;
  const DistributedRun base = r.dds->execute(*view);
  const DistributedRun slowed = r.dds->execute(*view, slow);
  EXPECT_EQ(slowed.decision.params.alpha_build,
            4 * base.decision.params.alpha_build);
  EXPECT_EQ(slowed.decision.params.alpha_lookup,
            4 * base.decision.params.alpha_lookup);
}

/// dds.execute(view) must replay the direct run of the algorithm its plan
/// chose, on a fresh cluster, exactly.
void expect_matches_direct_run(const DatasetSpec& spec, Algorithm expected) {
  Rig r(spec);
  const auto view =
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"});
  const DistributedRun run = r.dds->execute(*view);
  ASSERT_EQ(run.decision.chosen, expected);

  sim::Engine engine;
  Cluster cluster(engine, rig_cluster());
  BdsService bds(cluster, r.ds.meta, r.ds.stores);
  const JoinQuery query{1, 2, {"x", "y", "z"}, {}};
  const QesResult direct =
      expected == Algorithm::IndexedJoin
          ? run_indexed_join(cluster, bds, r.ds.meta,
                             ConnectivityGraph::build(r.ds.meta, 1, 2,
                                                      query.join_attrs),
                             query)
          : run_grace_hash(cluster, bds, r.ds.meta, query);
  EXPECT_EQ(run.qes.result_fingerprint, direct.result_fingerprint);
  EXPECT_EQ(run.qes.result_tuples, direct.result_tuples);
  EXPECT_DOUBLE_EQ(run.qes.elapsed, direct.elapsed);
}

TEST(DistributedDds, IndexedJoinPlanMatchesDirectRun) {
  expect_matches_direct_run(small_spec(), Algorithm::IndexedJoin);
}

TEST(DistributedDds, GraceHashPlanMatchesDirectRun) {
  expect_matches_direct_run(crossed_spec(), Algorithm::GraceHash);
}

}  // namespace
}  // namespace orv
