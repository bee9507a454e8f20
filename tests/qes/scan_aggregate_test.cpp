// Distributed scan-aggregate QES: results equal local aggregation, network
// traffic is group-proportional, pruning works, framework integration.

#include "qes/scan_aggregate.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "datagen/generator.hpp"
#include "dds/distributed.hpp"
#include "dds/local_executor.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

struct Rig {
  GeneratedDataset ds;
  sim::Engine engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<BdsService> bds;

  explicit Rig(std::optional<fault::FaultPlan> faults = std::nullopt) {
    DatasetSpec spec;
    spec.grid = {16, 16, 16};
    spec.part1 = {4, 4, 4};
    spec.part2 = {8, 8, 8};
    spec.num_storage_nodes = 3;
    ds = generate_dataset(spec);
    ClusterSpec cspec;
    cspec.num_storage = 3;
    cspec.num_compute = 2;
    cspec.faults = std::move(faults);
    cluster = std::make_unique<Cluster>(engine, cspec);
    bds = std::make_unique<BdsService>(*cluster, ds.meta, ds.stores);
  }
};

SubTable placeholder() {
  return SubTable(Schema::make({{"t", AttrType::Int32}}), SubTableId{});
}

TEST(ScanAggregate, GlobalAvgMatchesLocal) {
  Rig rig;
  AggregateQuery q;
  q.table = 1;
  q.aggs = {AggSpec{AggSpec::Fn::Avg, "oilp", "a"},
            AggSpec{AggSpec::Fn::Count, "", "n"}};
  SubTable out = placeholder();
  const auto res = run_distributed_aggregate(*rig.cluster, *rig.bds,
                                             rig.ds.meta, q, {}, &out);
  EXPECT_EQ(res.result_tuples, 1u);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.as_double(0, 1), 4096.0);

  LocalExecutor local(rig.ds.meta, rig.ds.stores);
  const auto expected = local.execute(*ViewDef::aggregate(
      ViewDef::base(1), {},
      {AggSpec{AggSpec::Fn::Avg, "oilp", "a"},
       AggSpec{AggSpec::Fn::Count, "", "n"}}));
  EXPECT_NEAR(out.as_double(0, 0), expected.as_double(0, 0), 1e-9);
  EXPECT_GT(res.elapsed, 0.0);
}

TEST(ScanAggregate, GroupByMatchesLocal) {
  Rig rig;
  AggregateQuery q;
  q.table = 2;
  q.group_by = {"z"};
  q.aggs = {AggSpec{AggSpec::Fn::Max, "wp", "m"}};
  SubTable out = placeholder();
  run_distributed_aggregate(*rig.cluster, *rig.bds, rig.ds.meta, q, {}, &out);

  LocalExecutor local(rig.ds.meta, rig.ds.stores);
  const auto expected = local.execute(*ViewDef::aggregate(
      ViewDef::base(2), {"z"}, {AggSpec{AggSpec::Fn::Max, "wp", "m"}}));
  ASSERT_EQ(out.num_rows(), expected.num_rows());
  EXPECT_EQ(out.unordered_fingerprint(), expected.unordered_fingerprint());
}

TEST(ScanAggregate, RangesPruneAndFilter) {
  Rig rig;
  AggregateQuery q;
  q.table = 1;
  q.ranges = {{"x", {0, 3}}, {"y", {0, 3}}};
  q.aggs = {AggSpec{AggSpec::Fn::Count, "", "n"}};
  SubTable out = placeholder();
  run_distributed_aggregate(*rig.cluster, *rig.bds, rig.ds.meta, q, {}, &out);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.as_double(0, 0), 4.0 * 4 * 16);
}

TEST(ScanAggregate, NetworkTrafficIsGroupProportional) {
  Rig rig;
  AggregateQuery q;
  q.table = 1;
  q.group_by = {"z"};  // 16 groups per node
  q.aggs = {AggSpec{AggSpec::Fn::Sum, "oilp", "s"}};
  const auto res =
      run_distributed_aggregate(*rig.cluster, *rig.bds, rig.ds.meta, q);
  // Partial states, not rows: far less than the table's 64 KiB.
  EXPECT_LT(res.network_bytes, 16.0 * 3 * 200);
  EXPECT_GT(res.network_bytes, 0.0);
}

TEST(ScanAggregate, DistributedDdsRoutesAggregateOverBase) {
  Rig rig;
  DistributedDds dds(*rig.cluster, *rig.bds, rig.ds.meta);
  const auto view = ViewDef::aggregate(
      ViewDef::select(ViewDef::base(1), {{"z", {0, 7}}}), {"z"},
      {AggSpec{AggSpec::Fn::Count, "", "n"}});
  EXPECT_TRUE(dds.supports(*view));
  SubTable out = placeholder();
  dds.execute(*view, {}, &out);
  EXPECT_EQ(out.num_rows(), 8u);
  for (std::size_t r = 0; r < out.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(out.as_double(r, 1), 256.0);
  }
}

TEST(ScanAggregate, HavingOverScanAggregate) {
  Rig rig;
  DistributedDds dds(*rig.cluster, *rig.bds, rig.ds.meta);
  const auto agg = ViewDef::aggregate(
      ViewDef::base(1), {"z"}, {AggSpec{AggSpec::Fn::Avg, "oilp", "a"}});
  const auto view = ViewDef::select(agg, {{"a", {0.5, 1.0}}});
  SubTable out = placeholder();
  dds.execute(*view, {}, &out);
  LocalExecutor local(rig.ds.meta, rig.ds.stores);
  const auto expected = local.execute(*view);
  EXPECT_EQ(out.num_rows(), expected.num_rows());
  EXPECT_EQ(out.unordered_fingerprint(), expected.unordered_fingerprint());
}

TEST(ScanAggregate, InjectedReadErrorsAreRetriedToTheSameResult) {
  AggregateQuery q;
  q.table = 1;
  q.ranges = {{"x", {0, 11}}};
  q.group_by = {"z"};
  q.aggs = {AggSpec{AggSpec::Fn::Sum, "oilp", "s"},
            AggSpec{AggSpec::Fn::Count, "", "n"}};
  Rig clean;
  const auto base =
      run_distributed_aggregate(*clean.cluster, *clean.bds, clean.ds.meta, q);
  EXPECT_EQ(base.fetch_retries, 0u);
  EXPECT_FALSE(base.degraded);

  fault::FaultPlan plan;
  plan.seed = 7;
  plan.chunk_read_error_prob = 0.5;
  plan.retry.max_attempts = 64;  // prob 0.5 needs headroom to converge
  Rig rig(plan);
  const auto res =
      run_distributed_aggregate(*rig.cluster, *rig.bds, rig.ds.meta, q);
  EXPECT_EQ(res.result_tuples, base.result_tuples);
  EXPECT_EQ(res.result_fingerprint, base.result_fingerprint);
  EXPECT_GT(res.fetch_retries, 0u);
  EXPECT_TRUE(res.degraded);
}

TEST(ScanAggregate, MoreStorageNodesGoFaster) {
  auto run_with_nodes = [](std::size_t n_s) {
    DatasetSpec spec;
    spec.grid = {32, 32, 32};
    spec.part1 = {8, 8, 8};
    spec.part2 = {8, 8, 8};
    spec.num_storage_nodes = n_s;
    auto ds = generate_dataset(spec);
    sim::Engine engine;
    ClusterSpec cspec;
    cspec.num_storage = n_s;
    cspec.num_compute = 1;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    AggregateQuery q;
    q.table = 1;
    q.aggs = {AggSpec{AggSpec::Fn::Sum, "oilp", "s"}};
    return run_distributed_aggregate(cluster, bds, ds.meta, q).elapsed;
  };
  EXPECT_LT(run_with_nodes(4), run_with_nodes(1));
}

}  // namespace
}  // namespace orv
