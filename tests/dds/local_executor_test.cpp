// Local executor: every operator, pushdown behaviour, composition, and
// agreement with hand-computed results on generated datasets.

#include "dds/local_executor.hpp"

#include <gtest/gtest.h>

#include "datagen/generator.hpp"
#include "dds/aggregate.hpp"

namespace orv {
namespace {

struct Fixture {
  GeneratedDataset ds;
  std::unique_ptr<LocalExecutor> exec;

  Fixture() {
    DatasetSpec spec;
    spec.grid = {8, 8, 8};
    spec.part1 = {4, 4, 4};
    spec.part2 = {2, 2, 2};
    spec.num_storage_nodes = 3;
    spec.layout2 = LayoutId::ColMajor;
    ds = generate_dataset(spec);
    exec = std::make_unique<LocalExecutor>(ds.meta, ds.stores);
  }
};

TEST(LocalExecutor, BaseTableScanAllRows) {
  Fixture f;
  const SubTable t1 = f.exec->execute(*ViewDef::base(1));
  EXPECT_EQ(t1.num_rows(), 512u);
  EXPECT_EQ(t1.schema().num_attrs(), 4u);
}

TEST(LocalExecutor, SelectPushdownOnBaseTable) {
  Fixture f;
  const auto v = ViewDef::select(ViewDef::base(1),
                                 {{"x", {0, 3}}, {"y", {2, 5}}});
  const SubTable out = f.exec->execute(*v);
  EXPECT_EQ(out.num_rows(), 4u * 4 * 8);
  for (std::size_t r = 0; r < out.num_rows(); ++r) {
    EXPECT_LE(out.as_double(r, 0), 3.0);
    EXPECT_GE(out.as_double(r, 1), 2.0);
    EXPECT_LE(out.as_double(r, 1), 5.0);
  }
}

TEST(LocalExecutor, SelectOverNonBaseFilters) {
  Fixture f;
  const auto v = ViewDef::select(
      ViewDef::project(ViewDef::base(1), {"x", "oilp"}), {{"x", {7, 7}}});
  const SubTable out = f.exec->execute(*v);
  EXPECT_EQ(out.num_rows(), 64u);
  EXPECT_EQ(out.schema().num_attrs(), 2u);
}

TEST(LocalExecutor, ProjectReordersColumns) {
  Fixture f;
  const auto v = ViewDef::project(ViewDef::base(1), {"oilp", "z"});
  const SubTable out = f.exec->execute(*v);
  ASSERT_EQ(out.schema().num_attrs(), 2u);
  EXPECT_EQ(out.schema().attr(0).name, "oilp");
  EXPECT_EQ(out.schema().attr(1).name, "z");
  EXPECT_EQ(out.num_rows(), 512u);
  // Values survive the copy: compare against the unprojected scan.
  const SubTable full = f.exec->execute(*ViewDef::base(1));
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_EQ(out.as_double(r, 0), full.as_double(r, 3));
    EXPECT_EQ(out.as_double(r, 1), full.as_double(r, 2));
  }
}

TEST(LocalExecutor, JoinSelectivityOnePerRecord) {
  Fixture f;
  const auto v =
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"});
  const SubTable out = f.exec->execute(*v);
  EXPECT_EQ(out.num_rows(), 512u);
  EXPECT_EQ(out.schema().num_attrs(), 5u);
}

TEST(LocalExecutor, JoinWithSelectionsOnBothSides) {
  Fixture f;
  const auto v = ViewDef::join(
      ViewDef::select(ViewDef::base(1), {{"x", {0, 3}}}),
      ViewDef::select(ViewDef::base(2), {{"y", {0, 3}}}), {"x", "y", "z"});
  const SubTable out = f.exec->execute(*v);
  EXPECT_EQ(out.num_rows(), 4u * 4 * 8);
}

TEST(LocalExecutor, AggregateOverJoin) {
  Fixture f;
  const auto join =
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"});
  const auto v = ViewDef::aggregate(
      join, {"z"},
      {AggSpec{AggSpec::Fn::Count, "", "n"},
       AggSpec{AggSpec::Fn::Avg, "wp", "avg_wp"}});
  const SubTable out = f.exec->execute(*v);
  ASSERT_EQ(out.num_rows(), 8u);  // one group per z layer
  for (std::size_t r = 0; r < out.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(out.as_double(r, 1), 64.0);
    EXPECT_GT(out.as_double(r, 2), 0.0);
    EXPECT_LT(out.as_double(r, 2), 1.0);
  }
}

TEST(LocalExecutor, AggregateAvgMatchesManualComputation) {
  Fixture f;
  const SubTable t2 = f.exec->execute(*ViewDef::base(2));
  double sum = 0;
  for (std::size_t r = 0; r < t2.num_rows(); ++r) {
    sum += t2.as_double(r, 3);
  }
  const auto v = ViewDef::aggregate(
      ViewDef::base(2), {}, {AggSpec{AggSpec::Fn::Avg, "wp", "avg"}});
  const SubTable out = f.exec->execute(*v);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_NEAR(out.as_double(0, 0), sum / 512.0, 1e-9);
}

TEST(LocalExecutor, ScanPrunesChunksViaRtree) {
  Fixture f;
  // A corner query touches exactly one T2 chunk (2^3 partitioning).
  const SubTable out = f.exec->scan(
      2, {{"x", {0, 1}}, {"y", {0, 1}}, {"z", {0, 1}}});
  EXPECT_EQ(out.num_rows(), 8u);
}

TEST(LocalExecutor, SortAscendingDescendingAndLimit) {
  Fixture f;
  const auto base = ViewDef::project(ViewDef::base(1), {"oilp"});
  const auto asc =
      f.exec->execute(*ViewDef::sort(base, {{"oilp", false}}, 0));
  ASSERT_EQ(asc.num_rows(), 512u);
  for (std::size_t r = 1; r < asc.num_rows(); ++r) {
    EXPECT_LE(asc.as_double(r - 1, 0), asc.as_double(r, 0));
  }
  const auto top =
      f.exec->execute(*ViewDef::sort(base, {{"oilp", true}}, 10));
  ASSERT_EQ(top.num_rows(), 10u);
  EXPECT_DOUBLE_EQ(top.as_double(0, 0),
                   asc.as_double(asc.num_rows() - 1, 0));
}

TEST(LocalExecutor, SortMultiKeyStable) {
  Fixture f;
  // Sort by z then x: within equal z, x must ascend.
  const auto v = ViewDef::sort(ViewDef::base(1), {{"z", false}, {"x", false}},
                               0);
  const auto out = f.exec->execute(*v);
  for (std::size_t r = 1; r < 100; ++r) {
    const double pz = out.as_double(r - 1, 2);
    const double cz = out.as_double(r, 2);
    EXPECT_LE(pz, cz);
    if (pz == cz) {
      EXPECT_LE(out.as_double(r - 1, 0), out.as_double(r, 0));
    }
  }
}

TEST(LocalExecutor, SortsInt64KeysPast2To53Exactly) {
  // 2^53 and 2^53 + 1 widen to the same double; ORDER BY must still tell
  // them apart.
  auto schema = Schema::make({{"k", AttrType::Int64}});
  const std::int64_t big = std::int64_t{1} << 53;
  SubTable in(schema, SubTableId{1, 0});
  for (const std::int64_t k : {big + 1, big}) {
    const Value vals[] = {Value(k)};
    in.append_values(vals);
  }
  const SubTable asc = sort_rows(in, {{"k", false}}, 0);
  ASSERT_EQ(asc.num_rows(), 2u);
  EXPECT_EQ(asc.get<std::int64_t>(0, 0), big);
  EXPECT_EQ(asc.get<std::int64_t>(1, 0), big + 1);
  const SubTable desc = sort_rows(in, {{"k", true}}, 0);
  ASSERT_EQ(desc.num_rows(), 2u);
  EXPECT_EQ(desc.get<std::int64_t>(0, 0), big + 1);
  EXPECT_EQ(desc.get<std::int64_t>(1, 0), big);
  const SubTable first = sort_rows(in, {{"k", false}}, 1);
  ASSERT_EQ(first.num_rows(), 1u);
  EXPECT_EQ(first.get<std::int64_t>(0, 0), big);
}

TEST(LocalExecutor, LimitWithoutKeysTruncates) {
  Fixture f;
  const auto v = ViewDef::sort(ViewDef::base(2), {}, 7);
  EXPECT_EQ(f.exec->execute(*v).num_rows(), 7u);
}

TEST(LocalExecutor, EmptySelectionYieldsNoRows) {
  Fixture f;
  const auto v = ViewDef::select(ViewDef::base(1), {{"x", {100, 200}}});
  EXPECT_EQ(f.exec->execute(*v).num_rows(), 0u);
}

}  // namespace
}  // namespace orv
