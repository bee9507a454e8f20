// ViewFramework: the public facade end-to-end — SQL over base tables and
// registered views, local vs distributed agreement, error paths.

#include "core/view_framework.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/tempdir.hpp"
#include "datagen/generator.hpp"

namespace orv {
namespace {

ViewFramework make_framework() {
  DatasetSpec spec;
  spec.grid = {8, 8, 8};
  spec.part1 = {4, 4, 4};
  spec.part2 = {2, 2, 2};
  spec.num_storage_nodes = 2;
  auto ds = generate_dataset(spec);
  ViewFramework fw(std::move(ds.meta), ds.stores);
  fw.define_view("V1", ViewDef::join(ViewDef::base(1), ViewDef::base(2),
                                     {"x", "y", "z"}));
  return fw;
}

TEST(Framework, RangeQueryOverBaseTable) {
  auto fw = make_framework();
  const SubTable rows =
      fw.query("SELECT * FROM T1 WHERE x IN [0, 1] AND y IN [0, 1] AND "
               "z IN [0, 1]");
  EXPECT_EQ(rows.num_rows(), 8u);
}

TEST(Framework, SelectStarFromJoinView) {
  auto fw = make_framework();
  const SubTable rows = fw.query("SELECT * FROM V1");
  EXPECT_EQ(rows.num_rows(), 512u);
  EXPECT_EQ(rows.schema().num_attrs(), 5u);
}

TEST(Framework, ProjectionAndPredicateOverView) {
  auto fw = make_framework();
  const SubTable rows =
      fw.query("SELECT oilp, wp FROM V1 WHERE z = 3 AND wp <= 0.25");
  EXPECT_EQ(rows.schema().num_attrs(), 2u);
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    EXPECT_LE(rows.as_double(r, 1), 0.25);
  }
}

TEST(Framework, AggregationSql) {
  auto fw = make_framework();
  const SubTable rows =
      fw.query("SELECT z, AVG(wp) AS avg_wp, COUNT(*) AS n FROM V1 "
               "GROUP BY z");
  ASSERT_EQ(rows.num_rows(), 8u);
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(rows.as_double(r, 2), 64.0);
  }
}

TEST(Framework, ViewManagement) {
  auto fw = make_framework();
  EXPECT_TRUE(fw.has_view("V1"));
  EXPECT_FALSE(fw.has_view("V2"));
  EXPECT_THROW(fw.view("V2"), NotFound);
  EXPECT_THROW(fw.query("SELECT * FROM V2"), NotFound);
  // A view name may not shadow a base table.
  EXPECT_THROW(fw.define_view("T1", ViewDef::base(1)), InvalidArgument);
  // Defining a view validates its tree against the catalog immediately.
  EXPECT_THROW(
      fw.define_view("bad", ViewDef::project(ViewDef::base(1), {"nope"})),
      NotFound);
}

TEST(Framework, ResolvePrefersViews) {
  auto fw = make_framework();
  fw.define_view("alias_t1", ViewDef::base(1));
  EXPECT_EQ(fw.resolve("alias_t1")->table, 1u);
  EXPECT_EQ(fw.resolve("T2")->table, 2u);
  EXPECT_THROW(fw.resolve("missing"), NotFound);
}

TEST(Framework, DistributedMatchesLocal) {
  auto fw = make_framework();
  ClusterSpec cluster;
  cluster.num_storage = 2;
  cluster.num_compute = 3;
  SubTable rows(Schema::make({{"t", AttrType::Int32}}), SubTableId{});
  const DistributedRun run = fw.query_distributed(
      "SELECT * FROM V1 WHERE x IN [0, 3]", cluster, &rows);
  const SubTable expected = fw.query("SELECT * FROM V1 WHERE x IN [0, 3]");
  EXPECT_EQ(rows.num_rows(), expected.num_rows());
  EXPECT_EQ(rows.unordered_fingerprint(), expected.unordered_fingerprint());
  EXPECT_GT(run.qes.elapsed, 0.0);
}

TEST(Framework, DistributedAggregation) {
  auto fw = make_framework();
  ClusterSpec cluster;
  cluster.num_storage = 2;
  cluster.num_compute = 2;
  SubTable rows(Schema::make({{"t", AttrType::Int32}}), SubTableId{});
  fw.query_distributed("SELECT AVG(wp) AS a, COUNT(*) AS n FROM V1",
                       cluster, &rows);
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rows.as_double(0, 1), 512.0);
  const SubTable local = fw.query("SELECT AVG(wp) AS a FROM V1");
  EXPECT_NEAR(rows.as_double(0, 0), local.as_double(0, 0), 1e-9);
}

TEST(Framework, DistributedRejectsNonJoinViews) {
  auto fw = make_framework();
  ClusterSpec cluster;
  cluster.num_storage = 2;
  EXPECT_THROW(fw.query_distributed("SELECT * FROM T1", cluster),
               InvalidArgument);
}

TEST(Framework, DistributedValidatesClusterShape) {
  auto fw = make_framework();
  ClusterSpec cluster;
  cluster.num_storage = 7;  // dataset lives on 2 nodes
  EXPECT_THROW(fw.query_distributed("SELECT * FROM V1", cluster),
               InvalidArgument);
}

TEST(Framework, FileBackedEndToEnd) {
  DatasetSpec spec;
  spec.grid = {8, 8, 8};
  spec.part1 = {4, 4, 4};
  spec.part2 = {4, 4, 4};
  spec.num_storage_nodes = 2;
  spec.layout1 = LayoutId::BlockedRows;
  TempDir dir("orvfw");
  auto ds = generate_dataset(spec, dir.path());
  ViewFramework fw(std::move(ds.meta), ds.stores);
  fw.define_view("V", ViewDef::join(ViewDef::base(1), ViewDef::base(2),
                                    {"x", "y", "z"}));
  EXPECT_EQ(fw.query("SELECT * FROM V").num_rows(), 512u);
}

TEST(Framework, OrderByLimitSql) {
  auto fw = make_framework();
  const SubTable rows =
      fw.query("SELECT wp FROM V1 ORDER BY wp DESC LIMIT 3");
  ASSERT_EQ(rows.num_rows(), 3u);
  EXPECT_GE(rows.as_double(0, 0), rows.as_double(1, 0));
  EXPECT_GE(rows.as_double(1, 0), rows.as_double(2, 0));
  // Aggregate + ORDER BY composes too.
  const SubTable agg = fw.query(
      "SELECT z, AVG(wp) AS a FROM V1 GROUP BY z ORDER BY a DESC LIMIT 2");
  ASSERT_EQ(agg.num_rows(), 2u);
  EXPECT_GE(agg.as_double(0, 1), agg.as_double(1, 1));
}

TEST(Framework, ExplainReportsPlanAndDecision) {
  auto fw = make_framework();
  const std::string local = fw.explain("SELECT * FROM T1 WHERE x < 2");
  EXPECT_NE(local.find("local executor"), std::string::npos);
  EXPECT_NE(local.find("sigma"), std::string::npos);

  ClusterSpec cluster;
  cluster.num_storage = 2;
  cluster.num_compute = 2;
  const std::string dist = fw.explain("SELECT * FROM V1", &cluster);
  EXPECT_NE(dist.find("distributed join view"), std::string::npos);
  EXPECT_NE(dist.find("n_e="), std::string::npos);
  EXPECT_NE(dist.find("choose"), std::string::npos);

  const std::string agg = fw.explain("SELECT AVG(wp) AS a FROM V1", &cluster);
  EXPECT_NE(agg.find("distributed aggregate"), std::string::npos);

  // EXPLAIN classifies with the DDS's own matchers, so the two shapes
  // query_distributed runs on the cluster are not reported as local.
  const std::string sorted =
      fw.explain("SELECT * FROM V1 ORDER BY wp DESC LIMIT 4", &cluster);
  EXPECT_EQ(sorted.find("local executor"), std::string::npos);
  EXPECT_NE(sorted.find("distributed join view"), std::string::npos);
  EXPECT_NE(sorted.find("graph:"), std::string::npos);
  EXPECT_NE(sorted.find("qps:"), std::string::npos);
  const std::string scan =
      fw.explain("SELECT COUNT(*) AS n FROM T1 WHERE x IN [0, 3]", &cluster);
  EXPECT_EQ(scan.find("local executor"), std::string::npos);
  EXPECT_NE(scan.find("exec:   distributed scan-aggregate"), std::string::npos);
}

TEST(Framework, DistributedOrderByLimit) {
  auto fw = make_framework();
  ClusterSpec cluster;
  cluster.num_storage = 2;
  cluster.num_compute = 2;
  SubTable rows(Schema::make({{"t", AttrType::Int32}}), SubTableId{});
  fw.query_distributed("SELECT * FROM V1 ORDER BY wp DESC LIMIT 4", cluster,
                       &rows);
  ASSERT_EQ(rows.num_rows(), 4u);
  const std::size_t wp = rows.schema().require_index("wp");
  for (std::size_t r = 1; r < rows.num_rows(); ++r) {
    EXPECT_GE(rows.as_double(r - 1, wp), rows.as_double(r, wp));
  }
  const SubTable local =
      fw.query("SELECT * FROM V1 ORDER BY wp DESC LIMIT 4");
  EXPECT_EQ(rows.unordered_fingerprint(), local.unordered_fingerprint());
}

TEST(Framework, BindExposesOperatorTree) {
  auto fw = make_framework();
  const auto tree = fw.bind("SELECT wp FROM V1 WHERE x < 2");
  EXPECT_EQ(tree->kind, ViewDef::Kind::Project);
  EXPECT_EQ(tree->input->kind, ViewDef::Kind::Select);
  EXPECT_EQ(tree->input->input->kind, ViewDef::Kind::Join);
}

}  // namespace
}  // namespace orv
