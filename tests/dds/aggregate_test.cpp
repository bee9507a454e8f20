// Group-by aggregation engine: all functions, grouping, merge (the
// distributed partial-aggregation path), determinism, edge cases.

#include "dds/aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>

#include "common/error.hpp"

namespace orv {
namespace {

SchemaPtr rows_schema() {
  return Schema::make({{"g", AttrType::Int32}, {"v", AttrType::Float64}});
}

SubTable rows(std::initializer_list<std::pair<int, double>> data) {
  SubTable st(rows_schema(), SubTableId{1, 0});
  for (const auto& [g, v] : data) {
    const Value vals[] = {Value(g), Value(v)};
    st.append_values(vals);
  }
  return st;
}

std::vector<AggSpec> all_aggs() {
  return {AggSpec{AggSpec::Fn::Sum, "v", "sum_v"},
          AggSpec{AggSpec::Fn::Avg, "v", "avg_v"},
          AggSpec{AggSpec::Fn::Min, "v", "min_v"},
          AggSpec{AggSpec::Fn::Max, "v", "max_v"},
          AggSpec{AggSpec::Fn::Count, "", "n"}};
}

TEST(Aggregate, GlobalGroupAllFunctions) {
  GroupByAggregator agg(rows_schema(), {}, all_aggs());
  agg.consume(rows({{1, 2.0}, {2, 4.0}, {3, 6.0}}));
  const SubTable out = agg.finish();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.as_double(0, 0), 12.0);  // sum
  EXPECT_DOUBLE_EQ(out.as_double(0, 1), 4.0);   // avg
  EXPECT_DOUBLE_EQ(out.as_double(0, 2), 2.0);   // min
  EXPECT_DOUBLE_EQ(out.as_double(0, 3), 6.0);   // max
  EXPECT_DOUBLE_EQ(out.as_double(0, 4), 3.0);   // count
}

TEST(Aggregate, GroupByPartitionsRows) {
  GroupByAggregator agg(rows_schema(), {"g"},
                        {AggSpec{AggSpec::Fn::Sum, "v", "s"},
                         AggSpec{AggSpec::Fn::Count, "", "n"}});
  agg.consume(rows({{2, 1.0}, {1, 10.0}, {2, 2.0}, {1, 20.0}, {2, 3.0}}));
  const SubTable out = agg.finish();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(agg.num_groups(), 2u);
  // Deterministic group order (sorted by key lanes): g=1 then g=2.
  EXPECT_EQ(out.value(0, 0).as_int64(), 1);
  EXPECT_DOUBLE_EQ(out.as_double(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(out.as_double(0, 2), 2.0);
  EXPECT_EQ(out.value(1, 0).as_int64(), 2);
  EXPECT_DOUBLE_EQ(out.as_double(1, 1), 6.0);
  EXPECT_DOUBLE_EQ(out.as_double(1, 2), 3.0);
}

TEST(Aggregate, GroupKeyKeepsInputType) {
  GroupByAggregator agg(rows_schema(), {"g"},
                        {AggSpec{AggSpec::Fn::Count, "", "n"}});
  EXPECT_EQ(agg.output_schema()->attr(0).type, AttrType::Int32);
  EXPECT_EQ(agg.output_schema()->attr(1).type, AttrType::Float64);
}

TEST(Aggregate, MergeEqualsSingleConsumer) {
  auto aggs = all_aggs();
  GroupByAggregator whole(rows_schema(), {"g"}, aggs);
  whole.consume(rows({{1, 1.0}, {2, 2.0}, {1, 3.0}, {3, 4.0}}));

  GroupByAggregator part1(rows_schema(), {"g"}, aggs);
  GroupByAggregator part2(rows_schema(), {"g"}, aggs);
  part1.consume(rows({{1, 1.0}, {2, 2.0}}));
  part2.consume(rows({{1, 3.0}, {3, 4.0}}));
  GroupByAggregator merged(rows_schema(), {"g"}, aggs);
  merged.merge(part1);
  merged.merge(part2);

  const SubTable a = whole.finish();
  const SubTable b = merged.finish();
  EXPECT_EQ(a.unordered_fingerprint(), b.unordered_fingerprint());
  EXPECT_EQ(a.num_rows(), b.num_rows());
}

TEST(Aggregate, MergeDisjointGroups) {
  GroupByAggregator a(rows_schema(), {"g"},
                      {AggSpec{AggSpec::Fn::Sum, "v", "s"}});
  GroupByAggregator b(rows_schema(), {"g"},
                      {AggSpec{AggSpec::Fn::Sum, "v", "s"}});
  a.consume(rows({{1, 1.0}}));
  b.consume(rows({{2, 2.0}}));
  a.merge(b);
  EXPECT_EQ(a.num_groups(), 2u);
}

TEST(Aggregate, EmptyInputGivesNoGroups) {
  GroupByAggregator agg(rows_schema(), {"g"},
                        {AggSpec{AggSpec::Fn::Sum, "v", "s"}});
  const SubTable out = agg.finish();
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(Aggregate, GlobalGroupOnEmptyInputGivesNoRow) {
  // Matches SQL GROUP BY () over zero rows in spirit: nothing to report.
  GroupByAggregator agg(rows_schema(), {}, all_aggs());
  EXPECT_EQ(agg.finish().num_rows(), 0u);
}

TEST(Aggregate, SchemaValidation) {
  EXPECT_THROW(GroupByAggregator(rows_schema(), {"missing"},
                                 {AggSpec{AggSpec::Fn::Sum, "v", "s"}}),
               NotFound);
  EXPECT_THROW(GroupByAggregator(rows_schema(), {},
                                 {AggSpec{AggSpec::Fn::Sum, "missing", "s"}}),
               NotFound);
  EXPECT_THROW(GroupByAggregator(rows_schema(), {}, {}), InvalidArgument);
  EXPECT_THROW(GroupByAggregator(rows_schema(), {},
                                 {AggSpec{AggSpec::Fn::Sum, "v", ""}}),
               InvalidArgument);
}

TEST(Aggregate, ConsumeRejectsWrongSchema) {
  GroupByAggregator agg(rows_schema(), {},
                        {AggSpec{AggSpec::Fn::Count, "", "n"}});
  SubTable other(Schema::make({{"z", AttrType::Int32}}), SubTableId{1, 0});
  EXPECT_THROW(agg.consume(other), InvalidArgument);
}

TEST(Aggregate, ManyGroupsDeterministicOrder) {
  GroupByAggregator agg(rows_schema(), {"g"},
                        {AggSpec{AggSpec::Fn::Count, "", "n"}});
  SubTable input(rows_schema(), SubTableId{1, 0});
  for (int i = 99; i >= 0; --i) {
    const Value vals[] = {Value(i), Value(1.0)};
    input.append_values(vals);
  }
  agg.consume(input);
  const SubTable out = agg.finish();
  ASSERT_EQ(out.num_rows(), 100u);
  for (std::size_t r = 0; r < 100; ++r) {
    EXPECT_EQ(out.value(r, 0).as_int64(), static_cast<std::int64_t>(r));
  }
}

TEST(Aggregate, MergeRequiresSameSpec) {
  GroupByAggregator a(rows_schema(), {"g"},
                      {AggSpec{AggSpec::Fn::Sum, "v", "s"}});
  GroupByAggregator b(rows_schema(), {},
                      {AggSpec{AggSpec::Fn::Sum, "v", "s"}});
  EXPECT_THROW(a.merge(b), InvalidArgument);
}

/// Bit-for-bit double equality: tells -0.0 from +0.0.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Aggregate, TypedGroupKeysMatchTheValueReference) {
  // Group by one column of each type and aggregate each of them. -0.0 and
  // +0.0 share a group, and int64 keys past 2^53 stay distinct groups even
  // though they widen to the same double. The reference boxes every cell
  // through Value, row by row, in the same order.
  auto schema = Schema::make({{"i32", AttrType::Int32},
                              {"i64", AttrType::Int64},
                              {"f32", AttrType::Float32},
                              {"f64", AttrType::Float64},
                              {"v", AttrType::Float32}});
  const std::int64_t big = std::int64_t{1} << 53;
  const std::int64_t i64s[] = {big, big + 1};
  const float f32s[] = {-0.0f, 0.0f, 1.5f};
  const double f64s[] = {0.0, 2.5, -0.0};
  SubTable input(schema, SubTableId{1, 0});
  for (int i = 0; i < 216; ++i) {
    const Value vals[] = {Value(i % 3 - 1), Value(i64s[i % 2]),
                          Value(f32s[(i / 3) % 3]), Value(f64s[(i / 9) % 3]),
                          Value(static_cast<float>(i) * 0.25f)};
    input.append_values(vals);
  }
  const std::vector<std::string> group_by{"i32", "i64", "f32", "f64"};
  const std::vector<AggSpec> aggs{
      AggSpec{AggSpec::Fn::Avg, "i32", "avg_i32"},
      AggSpec{AggSpec::Fn::Sum, "i64", "sum_i64"},
      AggSpec{AggSpec::Fn::Min, "f32", "min_f32"},
      AggSpec{AggSpec::Fn::Max, "f64", "max_f64"},
      AggSpec{AggSpec::Fn::Sum, "v", "sum_v"},
      AggSpec{AggSpec::Fn::Count, "", "n"}};
  GroupByAggregator agg(schema, group_by, aggs);
  agg.consume(input);
  const SubTable out = agg.finish();

  struct RefGroup {
    std::vector<double> key_values;  // first row's values
    double avg_i32 = 0, sum_i64 = 0, sum_v = 0;
    double min_f32 = std::numeric_limits<double>::infinity();
    double max_f64 = -std::numeric_limits<double>::infinity();
    double n = 0;
  };
  std::map<std::vector<std::uint64_t>, RefGroup> ref;  // finish() order
  for (std::size_t r = 0; r < input.num_rows(); ++r) {
    std::vector<std::uint64_t> lanes;
    for (std::size_t a = 0; a < 4; ++a) {
      lanes.push_back(input.value(r, a).key_lane());
    }
    auto [it, inserted] = ref.try_emplace(lanes);
    RefGroup& g = it->second;
    if (inserted) {
      for (std::size_t a = 0; a < 4; ++a) {
        g.key_values.push_back(input.value(r, a).as_double());
      }
    }
    g.avg_i32 += input.value(r, 0).as_double();
    g.sum_i64 += input.value(r, 1).as_double();
    g.min_f32 = std::min(g.min_f32, input.value(r, 2).as_double());
    g.max_f64 = std::max(g.max_f64, input.value(r, 3).as_double());
    g.sum_v += input.value(r, 4).as_double();
    g.n += 1;
  }
  // 3 x 2 x 2 x 2 groups: the zeros of each float column fold together.
  EXPECT_EQ(ref.size(), 24u);
  ASSERT_EQ(out.num_rows(), ref.size());
  EXPECT_EQ(agg.num_groups(), ref.size());
  std::size_t row = 0;
  for (const auto& [lanes, g] : ref) {
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_TRUE(same_bits(out.as_double(row, k), g.key_values[k]))
          << "row " << row << " key " << k;
    }
    const double want[] = {g.avg_i32 / g.n, g.sum_i64, g.min_f32,
                           g.max_f64,       g.sum_v,   g.n};
    for (std::size_t a = 0; a < 6; ++a) {
      EXPECT_TRUE(same_bits(out.as_double(row, 4 + a), want[a]))
          << "row " << row << " aggregate " << a;
    }
    ++row;
  }
}

}  // namespace
}  // namespace orv
