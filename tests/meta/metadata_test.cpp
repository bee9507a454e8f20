// MetaData Service: table registration, chunk bookkeeping, R-tree-backed
// range lookup (paper's Section 4 range-query flow), persistence.

#include "meta/metadata.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "datagen/generator.hpp"
#include "../subtable/value_reference.hpp"

namespace orv {
namespace {

SchemaPtr schema4() {
  return Schema::make({{"x", AttrType::Float32},
                       {"y", AttrType::Float32},
                       {"z", AttrType::Float32},
                       {"oilp", AttrType::Float32}});
}

ChunkMeta chunk_at(TableId table, ChunkId id, double x0, double y0,
                   double z0, double side) {
  ChunkMeta cm;
  cm.id = {table, id};
  cm.schema = schema4();
  cm.bounds = Rect(4);
  cm.bounds[0] = {x0, x0 + side};
  cm.bounds[1] = {y0, y0 + side};
  cm.bounds[2] = {z0, z0 + side};
  cm.bounds[3] = {0, 1};
  cm.location.storage_node = id % 3;
  cm.location.size = 1000;
  cm.num_rows = 10;
  cm.extractors = {"row-major"};
  return cm;
}

TEST(MetaData, RegisterAndLookupTables) {
  MetaDataService meta;
  meta.register_table(1, "T1", schema4());
  meta.register_table(2, "T2", schema4());
  EXPECT_EQ(meta.num_tables(), 2u);
  EXPECT_EQ(meta.table_name(1), "T1");
  EXPECT_EQ(meta.table_by_name("T2"), 2u);
  EXPECT_TRUE(meta.has_table("T1"));
  EXPECT_FALSE(meta.has_table("T3"));
  EXPECT_THROW(meta.table_by_name("T3"), NotFound);
  EXPECT_THROW(meta.table_name(9), NotFound);
}

TEST(MetaData, RejectsDuplicateIdsAndNames) {
  MetaDataService meta;
  meta.register_table(1, "T1", schema4());
  EXPECT_THROW(meta.register_table(1, "other", schema4()), InvalidArgument);
  EXPECT_THROW(meta.register_table(2, "T1", schema4()), InvalidArgument);
}

TEST(MetaData, ChunkAccounting) {
  MetaDataService meta;
  meta.register_table(1, "T1", schema4());
  meta.add_chunk(chunk_at(1, 0, 0, 0, 0, 15));
  meta.add_chunk(chunk_at(1, 1, 16, 0, 0, 15));
  EXPECT_EQ(meta.num_chunks(1), 2u);
  EXPECT_EQ(meta.table_rows(1), 20u);
  EXPECT_EQ(meta.table_bytes(1), 2000u);
  EXPECT_EQ(meta.chunk({1, 1}).location.storage_node, 1u);
  EXPECT_THROW(meta.chunk({1, 7}), NotFound);
  EXPECT_THROW(meta.add_chunk(chunk_at(9, 0, 0, 0, 0, 1)), NotFound);
}

TEST(MetaData, ChunkBoundsMustMatchSchema) {
  MetaDataService meta;
  meta.register_table(1, "T1", schema4());
  ChunkMeta bad = chunk_at(1, 0, 0, 0, 0, 15);
  bad.bounds = Rect(2);
  EXPECT_THROW(meta.add_chunk(std::move(bad)), InvalidArgument);
}

TEST(MetaData, FindChunksByRange) {
  MetaDataService meta;
  meta.register_table(1, "T1", schema4());
  // 4x4 grid of 16-wide chunks in x,y at z=0.
  ChunkId id = 0;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      meta.add_chunk(chunk_at(1, id++, 16.0 * x, 16.0 * y, 0, 15));
    }
  }
  // The paper's example: x in [0,256], y in [0,512] — everything matches.
  auto all = meta.find_chunks(1, {{"x", {0, 256}}, {"y", {0, 512}}});
  EXPECT_EQ(all.size(), 16u);
  // A corner query.
  auto corner = meta.find_chunks(1, {{"x", {0, 10}}, {"y", {0, 10}}});
  ASSERT_EQ(corner.size(), 1u);
  EXPECT_EQ(corner[0], (SubTableId{1, 0}));
  // A stripe.
  auto stripe = meta.find_chunks(1, {{"y", {20, 30}}});
  EXPECT_EQ(stripe.size(), 4u);
  // Constraint on a scalar attribute.
  auto none = meta.find_chunks(1, {{"oilp", {2.0, 3.0}}});
  EXPECT_TRUE(none.empty());
  // Unknown attribute: unconstrained for this table.
  auto unknown = meta.find_chunks(1, {{"wp", {0.0, 0.1}}});
  EXPECT_EQ(unknown.size(), 16u);
}

TEST(MetaData, FindChunksReflectsLaterAdds) {
  MetaDataService meta;
  meta.register_table(1, "T1", schema4());
  meta.add_chunk(chunk_at(1, 0, 0, 0, 0, 15));
  EXPECT_EQ(meta.find_chunks(1, {}).size(), 1u);
  meta.add_chunk(chunk_at(1, 1, 16, 0, 0, 15));  // invalidates the index
  EXPECT_EQ(meta.find_chunks(1, {}).size(), 2u);
}

TEST(MetaData, QueryRectIntersectsRepeatedRanges) {
  MetaDataService meta;
  meta.register_table(1, "T1", schema4());
  const Rect rect =
      meta.query_rect(1, {{"x", {0, 100}}, {"x", {50, 200}}});
  EXPECT_EQ(rect[0], (Interval{50, 100}));
}

// filter_rows over ten rows x = 0..9, v = x / 2, whose stored bounds are
// deliberately wider than the data so "kept" and "recomputed" differ.
SubTable ten_rows() {
  SubTable st(Schema::make({{"x", AttrType::Int32}, {"v", AttrType::Float64}}),
              SubTableId{1, 7});
  for (std::int32_t x = 0; x < 10; ++x) {
    const Value vals[] = {Value(x), Value(x / 2.0)};
    st.append_values(vals);
  }
  st.set_bounds(Rect({Interval{-100, 100}, Interval{-100, 100}}));
  return st;
}

TEST(FilterRows, RangeOnAbsentAttributeKeepsEveryRowAndTheBounds) {
  const SubTable st = ten_rows();
  const SubTable out = filter_rows(st, {{"oilp", Interval{0, 0}}});
  EXPECT_EQ(out.id(), st.id());
  EXPECT_EQ(out.num_rows(), 10u);
  EXPECT_TRUE(std::equal(out.bytes().begin(), out.bytes().end(),
                         st.bytes().begin(), st.bytes().end()));
  EXPECT_EQ(out.bounds(), st.bounds());
}

TEST(FilterRows, ConstrainedFilterRecomputesTheBounds) {
  const SubTable out = filter_rows(ten_rows(), {{"x", Interval{2.5, 6.5}},
                                                {"oilp", Interval{0, 0}}});
  ASSERT_EQ(out.num_rows(), 4u);
  EXPECT_EQ(out.get<std::int32_t>(0, 0), 3);
  EXPECT_EQ(out.bounds()[0], (Interval{3, 6}));
  EXPECT_EQ(out.bounds()[1], (Interval{1.5, 3}));
}

TEST(FilterRows, BothEndpointsAreInclusive) {
  const SubTable out = filter_rows(ten_rows(), {{"x", Interval{2, 5}}});
  ASSERT_EQ(out.num_rows(), 4u);
  EXPECT_EQ(out.get<std::int32_t>(0, 0), 2);
  EXPECT_EQ(out.get<std::int32_t>(3, 0), 5);
  const SubTable point = filter_rows(ten_rows(), {{"v", Interval{1, 1}}});
  ASSERT_EQ(point.num_rows(), 1u);
  EXPECT_EQ(point.get<std::int32_t>(0, 0), 2);
}

// filter_rows row by row through Value: every attribute is tested against
// its intersected interval (unbounded where no range names it, which still
// rejects NaN), and the output bounds are recomputed.
SubTable value_filter(const SubTable& st, const std::vector<AttrRange>& ranges) {
  Rect pred = Rect::unbounded(st.schema().num_attrs());
  bool constrained = false;
  for (const auto& r : ranges) {
    if (auto idx = st.schema().index_of(r.attr)) {
      pred[*idx] = pred[*idx].intersect(r.range);
      constrained = true;
    }
  }
  if (!constrained) return st;
  SubTable out(st.schema_ptr(), st.id());
  for (std::size_t r = 0; r < st.num_rows(); ++r) {
    bool in = true;
    for (std::size_t d = 0; d < pred.dims(); ++d) {
      in = in && pred[d].contains(st.value(r, d).as_double());
    }
    if (in) out.append_row({st.row(r), st.record_size()});
  }
  out.set_bounds(test::value_bounds(out));
  return out;
}

// Runs filter_rows and checks bytes, row order, id and bounds against the
// reference; returns the number of rows kept.
std::size_t expect_filter_matches(const SubTable& st,
                                  const std::vector<AttrRange>& ranges) {
  const SubTable out = filter_rows(st, ranges);
  const SubTable ref = value_filter(st, ranges);
  EXPECT_EQ(out.id(), ref.id());
  EXPECT_EQ(out.num_rows(), ref.num_rows());
  EXPECT_TRUE(std::equal(out.bytes().begin(), out.bytes().end(),
                         ref.bytes().begin(), ref.bytes().end()));
  EXPECT_EQ(out.bounds(), ref.bounds());
  return out.num_rows();
}

constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;

// One attribute of each AttrType; b runs across 2^53, where distinct
// int64 values widen to the same double.
SubTable typed_rows(std::size_t n) {
  SubTable st(Schema::make({{"a", AttrType::Int32},
                            {"b", AttrType::Int64},
                            {"c", AttrType::Float32},
                            {"d", AttrType::Float64}}),
              SubTableId{4, 2});
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::int64_t>(i);
    const Value vals[] = {Value(static_cast<std::int32_t>(k % 7 - 3)),
                          Value(kTwo53 - 4 + k),
                          Value(static_cast<float>(k) * 0.5f),
                          Value(static_cast<double>(k % 5) / 4 - 0.5)};
    st.append_values(vals);
  }
  return st;
}

TEST(FilterRows, EachAttrTypeMatchesTheValueReference) {
  const SubTable st = typed_rows(24);
  const double two53 = static_cast<double>(kTwo53);
  EXPECT_EQ(expect_filter_matches(st, {{"a", Interval{-1, 1}}}), 10u);
  EXPECT_EQ(expect_filter_matches(st, {{"c", Interval{1, 3.5}}}), 6u);
  EXPECT_EQ(expect_filter_matches(st, {{"d", Interval{-0.25, 0}}}), 10u);
  // 2^53 and 2^53 + 1 both widen to 2^53.
  EXPECT_EQ(expect_filter_matches(st, {{"b", Interval{two53, two53}}}), 2u);
  EXPECT_EQ(expect_filter_matches(st, {{"b", Interval{two53 + 2, 1e300}}}),
            18u);
  // Several ranges, one attribute named twice (the intervals intersect).
  expect_filter_matches(st, {{"a", Interval{-3, 2}},
                             {"d", Interval{-1, 0.25}},
                             {"a", Interval{0, 9}},
                             {"absent", Interval{0, 0}}});
}

TEST(FilterRows, NanInAnyAttributeDropsTheRow) {
  SubTable st = typed_rows(8);
  st.set<float>(2, 2, std::numeric_limits<float>::quiet_NaN());
  st.set<double>(5, 3, std::nan(""));
  // Constrained: row 2's NaN fails c's range; row 5's NaN in d, which no
  // range names, fails d's unbounded interval.
  EXPECT_EQ(expect_filter_matches(st, {{"c", Interval{0, 100}}}), 6u);
  // Only an integer attribute constrained: both NaN rows still drop.
  EXPECT_EQ(expect_filter_matches(st, {{"a", Interval{-10, 10}}}), 6u);
  const SubTable out = filter_rows(st, {{"a", Interval{-10, 10}}});
  for (std::size_t r = 0; r < out.num_rows(); ++r) {
    EXPECT_FALSE(std::isnan(out.get<float>(r, 2)));
    EXPECT_FALSE(std::isnan(out.get<double>(r, 3)));
  }
  // No range applies: the table comes back whole, NaN rows included.
  EXPECT_EQ(expect_filter_matches(st, {{"absent", Interval{0, 0}}}), 8u);
}

TEST(FilterRows, CopiesRunsAtStartMiddleAndEnd) {
  // a = 0 marks passing rows: runs 0-2, 5-7 and 10-11; 3-4, 8-9 fail.
  SubTable st = typed_rows(12);
  for (std::size_t r = 0; r < 12; ++r) {
    const bool pass = r < 3 || (r >= 5 && r < 8) || r >= 10;
    st.set<std::int32_t>(r, 0, pass ? 0 : 1);
  }
  EXPECT_EQ(expect_filter_matches(st, {{"a", Interval{0, 0}}}), 8u);
  const SubTable out = filter_rows(st, {{"a", Interval{0, 0}}});
  EXPECT_EQ(out.get<std::int64_t>(0, 1), kTwo53 - 4);
  EXPECT_EQ(out.get<std::int64_t>(3, 1), kTwo53 - 4 + 5);
  EXPECT_EQ(out.get<std::int64_t>(7, 1), kTwo53 - 4 + 11);
}

TEST(FilterRows, NoRowPassingGivesTheEmptyBox) {
  const SubTable st = typed_rows(16);
  EXPECT_EQ(expect_filter_matches(st, {{"c", Interval{100, 200}}}), 0u);
  const SubTable out = filter_rows(st, {{"c", Interval{100, 200}}});
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(out.bounds()[d], (Interval{1, -1}));
  }
  EXPECT_EQ(expect_filter_matches(st, {{"a", Interval{5, 4}}}), 0u);
  EXPECT_EQ(expect_filter_matches(typed_rows(0), {{"c", Interval{0, 1}}}), 0u);
}

TEST(FilterRows, AllRowsPassing) {
  const SubTable st = typed_rows(16);
  EXPECT_EQ(expect_filter_matches(st, {{"c", Interval{0, 100}}}), 16u);
  const SubTable out = filter_rows(st, {{"c", Interval{0, 100}}});
  EXPECT_TRUE(std::equal(out.bytes().begin(), out.bytes().end(),
                         st.bytes().begin(), st.bytes().end()));
}

TEST(FilterRows, MovedInputWithEveryRowPassingComesBackUncopied) {
  // c = 0, 0.5, ..., 7.5. Declared bounds wider than the rows tell a kept
  // box from a recomputed one.
  SubTable st = typed_rows(16);
  st.set_bounds(Rect(4));
  const std::byte* payload = st.bytes().data();
  const SubTable all = filter_rows(std::move(st), {{"c", Interval{0, 100}}});
  EXPECT_EQ(all.num_rows(), 16u);
  EXPECT_EQ(all.bytes().data(), payload);
  EXPECT_EQ(all.bounds(), Rect(4));
  // One row failing: a filtered copy, bounds recomputed, as for an lvalue.
  SubTable some_in = typed_rows(16);
  some_in.set_bounds(Rect(4));
  const SubTable some =
      filter_rows(std::move(some_in), {{"c", Interval{0, 7}}});
  const SubTable want = filter_rows(typed_rows(16), {{"c", Interval{0, 7}}});
  ASSERT_EQ(some.num_rows(), 15u);
  EXPECT_TRUE(std::equal(some.bytes().begin(), some.bytes().end(),
                         want.bytes().begin(), want.bytes().end()));
  EXPECT_EQ(some.bounds()[2], (Interval{0, 7}));
}

TEST(MetaData, SerializationRoundTrip) {
  DatasetSpec spec;
  spec.grid = {8, 8, 8};
  spec.part1 = {4, 4, 4};
  spec.part2 = {2, 2, 2};
  spec.num_storage_nodes = 2;
  auto ds = generate_dataset(spec);

  ByteWriter w;
  ds.meta.serialize(w);
  ByteReader r(w.bytes());
  MetaDataService back = MetaDataService::deserialize(r);

  EXPECT_EQ(back.num_tables(), 2u);
  EXPECT_EQ(back.table_name(spec.table1_id), "T1");
  EXPECT_EQ(back.num_chunks(spec.table2_id),
            ds.meta.num_chunks(spec.table2_id));
  for (const auto& cm : ds.meta.chunks(spec.table1_id)) {
    const auto& bc = back.chunk(cm.id);
    EXPECT_EQ(bc.location, cm.location);
    EXPECT_EQ(bc.bounds, cm.bounds);
    EXPECT_EQ(bc.num_rows, cm.num_rows);
    EXPECT_EQ(bc.extractors, cm.extractors);
    EXPECT_EQ(*bc.schema, *cm.schema);
  }
  // The rebuilt service answers range queries identically.
  const std::vector<AttrRange> q = {{"x", {0, 3}}, {"y", {0, 3}}};
  EXPECT_EQ(back.find_chunks(spec.table2_id, q),
            ds.meta.find_chunks(spec.table2_id, q));
}

}  // namespace
}  // namespace orv
