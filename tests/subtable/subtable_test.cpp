// SubTable: append paths, typed access, bounds computation,
// fingerprints, payload adoption.

#include "subtable/subtable.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "value_reference.hpp"

namespace orv {
namespace {

SchemaPtr xyz_schema() {
  return Schema::make({{"x", AttrType::Float32},
                       {"y", AttrType::Float32},
                       {"v", AttrType::Int32}});
}

SubTable sample(std::size_t n = 4) {
  SubTable st(xyz_schema(), SubTableId{1, 7});
  for (std::size_t i = 0; i < n; ++i) {
    const Value vals[] = {Value(float(i)), Value(float(i * 2)),
                          Value(static_cast<std::int32_t>(100 + i))};
    st.append_values(vals);
  }
  return st;
}

TEST(SubTable, IdAndSchema) {
  const SubTable st = sample();
  EXPECT_EQ(st.id(), (SubTableId{1, 7}));
  EXPECT_EQ(st.id().to_string(), "(1,7)");
  EXPECT_EQ(st.record_size(), 12u);
  EXPECT_EQ(st.num_rows(), 4u);
  EXPECT_EQ(st.size_bytes(), 48u);
}

TEST(SubTable, TypedAccess) {
  const SubTable st = sample();
  EXPECT_FLOAT_EQ(st.get<float>(2, 0), 2.0f);
  EXPECT_FLOAT_EQ(st.get<float>(2, 1), 4.0f);
  EXPECT_EQ(st.get<std::int32_t>(2, 2), 102);
  EXPECT_DOUBLE_EQ(st.as_double(3, 1), 6.0);
  EXPECT_EQ(st.value(0, 2).as_int64(), 100);
}

TEST(SubTable, SetMutatesInPlace) {
  SubTable st = sample();
  st.set<std::int32_t>(1, 2, -5);
  EXPECT_EQ(st.get<std::int32_t>(1, 2), -5);
}

TEST(SubTable, AppendRawRowMustMatchRecordSize) {
  SubTable st(xyz_schema(), SubTableId{1, 0});
  std::vector<std::byte> row(12);
  st.append_row(row);
  EXPECT_EQ(st.num_rows(), 1u);
  std::vector<std::byte> bad(11);
  EXPECT_THROW(st.append_row(bad), InvalidArgument);
}

TEST(SubTable, AppendValuesArityChecked) {
  SubTable st(xyz_schema(), SubTableId{1, 0});
  const Value two[] = {Value(1.0f), Value(2.0f)};
  EXPECT_THROW(st.append_values(two), InvalidArgument);
}

TEST(SubTable, RowIndexOutOfRange) {
  const SubTable st = sample(2);
  EXPECT_THROW(st.row(2), InvalidArgument);
}

TEST(SubTable, AdoptBytes) {
  SubTable st(xyz_schema(), SubTableId{1, 0});
  std::vector<std::byte> payload(36);  // 3 rows
  st.adopt_bytes(std::move(payload));
  EXPECT_EQ(st.num_rows(), 3u);
  std::vector<std::byte> ragged(35);
  SubTable st2(xyz_schema(), SubTableId{1, 1});
  EXPECT_THROW(st2.adopt_bytes(std::move(ragged)), InvalidArgument);
}

TEST(SubTable, ComputeBoundsTightensToData) {
  SubTable st = sample(4);
  st.compute_bounds();
  EXPECT_EQ(st.bounds()[0], (Interval{0, 3}));
  EXPECT_EQ(st.bounds()[1], (Interval{0, 6}));
  EXPECT_EQ(st.bounds()[2], (Interval{100, 103}));
}

TEST(SubTable, EmptyBoundsOverlapNothing) {
  SubTable st(xyz_schema(), SubTableId{1, 0});
  st.compute_bounds();
  Rect any(3);
  any[0] = {-1e9, 1e9};
  any[1] = {-1e9, 1e9};
  any[2] = {-1e9, 1e9};
  EXPECT_FALSE(st.bounds().overlaps(any));
}

// One attribute of each AttrType, with NaN, infinities, -0.0 and int64
// values around 2^53 (where the widening to double rounds).
SubTable four_types(std::size_t n) {
  SubTable st(Schema::make({{"a", AttrType::Int32},
                            {"b", AttrType::Int64},
                            {"c", AttrType::Float32},
                            {"d", AttrType::Float64}}),
              SubTableId{2, 3});
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -0.0f, std::numeric_limits<float>::infinity()};
  for (std::size_t i = 0; i < n; ++i) {
    const Value vals[] = {
        Value(static_cast<std::int32_t>(i * 7 % 11) - 5),
        Value((std::int64_t{1} << 53) - 2 + static_cast<std::int64_t>(i)),
        Value(i % 4 == 1 ? specials[i % 3] : static_cast<float>(i) * 0.5f),
        Value(i == 0 ? std::numeric_limits<double>::quiet_NaN()
                     : -static_cast<double>(i) / 3)};
    st.append_values(vals);
  }
  return st;
}

TEST(SubTable, ComputeBoundsMatchesTheValueReference) {
  for (std::size_t n : {0u, 1u, 2u, 5u, 13u}) {
    SubTable st = four_types(n);
    st.compute_bounds();
    EXPECT_EQ(st.bounds(), test::value_bounds(st)) << n << " rows";
  }
  // NaN never moves a bound; an all-NaN column keeps {+inf, -inf}.
  const SubTable one = [] {
    SubTable st = four_types(1);
    st.compute_bounds();
    return st;
  }();
  EXPECT_EQ(one.bounds()[3],
            (Interval{std::numeric_limits<double>::infinity(),
                      -std::numeric_limits<double>::infinity()}));
  EXPECT_EQ(one.bounds()[1].lo, static_cast<double>((1LL << 53) - 2));
}

TEST(SubTable, AppendRowsCopiesEveryRowInOrder) {
  SubTable empty = sample(0);
  empty.append_rows(empty);
  EXPECT_TRUE(empty.empty());
  SubTable dest = sample(2);
  dest.append_rows(empty);
  const SubTable src = sample(3);
  dest.append_rows(src);
  ASSERT_EQ(dest.num_rows(), 5u);
  EXPECT_EQ(dest.size_bytes(), 5 * dest.record_size());
  EXPECT_EQ(std::memcmp(dest.row(2), src.row(0), 3 * src.record_size()), 0);
  // Appending a table to itself doubles it.
  dest.append_rows(dest);
  ASSERT_EQ(dest.num_rows(), 10u);
  EXPECT_EQ(std::memcmp(dest.row(5), dest.row(0), 5 * dest.record_size()), 0);
}

TEST(SubTable, AppendRowsMustMatchRecordSize) {
  SubTable st = sample(1);
  const SubTable narrow(Schema::make({{"x", AttrType::Float32}}),
                        SubTableId{1, 0});
  EXPECT_THROW(st.append_rows(narrow), InvalidArgument);
}

TEST(SubTable, AppendProjectedCopiesTheNamedColumnsInOrder) {
  // Mixed widths in a new column order.
  const auto schema = Schema::make({{"a", AttrType::Int64},
                                    {"b", AttrType::Float32},
                                    {"c", AttrType::Float64},
                                    {"d", AttrType::Int32}});
  SubTable in(schema, SubTableId{1, 0});
  for (std::int64_t i = 0; i < 5; ++i) {
    const Value vals[] = {Value(i << 40), Value(float(i) / 4),
                          Value(double(i) * 1e300),
                          Value(static_cast<std::int32_t>(-i))};
    in.append_values(vals);
  }
  const std::vector<std::size_t> attrs = {3, 0, 2, 1};
  SubTable out(std::make_shared<const Schema>(schema->project(attrs)),
               SubTableId{1, 0});
  append_projected(SubTable(schema, SubTableId{1, 0}), attrs, out);
  EXPECT_TRUE(out.empty());
  append_projected(in, attrs, out);
  append_projected(in, attrs, out);
  ASSERT_EQ(out.num_rows(), 10u);
  EXPECT_EQ(out.size_bytes(), 10 * out.record_size());
  for (std::size_t r = 0; r < out.num_rows(); ++r) {
    const std::size_t i = r % 5;
    EXPECT_EQ(out.get<std::int32_t>(r, 0), in.get<std::int32_t>(i, 3));
    EXPECT_EQ(out.get<std::int64_t>(r, 1), in.get<std::int64_t>(i, 0));
    EXPECT_EQ(out.get<double>(r, 2), in.get<double>(i, 2));
    EXPECT_EQ(out.get<float>(r, 3), in.get<float>(i, 1));
  }
  // The output record must be exactly the named columns.
  EXPECT_THROW(append_projected(in, {0, 1}, out), InvalidArgument);
}

TEST(SubTable, AppendRowsGrowsGeometrically) {
  // An exact reserve per append would move the buffer on all 4096 calls.
  const SubTable one = sample(1);
  SubTable st(xyz_schema(), SubTableId{1, 0});
  const std::byte* last = st.bytes().data();
  int moves = 0;
  for (int i = 0; i < 4096; ++i) {
    st.append_rows(one);
    if (st.bytes().data() != last) ++moves;
    last = st.bytes().data();
  }
  EXPECT_EQ(st.num_rows(), 4096u);
  EXPECT_LE(moves, 32);
  EXPECT_EQ(std::memcmp(st.row(4095), one.row(0), one.record_size()), 0);
}

TEST(SubTable, SetBoundsDimensionChecked) {
  SubTable st = sample();
  EXPECT_THROW(st.set_bounds(Rect(2)), InvalidArgument);
}

TEST(SubTable, FingerprintOrderIndependent) {
  SubTable a(xyz_schema(), SubTableId{1, 0});
  SubTable b(xyz_schema(), SubTableId{1, 1});
  const Value r1[] = {Value(1.0f), Value(2.0f), Value(3)};
  const Value r2[] = {Value(4.0f), Value(5.0f), Value(6)};
  const Value r3[] = {Value(7.0f), Value(8.0f), Value(9)};
  a.append_values(r1);
  a.append_values(r2);
  a.append_values(r3);
  b.append_values(r3);
  b.append_values(r1);
  b.append_values(r2);
  EXPECT_EQ(a.unordered_fingerprint(), b.unordered_fingerprint());
}

TEST(SubTable, FingerprintDetectsDifferences) {
  SubTable a = sample(4);
  SubTable b = sample(4);
  b.set<std::int32_t>(3, 2, 999);
  EXPECT_NE(a.unordered_fingerprint(), b.unordered_fingerprint());
  // Multiplicity matters: {r, r} != {r}.
  SubTable c(xyz_schema(), SubTableId{1, 0});
  SubTable d(xyz_schema(), SubTableId{1, 0});
  const Value row[] = {Value(1.0f), Value(1.0f), Value(1)};
  c.append_values(row);
  d.append_values(row);
  d.append_values(row);
  EXPECT_NE(c.unordered_fingerprint(), d.unordered_fingerprint());
}

TEST(SubTable, EmptyFingerprintIsZero) {
  SubTable st(xyz_schema(), SubTableId{1, 0});
  EXPECT_EQ(st.unordered_fingerprint(), 0u);
}

TEST(SubTable, AppendRowsReserveCommit) {
  SubTable st = sample(2);
  const std::size_t rs = st.record_size();
  // Reserve three rows, write two, commit two, trim the third.
  std::byte* dst = st.append_rows_reserve(3);
  std::memcpy(dst, st.row(0), rs);
  std::memcpy(dst + rs, st.row(1), rs);
  st.append_rows_commit(2);
  st.append_rows_trim();
  EXPECT_EQ(st.num_rows(), 4u);
  EXPECT_EQ(st.size_bytes(), 4 * rs);
  EXPECT_EQ(std::memcmp(st.row(2), st.row(0), rs), 0);
  EXPECT_EQ(std::memcmp(st.row(3), st.row(1), rs), 0);
  // The invariant is restored: plain append_row still works after a window.
  std::vector<std::byte> rec(st.row(0), st.row(0) + rs);
  st.append_row(rec);
  EXPECT_EQ(st.num_rows(), 5u);
}

TEST(SubTable, AppendRowsCommitBeyondReserveThrows) {
  SubTable st = sample(1);
  st.append_rows_reserve(1);
  EXPECT_THROW(st.append_rows_commit(2), Error);
}

TEST(SubTable, ReserveZeroRowsIsANoop) {
  SubTable st = sample(2);
  const std::size_t before = st.size_bytes();
  st.append_rows_reserve(0);
  st.append_rows_commit(0);
  st.append_rows_trim();
  EXPECT_EQ(st.size_bytes(), before);
  EXPECT_EQ(st.num_rows(), 2u);
}

TEST(SubTableId, Ordering) {
  EXPECT_LT((SubTableId{1, 5}), (SubTableId{2, 0}));
  EXPECT_LT((SubTableId{1, 5}), (SubTableId{1, 6}));
  EXPECT_EQ((SubTableId{3, 3}), (SubTableId{3, 3}));
}

TEST(SubTable, ToStringTruncates) {
  const SubTable st = sample(4);
  const std::string s = st.to_string(2);
  EXPECT_NE(s.find("rows=4"), std::string::npos);
  EXPECT_NE(s.find("2 more"), std::string::npos);
}

}  // namespace
}  // namespace orv
