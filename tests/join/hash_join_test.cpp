// In-memory hash join kernel: correctness vs nested-loop reference,
// duplicates, composite keys, empty inputs, record-size independence.

#include "join/hash_join.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/prng.hpp"

namespace orv {
namespace {

SchemaPtr schema_ab() {
  return Schema::make({{"k", AttrType::Int32}, {"a", AttrType::Float32}});
}

SchemaPtr schema_kb() {
  return Schema::make({{"k", AttrType::Int32}, {"b", AttrType::Float32}});
}

SubTable make_table(SchemaPtr schema, SubTableId id,
                    const std::vector<std::pair<int, float>>& rows) {
  SubTable st(std::move(schema), id);
  for (const auto& [k, v] : rows) {
    const Value vals[] = {Value(k), Value(v)};
    st.append_values(vals);
  }
  return st;
}

TEST(HashJoin, SimpleOneToOne) {
  auto left = make_table(schema_ab(), {1, 0}, {{1, 10.f}, {2, 20.f}, {3, 30.f}});
  auto right = make_table(schema_kb(), {2, 0}, {{2, 200.f}, {3, 300.f}, {4, 400.f}});
  JoinStats stats;
  auto out = hash_join(left, right, {"k"}, {9, 9}, &stats);
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(stats.build_tuples, 3u);
  EXPECT_EQ(stats.probe_tuples, 3u);
  EXPECT_EQ(stats.result_tuples, 2u);
  EXPECT_EQ(out.schema().num_attrs(), 3u);  // k, a, b
  EXPECT_TRUE(out.schema().has("k"));
  EXPECT_TRUE(out.schema().has("a"));
  EXPECT_TRUE(out.schema().has("b"));
}

TEST(HashJoin, MatchesNestedLoopOnRandomData) {
  Xoshiro256StarStar rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::pair<int, float>> lrows, rrows;
    const int n = 50 + static_cast<int>(rng.below(100));
    for (int i = 0; i < n; ++i) {
      lrows.emplace_back(static_cast<int>(rng.below(30)),
                         static_cast<float>(rng.uniform01()));
      rrows.emplace_back(static_cast<int>(rng.below(30)),
                         static_cast<float>(rng.uniform01()));
    }
    auto left = make_table(schema_ab(), {1, 0}, lrows);
    auto right = make_table(schema_kb(), {2, 0}, rrows);
    auto fast = hash_join(left, right, {"k"}, {9, 0});
    auto slow = nested_loop_join(left, right, {"k"}, {9, 1});
    EXPECT_EQ(fast.num_rows(), slow.num_rows()) << "trial " << trial;
    EXPECT_EQ(fast.unordered_fingerprint(), slow.unordered_fingerprint())
        << "trial " << trial;
    // Same bytes in the same order: nested_loop_join is the byte-order
    // reference of the hash join.
    EXPECT_TRUE(std::equal(fast.bytes().begin(), fast.bytes().end(),
                           slow.bytes().begin(), slow.bytes().end()))
        << "trial " << trial;
  }
}

TEST(HashJoin, DuplicateKeysProduceCrossProduct) {
  auto left = make_table(schema_ab(), {1, 0}, {{5, 1.f}, {5, 2.f}});
  auto right = make_table(schema_kb(), {2, 0}, {{5, 9.f}, {5, 8.f}, {5, 7.f}});
  auto out = hash_join(left, right, {"k"}, {9, 0});
  EXPECT_EQ(out.num_rows(), 6u);
}

TEST(HashJoin, EmptyLeft) {
  auto left = make_table(schema_ab(), {1, 0}, {});
  auto right = make_table(schema_kb(), {2, 0}, {{1, 1.f}});
  auto out = hash_join(left, right, {"k"}, {9, 0});
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(HashJoin, EmptyRight) {
  auto left = make_table(schema_ab(), {1, 0}, {{1, 1.f}});
  auto right = make_table(schema_kb(), {2, 0}, {});
  auto out = hash_join(left, right, {"k"}, {9, 0});
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(HashJoin, CompositeKeyFloatCoordinates) {
  auto sl = Schema::make({{"x", AttrType::Float32},
                          {"y", AttrType::Float32},
                          {"oilp", AttrType::Float32}});
  auto sr = Schema::make({{"x", AttrType::Float32},
                          {"y", AttrType::Float32},
                          {"wp", AttrType::Float32}});
  SubTable left(sl, {1, 0});
  SubTable right(sr, {2, 0});
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      const Value lv[] = {Value(float(x)), Value(float(y)), Value(0.5f)};
      left.append_values(lv);
      const Value rv[] = {Value(float(x)), Value(float(y)), Value(0.25f)};
      right.append_values(rv);
    }
  }
  JoinStats stats;
  auto out = hash_join(left, right, {"x", "y"}, {9, 0}, &stats);
  EXPECT_EQ(out.num_rows(), 64u);  // selectivity 1 at record level
  EXPECT_EQ(out.schema().num_attrs(), 4u);  // x,y,oilp,wp
  // Spot-check a joined row: find x=3,y=4.
  bool found = false;
  for (std::size_t r = 0; r < out.num_rows(); ++r) {
    if (out.get<float>(r, 0) == 3.f && out.get<float>(r, 1) == 4.f) {
      EXPECT_FLOAT_EQ(out.get<float>(r, 2), 0.5f);
      EXPECT_FLOAT_EQ(out.get<float>(r, 3), 0.25f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(HashJoin, NegativeZeroJoinsPositiveZero) {
  auto sl = Schema::make({{"x", AttrType::Float32}, {"a", AttrType::Int32}});
  auto sr = Schema::make({{"x", AttrType::Float32}, {"b", AttrType::Int32}});
  SubTable left(sl, {1, 0});
  const Value lv[] = {Value(-0.0f), Value(1)};
  left.append_values(lv);
  SubTable right(sr, {2, 0});
  const Value rv[] = {Value(0.0f), Value(2)};
  right.append_values(rv);
  auto out = hash_join(left, right, {"x"}, {9, 0});
  EXPECT_EQ(out.num_rows(), 1u);
}

TEST(HashJoin, MixedWidthKeyTypesJoin) {
  // f32 coordinate joins f64 coordinate with the same numeric value.
  auto sl = Schema::make({{"x", AttrType::Float32}, {"a", AttrType::Int32}});
  auto sr = Schema::make({{"x", AttrType::Float64}, {"b", AttrType::Int32}});
  SubTable left(sl, {1, 0});
  SubTable right(sr, {2, 0});
  for (int i = 0; i < 16; ++i) {
    const Value lv[] = {Value(float(i)), Value(i)};
    left.append_values(lv);
    const Value rv[] = {Value(double(i)), Value(i * 10)};
    right.append_values(rv);
  }
  auto out = hash_join(left, right, {"x"}, {9, 0});
  EXPECT_EQ(out.num_rows(), 16u);
}

TEST(BuiltHashTable, ReusableAcrossProbes) {
  auto left = std::make_shared<SubTable>(
      make_table(schema_ab(), {1, 0}, {{1, 1.f}, {2, 2.f}, {3, 3.f}}));
  BuiltHashTable ht(left, {"k"});
  EXPECT_EQ(ht.build_tuples(), 3u);

  auto r1 = make_table(schema_kb(), {2, 0}, {{1, 10.f}});
  auto r2 = make_table(schema_kb(), {2, 1}, {{3, 30.f}, {2, 20.f}});
  auto result_schema = std::make_shared<const Schema>(Schema::join_result(
      left->schema(), r1.schema(),
      JoinKey::resolve(r1.schema(), {"k"}).attr_indices()));
  SubTable out1(result_schema, {9, 0});
  SubTable out2(result_schema, {9, 1});
  EXPECT_EQ(ht.probe(r1, {"k"}, out1).result_tuples, 1u);
  EXPECT_EQ(ht.probe(r2, {"k"}, out2).result_tuples, 2u);
}

TEST(BuiltHashTable, TableBytesIndependentOfRecordSize) {
  // "The hash table stores a pointer to the record": wide and narrow
  // records with the same row count give the same table size.
  auto narrow = Schema::make({{"k", AttrType::Int32}});
  std::vector<Attribute> wide_attrs{{"k", AttrType::Int32}};
  for (int i = 0; i < 20; ++i) {
    wide_attrs.push_back({"a" + std::to_string(i), AttrType::Float64});
  }
  auto wide = Schema::make(wide_attrs);

  auto mk = [](SchemaPtr s, std::size_t rows) {
    auto st = std::make_shared<SubTable>(s, SubTableId{1, 0});
    std::vector<Value> vals(s->num_attrs(), Value(0));
    for (std::size_t r = 0; r < rows; ++r) {
      vals[0] = Value(static_cast<int>(r));
      st->append_values(vals);
    }
    return st;
  };
  BuiltHashTable ht_narrow(mk(narrow, 1000), {"k"});
  BuiltHashTable ht_wide(mk(wide, 1000), {"k"});
  EXPECT_EQ(ht_narrow.table_bytes(), ht_wide.table_bytes());
}

TEST(JoinKey, CompatibilityIsPairwiseIntegerOrFloatClass) {
  auto s = Schema::make({{"i32", AttrType::Int32},
                         {"i64", AttrType::Int64},
                         {"f32", AttrType::Float32},
                         {"f64", AttrType::Float64}});
  auto key = [&](std::vector<std::string> names) {
    return JoinKey::resolve(*s, names);
  };
  EXPECT_TRUE(key({"i32"}).compatible_with(key({"i64"})));
  EXPECT_TRUE(key({"f32"}).compatible_with(key({"f64"})));
  EXPECT_TRUE(key({"i64", "f32"}).compatible_with(key({"i32", "f64"})));
  EXPECT_FALSE(key({"i32"}).compatible_with(key({"f32"})));
  EXPECT_FALSE(key({"f64"}).compatible_with(key({"i64"})));
  EXPECT_FALSE(key({"i32", "f32"}).compatible_with(key({"f32", "i32"})));
  EXPECT_FALSE(key({"i32"}).compatible_with(key({"i32", "f32"})));
}

TEST(JoinKey, IntegerKeyAgainstFloatKeyThrows) {
  // Int32 lane 5 never equals the f64 bits of 5.0, so an int x float join
  // would silently return zero rows; every in-memory join rejects it.
  auto si = Schema::make({{"k", AttrType::Int32}, {"a", AttrType::Float32}});
  auto sf = Schema::make({{"k", AttrType::Float32}, {"b", AttrType::Float32}});
  SubTable ints(si, {1, 0});
  SubTable floats(sf, {2, 0});
  const Value iv[] = {Value(5), Value(1.0f)};
  ints.append_values(iv);
  const Value fv[] = {Value(5.0f), Value(2.0f)};
  floats.append_values(fv);
  auto expect_type_mismatch = [](auto&& run) {
    try {
      run();
      ADD_FAILURE() << "expected a join key type mismatch";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("join key type mismatch"),
                std::string::npos)
          << e.what();
    }
  };
  expect_type_mismatch([&] { hash_join(ints, floats, {"k"}, {9, 0}); });
  expect_type_mismatch([&] { hash_join(floats, ints, {"k"}, {9, 0}); });
  expect_type_mismatch([&] { nested_loop_join(ints, floats, {"k"}, {9, 0}); });
  const BuiltHashTable ht(std::make_shared<const SubTable>(ints), {"k"});
  SubTable out(std::make_shared<const Schema>(Schema::join_result(
                   ints.schema(), floats.schema(),
                   JoinKey::resolve(floats.schema(), {"k"}).attr_indices())),
               {9, 1});
  expect_type_mismatch([&] { ht.probe(floats, {"k"}, out); });
}

TEST(JoinKey, ResolveUnknownAttributeThrows) {
  auto s = schema_ab();
  EXPECT_THROW(JoinKey::resolve(*s, {"nope"}), NotFound);
  EXPECT_THROW(JoinKey::resolve(*s, {}), InvalidArgument);
}

}  // namespace
}  // namespace orv
