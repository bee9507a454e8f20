// Differential tests of the join kernel (group tag matching, typed key
// lanes, the table hash) against nested_loop_join, the byte-order
// reference: every case compares the output bytes and row order, not only
// fingerprints, through both PairJoin and the string-keyed
// BuiltHashTable API. Also pins table_bytes(), the simulated cache's
// charge for a table.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "join/hash_join.hpp"

namespace orv {
namespace {

const std::vector<std::string> kK = {"k"};

std::size_t slots_for(std::size_t rows) {
  return std::bit_ceil(std::max<std::size_t>(16, 2 * rows));
}

/// A sub-table of `schema` with one row per entry of `rows`.
std::shared_ptr<SubTable> make_rows(SchemaPtr schema,
                                    const std::vector<std::vector<Value>>& rows,
                                    std::uint32_t table = 1) {
  auto st = std::make_shared<SubTable>(std::move(schema), SubTableId{table, 0});
  for (const auto& r : rows) st->append_values(r);
  return st;
}

SchemaPtr join_schema(const SubTable& left, const SubTable& right,
                      const std::vector<std::string>& keys) {
  return std::make_shared<const Schema>(Schema::join_result(
      left.schema(), right.schema(),
      JoinKey::resolve(right.schema(), keys).attr_indices()));
}

void expect_same_bytes(const SubTable& got, const SubTable& want,
                       const std::string& what) {
  EXPECT_EQ(got.num_rows(), want.num_rows()) << what;
  ASSERT_EQ(got.size_bytes(), want.size_bytes()) << what;
  EXPECT_TRUE(std::equal(got.bytes().begin(), got.bytes().end(),
                         want.bytes().begin()))
      << what;
}

/// Joins `left` with `right` through a PairJoin and through the string
/// API, and expects nested_loop_join's bytes from both; returns the
/// reference's row count.
std::size_t expect_nested_loop_bytes(std::shared_ptr<const SubTable> left,
                                     const SubTable& right,
                                     const std::vector<std::string>& keys,
                                     const std::string& what) {
  const SubTable want = nested_loop_join(*left, right, keys, SubTableId{8, 0});
  PairJoin pairs(join_schema(*left, right, keys), keys);
  const auto table = pairs.build(left);
  expect_same_bytes(pairs.probe(*table, right, SubTableId{8, 0}), want,
                    what + " (PairJoin)");
  EXPECT_EQ(pairs.stats().probe_tuples, right.num_rows()) << what;
  EXPECT_EQ(pairs.stats().result_tuples, want.num_rows()) << what;

  const BuiltHashTable ht(left, keys);
  SubTable out(join_schema(*left, right, keys), SubTableId{8, 0});
  const JoinStats s = ht.probe(right, keys, out);
  expect_same_bytes(out, want, what + " (string API)");
  EXPECT_EQ(s.result_tuples, want.num_rows()) << what;
  return want.num_rows();
}

/// Key `k` of type `key_type` plus a serial f32 payload named `payload`.
SchemaPtr keyed_schema(AttrType key_type, const std::string& payload) {
  return Schema::make({{"k", key_type}, {payload, AttrType::Float32}});
}

Value typed(AttrType type, double v) {
  switch (type) {
    case AttrType::Int32:
      return Value(static_cast<std::int32_t>(v));
    case AttrType::Int64:
      return Value(static_cast<std::int64_t>(v));
    case AttrType::Float32:
      return Value(static_cast<float>(v));
    case AttrType::Float64:
      return Value(v);
  }
  return Value(0);
}

std::shared_ptr<SubTable> keyed_rows(AttrType key_type,
                                     const std::string& payload,
                                     const std::vector<double>& keys,
                                     std::uint32_t table = 1) {
  std::vector<std::vector<Value>> rows;
  float serial = 0;
  for (double k : keys) rows.push_back({typed(key_type, k), Value(serial++)});
  return make_rows(keyed_schema(key_type, payload), rows, table);
}

std::vector<double> random_keys(Xoshiro256StarStar& rng, std::size_t n,
                                int lo, int hi) {
  std::vector<double> k(n);
  for (auto& v : k) {
    v = lo + static_cast<double>(rng.below(static_cast<std::uint64_t>(hi - lo)));
  }
  return k;
}

// --- table_bytes: the simulated cache's charge ------------------------------

TEST(TableBytes, OnePartitionIsSlotCountTimes17) {
  for (const std::size_t n : {0, 1, 7, 8, 9, 100, 512, 4096, 16384}) {
    std::vector<double> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<double>(i);
    const BuiltHashTable ht(keyed_rows(AttrType::Int32, "a", keys), kK);
    ASSERT_EQ(ht.num_partitions(), 1u) << n;
    EXPECT_EQ(ht.partition_rows(0), n);
    // 16 bytes of Slot and one tag per slot; the mirror tags are not
    // charged.
    EXPECT_EQ(ht.table_bytes(), slots_for(n) * 17) << n;
  }
}

TEST(TableBytes, RadixIsTheSumOverPartitions) {
  Xoshiro256StarStar rng(4);
  // NaN-keyed rows are not inserted, but they are routed and size their
  // partition all the same.
  std::vector<double> keys = random_keys(rng, 40000, 0, 1 << 20);
  for (std::size_t i = 0; i < keys.size(); i += 97) keys[i] = std::nan("");
  const BuiltHashTable ht(keyed_rows(AttrType::Float64, "a", keys), kK);
  ASSERT_EQ(ht.num_partitions(), 4u);
  std::size_t rows = 0, charge = 0;
  for (std::size_t p = 0; p < ht.num_partitions(); ++p) {
    rows += ht.partition_rows(p);
    charge += slots_for(ht.partition_rows(p)) * 17;
  }
  EXPECT_EQ(rows, keys.size());
  EXPECT_EQ(ht.table_bytes(), charge);
}

// --- differential: kernel vs nested loop -------------------------------------

TEST(KernelDiff, ProbeSizesAroundGroupsAndChunks) {
  // Probe sizes around one tag group (8) and one probe chunk (2048), with
  // the clip on (the left declares its bounds) and off.
  Xoshiro256StarStar rng(11);
  auto left = keyed_rows(AttrType::Int32, "a", random_keys(rng, 500, 0, 100));
  for (const bool clip : {true, false}) {
    if (clip) left->compute_bounds();
    for (const std::size_t n : {0, 1, 7, 8, 9, 2048, 2049}) {
      const auto right =
          keyed_rows(AttrType::Int32, "b", random_keys(rng, n, -20, 120), 2);
      expect_nested_loop_bytes(left, *right, kK,
                               "probe rows " + std::to_string(n));
    }
  }
}

TEST(KernelDiff, ChainsCrossGroupsAndPartitionEnds) {
  // Eight equal keys fill eight consecutive slots of a 16-slot table, from
  // wherever the key hashes: over 64 keys some chains wrap past the
  // partition end (a start in 9..15 has odds 7/16 per key), and every
  // chain ends in the next group.
  for (int k = 0; k < 64; ++k) {
    const auto left = keyed_rows(AttrType::Int64, "a", std::vector<double>(8, k));
    const auto right =
        keyed_rows(AttrType::Int64, "b", {double(k), double(k + 1), double(k)}, 2);
    EXPECT_EQ(expect_nested_loop_bytes(left, *right, kK,
                                       "key " + std::to_string(k)),
              16u);
  }
  // More than eight equal keys: one chain spans several groups, and the
  // distinct keys inserted between them interleave with it.
  std::vector<double> keys;
  for (int i = 0; i < 60; ++i) keys.push_back(i % 3 == 0 ? 7 : 100 + i);
  const auto left = keyed_rows(AttrType::Int32, "a", keys);
  const auto right = keyed_rows(AttrType::Int32, "b", {7, 101, 7, 5, 7}, 2);
  EXPECT_EQ(expect_nested_loop_bytes(left, *right, kK, "long chain"),
            3 * 20u + 1u);
}

TEST(KernelDiff, RadixBuilds) {
  Xoshiro256StarStar rng(12);
  for (const std::size_t n : {16385, 40000}) {
    auto left = keyed_rows(AttrType::Float32, "a", random_keys(rng, n, 0, 9000));
    left->compute_bounds();
    const auto right =
        keyed_rows(AttrType::Float64, "b", random_keys(rng, 3000, -100, 9100), 2);
    ASSERT_GT(BuiltHashTable(left, kK).num_partitions(), 1u);
    EXPECT_GT(expect_nested_loop_bytes(left, *right, kK,
                                       "radix " + std::to_string(n)),
              0u);
  }
}

TEST(KernelDiff, EveryKeyTypePairingWithNanAndNegativeZero) {
  const AttrType ints[] = {AttrType::Int32, AttrType::Int64};
  const AttrType floats[] = {AttrType::Float32, AttrType::Float64};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Xoshiro256StarStar rng(13);
  std::vector<double> lkeys = random_keys(rng, 300, -50, 50);
  std::vector<double> rkeys = random_keys(rng, 2049, -60, 60);
  for (const auto& [lt, rt] : std::vector<std::pair<AttrType, AttrType>>{
           {ints[0], ints[0]}, {ints[0], ints[1]}, {ints[1], ints[0]},
           {ints[1], ints[1]}}) {
    const auto left = keyed_rows(lt, "a", lkeys);
    const auto right = keyed_rows(rt, "b", rkeys, 2);
    expect_nested_loop_bytes(left, *right, kK, "int pairing");
  }
  std::vector<double> lf = lkeys, rf = rkeys;
  for (std::size_t i = 0; i < lf.size(); i += 9) lf[i] = nan;
  for (std::size_t i = 1; i < lf.size(); i += 11) lf[i] = -0.0;
  for (std::size_t i = 2; i < lf.size(); i += 13) lf[i] = 0.25 * double(i);
  lf[5] = inf;
  lf[6] = -inf;
  for (std::size_t i = 0; i < rf.size(); i += 7) rf[i] = nan;
  for (std::size_t i = 1; i < rf.size(); i += 5) rf[i] = 0.0;
  for (std::size_t i = 3; i < rf.size(); i += 17) rf[i] = -0.0;
  for (std::size_t i = 4; i < rf.size(); i += 19) rf[i] = 0.25 * double(i % 300);
  rf[8] = inf;
  rf[9] = -inf;
  for (const AttrType lt : floats) {
    for (const AttrType rt : floats) {
      auto left = keyed_rows(lt, "a", lf);
      const auto right = keyed_rows(rt, "b", rf, 2);
      const std::string what = "float pairing " +
                               std::to_string(static_cast<int>(lt)) + "x" +
                               std::to_string(static_cast<int>(rt));
      // -0.0 joins +0.0, so zeros must match; NaN matches nothing.
      EXPECT_GT(expect_nested_loop_bytes(left, *right, kK, what), 0u);
      left->compute_bounds();
      expect_nested_loop_bytes(left, *right, kK, what + " clipped");
    }
  }
}

TEST(KernelDiff, KeyArityOneToEight) {
  // Key attributes cycle through all four types; the right side lists them
  // in reverse, between payload attributes, so its copy plan has several
  // pieces. Values come from {0, 1, 2}, so composite keys repeat.
  const AttrType cycle[] = {AttrType::Int32, AttrType::Float64,
                            AttrType::Int64, AttrType::Float32};
  Xoshiro256StarStar rng(14);
  for (std::size_t arity = 1; arity <= 8; ++arity) {
    std::vector<std::string> keys;
    std::vector<Attribute> la{{"a", AttrType::Float32}}, ra;
    for (std::size_t i = 0; i < arity; ++i) {
      keys.push_back("k" + std::to_string(i));
      la.push_back({keys.back(), cycle[i % 4]});
    }
    // The right key's type is the other one of the left's integer or
    // float class: cycle[i] and cycle[i + 2] share a class.
    ra.push_back({"b", AttrType::Int64});
    for (std::size_t i = arity; i-- > 0;) {
      ra.push_back({keys[i], cycle[(i + 2) % 4]});
      if (i == arity / 2) ra.push_back({"c", AttrType::Float32});
    }
    auto row = [&](const std::vector<Attribute>& attrs, float serial) {
      std::vector<Value> v;
      for (const Attribute& a : attrs) {
        if (a.name[0] == 'k') {
          v.push_back(typed(a.type, static_cast<double>(rng.below(3))));
        } else {
          v.push_back(typed(a.type, serial));
        }
      }
      return v;
    };
    std::vector<std::vector<Value>> lrows, rrows;
    for (int i = 0; i < 200; ++i) lrows.push_back(row(la, float(i)));
    for (int i = 0; i < 300; ++i) rrows.push_back(row(ra, float(i)));
    const auto left = make_rows(Schema::make(la), lrows);
    const auto right = make_rows(Schema::make(ra), rrows, 2);
    EXPECT_GT(expect_nested_loop_bytes(left, *right, keys,
                                       "arity " + std::to_string(arity)),
              0u);
  }
}

TEST(KernelDiff, OnePairJoinProbedWithTwoRightSchemas) {
  // The two right schemas give the same result schema (the non-key right
  // attribute is "b" in both) but different key types and copy plans: the
  // PairJoin resolves each anew, and a schema equal by value to the one
  // it resolved is reused.
  Xoshiro256StarStar rng(15);
  const auto left = keyed_rows(AttrType::Int32, "a", random_keys(rng, 400, 0, 50));
  const auto r1 = keyed_rows(AttrType::Int32, "b", random_keys(rng, 300, 0, 60), 2);
  auto s2 = Schema::make({{"b", AttrType::Float32}, {"k", AttrType::Int64}});
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({Value(float(i)),
                    Value(static_cast<std::int64_t>(rng.below(60)))});
  }
  const auto r2 = make_rows(s2, rows, 2);
  const auto r2_copy = make_rows(Schema::make(s2->attrs()), rows, 2);
  ASSERT_EQ(*join_schema(*left, *r1, kK), *join_schema(*left, *r2, kK));

  PairJoin pairs(join_schema(*left, *r1, kK), kK);
  const auto table = pairs.build(left);
  std::size_t probed = 0, matched = 0;
  for (const SubTable* right : {r1.get(), r2.get(), r2_copy.get(), r1.get()}) {
    const SubTable want = nested_loop_join(*left, *right, kK, SubTableId{8, 0});
    expect_same_bytes(pairs.probe(*table, *right, SubTableId{8, 0}), want,
                      right->schema().to_string());
    probed += right->num_rows();
    matched += want.num_rows();
  }
  EXPECT_EQ(pairs.stats().build_tuples, left->num_rows());
  EXPECT_EQ(pairs.stats().probe_tuples, probed);
  EXPECT_EQ(pairs.stats().result_tuples, matched);
}

}  // namespace
}  // namespace orv
