// Cache-conscious join kernel: RightCopyPlan layout planning, probe_range
// boundary rows, long duplicate chains, and scalar/batched/radix A-B
// equivalence (identical bytes, not just fingerprints).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "join/hash_join.hpp"

namespace orv {
namespace {

std::shared_ptr<SubTable> make_keyed(SchemaPtr schema,
                                     const std::vector<int>& keys) {
  auto st = std::make_shared<SubTable>(std::move(schema), SubTableId{1, 0});
  std::vector<Value> vals;
  int serial = 0;
  for (int k : keys) {
    vals.clear();
    vals.push_back(Value(k));
    for (std::size_t a = 1; a < st->schema().num_attrs(); ++a) {
      vals.push_back(Value(static_cast<float>(serial++)));
    }
    st->append_values(vals);
  }
  return st;
}

SchemaPtr left_schema() {
  return Schema::make({{"k", AttrType::Int32}, {"a", AttrType::Float32}});
}

// --- RightCopyPlan ---------------------------------------------------------

TEST(RightCopyPlan, MergesAdjacentNonKeyAttrs) {
  // Key is the first attribute: the three trailing non-key attrs are
  // contiguous and must merge into a single memcpy piece.
  auto l = left_schema();
  auto r = Schema::make({{"k", AttrType::Int32},
                         {"b", AttrType::Float32},
                         {"c", AttrType::Float32},
                         {"d", AttrType::Int64}});
  const JoinKey rkey = JoinKey::resolve(*r, {"k"});
  const auto plan = RightCopyPlan::make(*l, *r, rkey);
  ASSERT_EQ(plan.pieces.size(), 1u);
  EXPECT_EQ(plan.pieces[0].src_offset, r->offset(1));
  EXPECT_EQ(plan.pieces[0].dst_offset, l->record_size());
  EXPECT_EQ(plan.pieces[0].size, 4u + 4u + 8u);
  EXPECT_EQ(plan.left_record_size, l->record_size());
  EXPECT_EQ(plan.result_record_size, l->record_size() + 16u);
}

TEST(RightCopyPlan, KeyOnlyRightSchemaHasNoPieces) {
  auto l = left_schema();
  auto r = Schema::make({{"k", AttrType::Int32}});
  const auto plan = RightCopyPlan::make(*l, *r, JoinKey::resolve(*r, {"k"}));
  EXPECT_TRUE(plan.pieces.empty());
  EXPECT_EQ(plan.result_record_size, l->record_size());
}

TEST(RightCopyPlan, MidSchemaKeySplitsIntoTwoPieces) {
  // Key in the middle: a leading piece, a gap at the key, a trailing piece.
  auto l = left_schema();
  auto r = Schema::make({{"b", AttrType::Float32},
                         {"k", AttrType::Int32},
                         {"c", AttrType::Int64}});
  const auto plan = RightCopyPlan::make(*l, *r, JoinKey::resolve(*r, {"k"}));
  ASSERT_EQ(plan.pieces.size(), 2u);
  EXPECT_EQ(plan.pieces[0].src_offset, r->offset(0));
  EXPECT_EQ(plan.pieces[0].size, 4u);
  EXPECT_EQ(plan.pieces[1].src_offset, r->offset(2));  // trailing piece
  EXPECT_EQ(plan.pieces[1].size, 8u);
  EXPECT_EQ(plan.pieces[1].dst_offset, plan.pieces[0].dst_offset + 4u);
}

// --- probe_range boundaries ------------------------------------------------

struct ProbeFixture {
  std::shared_ptr<SubTable> left;
  SubTable right;
  std::shared_ptr<const Schema> result_schema;

  explicit ProbeFixture(const std::vector<int>& lkeys,
                        const std::vector<int>& rkeys)
      : left(make_keyed(left_schema(), lkeys)),
        right(*make_keyed(
            Schema::make({{"k", AttrType::Int32}, {"b", AttrType::Float32}}),
            rkeys)) {
    result_schema = std::make_shared<const Schema>(Schema::join_result(
        left->schema(), right.schema(),
        JoinKey::resolve(right.schema(), {"k"}).attr_indices()));
  }

  SubTable probe(const BuiltHashTable& ht, std::size_t begin,
                 std::size_t end) const {
    SubTable out(result_schema, SubTableId{9, 0});
    ht.probe_range(right, {"k"}, begin, end, out);
    return out;
  }
};

TEST(ProbeRange, EmptyRange) {
  ProbeFixture fx({1, 2, 3}, {1, 2, 3});
  for (const auto& opt :
       {JoinKernelOptions{}, JoinKernelOptions::scalar()}) {
    const BuiltHashTable ht(fx.left, {"k"}, opt);
    EXPECT_EQ(fx.probe(ht, 0, 0).num_rows(), 0u);
    EXPECT_EQ(fx.probe(ht, 2, 2).num_rows(), 0u);
    EXPECT_EQ(fx.probe(ht, 3, 3).num_rows(), 0u);  // begin == num_rows
  }
}

TEST(ProbeRange, FullRangeEqualsProbe) {
  ProbeFixture fx({1, 2, 3, 4}, {2, 3, 4, 5});
  const BuiltHashTable ht(fx.left, {"k"});
  const SubTable ranged = fx.probe(ht, 0, fx.right.num_rows());
  SubTable whole(fx.result_schema, SubTableId{9, 1});
  ht.probe(fx.right, {"k"}, whole);
  EXPECT_EQ(ranged.num_rows(), 3u);
  ASSERT_EQ(ranged.size_bytes(), whole.size_bytes());
  EXPECT_EQ(std::memcmp(ranged.bytes().data(), whole.bytes().data(),
                        whole.size_bytes()),
            0);
}

TEST(ProbeRange, OutOfBoundsThrows) {
  ProbeFixture fx({1}, {1});
  const BuiltHashTable ht(fx.left, {"k"});
  SubTable out(fx.result_schema, SubTableId{9, 0});
  EXPECT_THROW(ht.probe_range(fx.right, {"k"}, 0, 2, out), Error);
  EXPECT_THROW(ht.probe_range(fx.right, {"k"}, 2, 1, out), Error);
}

TEST(ProbeRange, DuplicateChainLongerThanBatch) {
  // 40 left rows with the same key chain through >16 slots: one probe row
  // must emit all of them, in ascending left-row order, on every kernel.
  std::vector<int> lkeys(40, 7);
  lkeys.push_back(8);
  ProbeFixture fx(lkeys, {7, 9, 7});
  const BuiltHashTable tuned(fx.left, {"k"});
  const BuiltHashTable scalar(fx.left, {"k"}, JoinKernelOptions::scalar());
  const SubTable a = fx.probe(tuned, 0, fx.right.num_rows());
  const SubTable b = fx.probe(scalar, 0, fx.right.num_rows());
  EXPECT_EQ(a.num_rows(), 80u);
  ASSERT_EQ(a.size_bytes(), b.size_bytes());
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.size_bytes()),
            0);
  // Ascending left-row order within one probe row: attribute "a" carries
  // the left serial number.
  for (std::size_t r = 1; r < 40; ++r) {
    EXPECT_LT(a.get<float>(r - 1, 1), a.get<float>(r, 1));
  }
}

TEST(ProbeRange, ChunkBoundaryRangesMatchScalarBytes) {
  // The batched kernel sizes its per-chunk scratch to the probe range;
  // ranges just below, at and just above one chunk (and a range that
  // starts mid-table and straddles a chunk edge) must still emit exactly
  // the scalar kernel's bytes, with and without radix partitioning.
  Xoshiro256StarStar rng(77);
  std::vector<int> lkeys, rkeys;
  for (int i = 0; i < 3000; ++i) lkeys.push_back(static_cast<int>(rng.below(900)));
  for (int i = 0; i < 5000; ++i) rkeys.push_back(static_cast<int>(rng.below(1000)));
  ProbeFixture fx(lkeys, rkeys);

  JoinKernelOptions single;
  single.radix_build = false;
  JoinKernelOptions radix;
  radix.l2_bytes = 4 << 10;  // force partitioning on a small table
  const std::size_t chunk = single.probe_chunk;
  ASSERT_EQ(radix.probe_chunk, chunk);
  ASSERT_LT(chunk + 1 + 777, fx.right.num_rows());

  const BuiltHashTable ht_scalar(fx.left, {"k"}, JoinKernelOptions::scalar());
  const BuiltHashTable ht_single(fx.left, {"k"}, single);
  const BuiltHashTable ht_radix(fx.left, {"k"}, radix);
  EXPECT_EQ(ht_single.num_partitions(), 1u);
  EXPECT_GT(ht_radix.num_partitions(), 1u);

  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 1},         {0, 255},           {0, chunk - 1},
      {0, chunk},     {0, chunk + 1},     {777, 777 + chunk + 1},
  };
  for (const auto& [begin, end] : ranges) {
    const SubTable want = fx.probe(ht_scalar, begin, end);
    for (const BuiltHashTable* ht : {&ht_single, &ht_radix}) {
      const SubTable got = fx.probe(*ht, begin, end);
      ASSERT_EQ(got.size_bytes(), want.size_bytes())
          << "range [" << begin << ", " << end << ") partitions "
          << ht->num_partitions();
      EXPECT_TRUE(std::equal(got.bytes().begin(), got.bytes().end(),
                             want.bytes().begin()))
          << "range [" << begin << ", " << end << ") partitions "
          << ht->num_partitions();
    }
  }
}

// --- kernel A/B equivalence ------------------------------------------------

TEST(JoinKernel, ScalarBatchedRadixProduceIdenticalBytes) {
  Xoshiro256StarStar rng(123);
  std::vector<int> lkeys, rkeys;
  for (int i = 0; i < 5000; ++i) {
    lkeys.push_back(static_cast<int>(rng.below(800)));
    rkeys.push_back(static_cast<int>(rng.below(800)));
  }
  ProbeFixture fx(lkeys, rkeys);

  JoinKernelOptions radix;  // force partitioning on a tiny table
  radix.l2_bytes = 4 << 10;
  radix.probe_chunk = 64;
  radix.probe_batch = 4;
  JoinKernelOptions batched;
  batched.radix_build = false;

  const BuiltHashTable ht_scalar(fx.left, {"k"}, JoinKernelOptions::scalar());
  const BuiltHashTable ht_batched(fx.left, {"k"}, batched);
  const BuiltHashTable ht_radix(fx.left, {"k"}, radix);
  EXPECT_EQ(ht_scalar.num_partitions(), 1u);
  EXPECT_EQ(ht_batched.num_partitions(), 1u);
  EXPECT_GT(ht_radix.num_partitions(), 1u);

  const SubTable a = fx.probe(ht_scalar, 0, fx.right.num_rows());
  const SubTable b = fx.probe(ht_batched, 0, fx.right.num_rows());
  const SubTable c = fx.probe(ht_radix, 0, fx.right.num_rows());
  EXPECT_GT(a.num_rows(), 0u);
  ASSERT_EQ(a.size_bytes(), b.size_bytes());
  ASSERT_EQ(a.size_bytes(), c.size_bytes());
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.size_bytes()),
            0);
  EXPECT_EQ(std::memcmp(a.bytes().data(), c.bytes().data(), a.size_bytes()),
            0);
  EXPECT_EQ(a.unordered_fingerprint(), c.unordered_fingerprint());
}

TEST(JoinKernel, CompositeKeyAcrossKernels) {
  auto sl = Schema::make({{"x", AttrType::Float32},
                          {"y", AttrType::Int64},
                          {"p", AttrType::Float64}});
  auto sr = Schema::make({{"y", AttrType::Int32},  // mixed-width y joins i64
                          {"q", AttrType::Float32},
                          {"x", AttrType::Float64}});
  auto left = std::make_shared<SubTable>(sl, SubTableId{1, 0});
  SubTable right(sr, SubTableId{2, 0});
  Xoshiro256StarStar rng(9);
  for (int i = 0; i < 2000; ++i) {
    const int x = static_cast<int>(rng.below(40));
    const int y = static_cast<int>(rng.below(40));
    const Value lv[] = {Value(float(x)), Value(std::int64_t{y}),
                        Value(rng.uniform01())};
    left->append_values(lv);
    const Value rv[] = {Value(y), Value(float(i)), Value(double(x))};
    right.append_values(rv);
  }
  auto rs = std::make_shared<const Schema>(Schema::join_result(
      left->schema(), right.schema(),
      JoinKey::resolve(right.schema(), {"x", "y"}).attr_indices()));

  JoinKernelOptions radix;
  radix.l2_bytes = 2 << 10;
  const BuiltHashTable ht_scalar(left, {"x", "y"}, JoinKernelOptions::scalar());
  const BuiltHashTable ht_radix(left, {"x", "y"}, radix);
  SubTable a(rs, SubTableId{9, 0});
  SubTable b(rs, SubTableId{9, 1});
  const JoinStats sa = ht_scalar.probe(right, {"x", "y"}, a);
  const JoinStats sb = ht_radix.probe(right, {"x", "y"}, b);
  EXPECT_EQ(sa.result_tuples, sb.result_tuples);
  EXPECT_GT(a.num_rows(), 0u);
  ASSERT_EQ(a.size_bytes(), b.size_bytes());
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.size_bytes()),
            0);
}

TEST(JoinKernel, MatchesTestHookAgreesAcrossLayouts) {
  std::vector<int> lkeys{3, 1, 3, 2, 3};
  auto left = make_keyed(left_schema(), lkeys);
  auto right = make_keyed(
      Schema::make({{"k", AttrType::Int32}, {"b", AttrType::Float32}}), {3});
  JoinKernelOptions radix;
  radix.l2_bytes = 1;  // tiny threshold: even a 5-row table radix-partitions
  const BuiltHashTable plain(left, {"k"});
  const BuiltHashTable parts(left, {"k"}, radix);
  const JoinKey rkey = JoinKey::resolve(right->schema(), {"k"});
  const auto m1 = plain.matches(*right, rkey, 0);
  const auto m2 = parts.matches(*right, rkey, 0);
  EXPECT_EQ(m1, (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(m1, m2);
}

}  // namespace
}  // namespace orv
