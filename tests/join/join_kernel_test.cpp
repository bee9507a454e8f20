// Cache-conscious join kernel: RightCopyPlan layout planning, probe_range
// boundary rows, long duplicate chains, the partition-count size rule, and
// the key-box clip at its edges. Every probe is checked byte for byte (not
// just by fingerprint) against nested_loop_join, the byte-order reference,
// on one- and multi-partition tables and on ranges that cross probe-chunk
// edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <thread>
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

/// Left sizes at the partition-count edge: the tag + slot arrays of
/// kOnePartitionRows rows fill BuiltHashTable::kPartitionBytes at most, one
/// more row doubles the table and splits it into two partitions.
constexpr std::size_t kOnePartitionRows = 16384;
constexpr std::size_t kTwoPartitionRows = kOnePartitionRows + 1;
constexpr std::size_t kChunk = BuiltHashTable::kProbeChunk;

/// nested_loop_join of `left` with every row of `right`, plus where each
/// right row's matches start in that output. nested_loop_join emits in
/// right-row order, so the reference for the probe range [begin, end) is
/// one byte span, and a test can check many ranges for the cost of one
/// nested loop. The per-row starts come from counting equal key lanes (a
/// key with a NaN lane equals none), not from either join.
class NestedLoopReference {
 public:
  NestedLoopReference(const SubTable& left, const SubTable& right,
                      const std::vector<std::string>& keys)
      : out_(nested_loop_join(left, right, keys, SubTableId{8, 0})) {
    const JoinKey lkey = JoinKey::resolve(left.schema(), keys);
    const JoinKey rkey = JoinKey::resolve(right.schema(), keys);
    std::map<std::vector<std::uint64_t>, std::size_t> left_count;
    std::vector<std::uint64_t> lanes(lkey.arity());
    for (std::size_t l = 0; l < left.num_rows(); ++l) {
      lkey.extract_lanes(left.row(l), lanes.data());
      if (!lkey.has_nan(lanes.data())) ++left_count[lanes];
    }
    first_.push_back(0);
    for (std::size_t r = 0; r < right.num_rows(); ++r) {
      rkey.extract_lanes(right.row(r), lanes.data());
      const auto it = left_count.find(lanes);
      first_.push_back(first_.back() +
                       (it == left_count.end() ? 0 : it->second));
    }
    EXPECT_EQ(first_.back(), out_.num_rows());
  }

  std::size_t rows(std::size_t begin, std::size_t end) const {
    return first_[end] - first_[begin];
  }
  std::span<const std::byte> bytes(std::size_t begin, std::size_t end) const {
    const std::size_t rs = out_.record_size();
    return out_.bytes().subspan(first_[begin] * rs, rows(begin, end) * rs);
  }

 private:
  SubTable out_;
  std::vector<std::size_t> first_;  // right row r's matches start here
};

struct Probed {
  SubTable out;
  JoinStats stats;
};

Probed probe_rows(const BuiltHashTable& ht, const SubTable& right,
                  const std::vector<std::string>& keys, std::size_t begin,
                  std::size_t end) {
  auto rs = std::make_shared<const Schema>(Schema::join_result(
      ht.left().schema(), right.schema(),
      JoinKey::resolve(right.schema(), keys).attr_indices()));
  Probed p{SubTable(rs, SubTableId{9, 0}), {}};
  p.stats = ht.probe_range(right, keys, begin, end, p.out);
  return p;
}

/// Probes [begin, end) of `right` with `ht` and expects the reference's
/// bytes and every row of the range charged; returns the probe's stats.
JoinStats expect_reference_bytes(const BuiltHashTable& ht,
                                 const NestedLoopReference& want,
                                 const SubTable& right,
                                 const std::vector<std::string>& keys,
                                 std::size_t begin, std::size_t end) {
  const Probed got = probe_rows(ht, right, keys, begin, end);
  const auto w = want.bytes(begin, end);
  EXPECT_EQ(got.stats.probe_tuples, end - begin);
  EXPECT_EQ(got.stats.result_tuples, want.rows(begin, end));
  EXPECT_EQ(got.out.size_bytes(), w.size());
  EXPECT_TRUE(std::equal(got.out.bytes().begin(), got.out.bytes().end(),
                         w.begin(), w.end()))
      << "range [" << begin << ", " << end << ") partitions "
      << ht.num_partitions();
  return got.stats;
}

/// expect_reference_bytes for one range, on a table built from `left`.
JoinStats expect_nested_loop_bytes(std::shared_ptr<const SubTable> left,
                                   const SubTable& right,
                                   const std::vector<std::string>& keys,
                                   std::size_t begin, std::size_t end) {
  const BuiltHashTable ht(left, keys);
  return expect_reference_bytes(ht, NestedLoopReference(*left, right, keys),
                                right, keys, begin, end);
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

/// The left declares its bounds, as a chunk read from storage does, so the
/// batched kernel's key-box clip runs in every probe of the fixture.
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
    left->compute_bounds();
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
  const BuiltHashTable ht(fx.left, {"k"});
  EXPECT_EQ(fx.probe(ht, 0, 0).num_rows(), 0u);
  EXPECT_EQ(fx.probe(ht, 2, 2).num_rows(), 0u);
  EXPECT_EQ(fx.probe(ht, 3, 3).num_rows(), 0u);  // begin == num_rows
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
  // 40 left rows with the same key chain through more than kProbeBatch
  // slots: one probe row must emit all of them, in ascending left-row order.
  static_assert(BuiltHashTable::kProbeBatch < 40);
  std::vector<int> lkeys(40, 7);
  lkeys.push_back(8);
  ProbeFixture fx(lkeys, {7, 9, 7});
  const BuiltHashTable ht(fx.left, {"k"});
  const SubTable a = fx.probe(ht, 0, fx.right.num_rows());
  const SubTable b = nested_loop_join(*fx.left, fx.right, {"k"}, {8, 0});
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

TEST(ProbeRange, ChunkBoundaryRangesMatchNestedLoopBytes) {
  // The kernel sizes its per-chunk scratch to the probe range; ranges just
  // below, at and just above one chunk (and ranges that start mid-table
  // and straddle a chunk edge) must still emit exactly the nested loop's
  // bytes, on one partition and on two.
  Xoshiro256StarStar rng(77);
  std::vector<int> rkeys;
  for (int i = 0; i < 2900; ++i) rkeys.push_back(static_cast<int>(rng.below(1000)));
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 1},         {0, 255},           {0, kChunk - 1},
      {0, kChunk},    {0, kChunk + 1},    {777, 777 + kChunk + 1},
      {kChunk - 1, kChunk + 1},           {0, rkeys.size()},
  };
  for (const std::size_t nl : {std::size_t{3000}, kTwoPartitionRows}) {
    std::vector<int> lkeys;
    for (std::size_t i = 0; i < nl; ++i) {
      lkeys.push_back(static_cast<int>(rng.below(900)));
    }
    ProbeFixture fx(lkeys, rkeys);
    const BuiltHashTable ht(fx.left, {"k"});
    EXPECT_EQ(ht.num_partitions(), nl == 3000 ? 1u : 2u);
    const NestedLoopReference want(*fx.left, fx.right, {"k"});
    for (const auto& [begin, end] : ranges) {
      expect_reference_bytes(ht, want, fx.right, {"k"}, begin, end);
    }
  }
}

// --- partitioned tables ----------------------------------------------------

TEST(JoinKernel, PartitionCountFollowsTableSize) {
  // Partitioning is chosen by the table's size: one partition while the tag
  // + slot arrays fit in kPartitionBytes, then enough power-of-two
  // partitions to keep each under about half of it.
  const auto keys = [](std::size_t n) {
    std::vector<int> k(n);
    for (std::size_t i = 0; i < n; ++i) k[i] = static_cast<int>(i);
    return k;
  };
  const auto parts = [&](std::size_t n) {
    return BuiltHashTable(make_keyed(left_schema(), keys(n)), {"k"})
        .num_partitions();
  };
  EXPECT_EQ(parts(0), 1u);
  EXPECT_EQ(parts(kOnePartitionRows), 1u);
  EXPECT_EQ(parts(kTwoPartitionRows), 2u);
  EXPECT_EQ(parts(40000), 4u);
}

TEST(JoinKernel, PartitionedProbeMatchesNestedLoopBytes) {
  // Four partitions: the probe regroups each chunk by partition and must
  // restore probe-row order, with each row's duplicate matches in
  // ascending left-row order.
  Xoshiro256StarStar rng(123);
  std::vector<int> lkeys, rkeys;
  for (int i = 0; i < 40000; ++i) lkeys.push_back(static_cast<int>(rng.below(8000)));
  for (int i = 0; i < 1000; ++i) rkeys.push_back(static_cast<int>(rng.below(8000)));
  ProbeFixture fx(lkeys, rkeys);
  const BuiltHashTable ht(fx.left, {"k"});
  EXPECT_EQ(ht.num_partitions(), 4u);

  const SubTable a = fx.probe(ht, 0, fx.right.num_rows());
  const SubTable b = nested_loop_join(*fx.left, fx.right, {"k"}, {8, 0});
  EXPECT_GT(a.num_rows(), fx.right.num_rows());
  ASSERT_EQ(a.size_bytes(), b.size_bytes());
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.size_bytes()),
            0);
  EXPECT_EQ(a.unordered_fingerprint(), b.unordered_fingerprint());
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
  for (std::size_t i = 0; i < kTwoPartitionRows; ++i) {
    const int x = static_cast<int>(rng.below(120));
    const int y = static_cast<int>(rng.below(120));
    const Value lv[] = {Value(float(x)), Value(std::int64_t{y}),
                        Value(rng.uniform01())};
    left->append_values(lv);
  }
  for (int i = 0; i < 1000; ++i) {
    const int x = static_cast<int>(rng.below(120));
    const int y = static_cast<int>(rng.below(120));
    const Value rv[] = {Value(y), Value(float(i)), Value(double(x))};
    right.append_values(rv);
  }
  auto rs = std::make_shared<const Schema>(Schema::join_result(
      left->schema(), right.schema(),
      JoinKey::resolve(right.schema(), {"x", "y"}).attr_indices()));

  const BuiltHashTable ht(left, {"x", "y"});
  EXPECT_EQ(ht.num_partitions(), 2u);
  SubTable a(rs, SubTableId{9, 0});
  const JoinStats sa = ht.probe(right, {"x", "y"}, a);
  const SubTable b = nested_loop_join(*left, right, {"x", "y"}, {8, 0});
  EXPECT_EQ(sa.result_tuples, b.num_rows());
  EXPECT_GT(a.num_rows(), 0u);
  ASSERT_EQ(a.size_bytes(), b.size_bytes());
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.size_bytes()),
            0);
}

// --- key-box clip ----------------------------------------------------------
//
// The probe skips rows whose key lies outside the left rows' key box, on the
// key attributes whose declared right interval does not lie inside the
// declared left one. The left sides below declare their bounds
// (compute_bounds), as chunks read from storage do. Every case checks the
// clipped output byte-for-byte against nested_loop_join, which never clips,
// plus the clip counter.

/// One key attribute `k` of type `T` plus a serial payload; declares no
/// bounds.
template <typename T>
std::shared_ptr<SubTable> make_typed(AttrType type, const std::vector<T>& keys,
                                     std::uint32_t table = 1) {
  auto st = std::make_shared<SubTable>(
      Schema::make({{"k", type}, {"p" + std::to_string(table),
                                  AttrType::Float32}}),
      SubTableId{table, 0});
  float serial = 0;
  for (const T& k : keys) {
    const Value v[] = {Value(k), Value(serial++)};
    st->append_values(v);
  }
  return st;
}

TEST(KeyBoxClip, EmptyOverlapClipsEveryRow) {
  std::vector<int> lkeys, rkeys;
  for (int i = 0; i < 100; ++i) lkeys.push_back(i);
  for (int i = 0; i < 3000; ++i) rkeys.push_back(1000 + i % 500);
  ProbeFixture fx(lkeys, rkeys);
  // A left that declares no bounds (a hash bucket, a scan result) is never
  // tested.
  fx.left->set_bounds(Rect::unbounded(fx.left->schema().num_attrs()));
  EXPECT_EQ(expect_nested_loop_bytes(fx.left, fx.right, {"k"}, 0, 3000)
                .probe_rows_clipped,
            0u);
  fx.left->compute_bounds();
  for (const auto& [begin, end] : {std::pair<std::size_t, std::size_t>{0, 3000},
                                   {10, 2900}, {5, 6}}) {
    const JoinStats s =
        expect_nested_loop_bytes(fx.left, fx.right, {"k"}, begin, end);
    EXPECT_EQ(s.result_tuples, 0u);
    EXPECT_EQ(s.probe_tuples, end - begin);
    EXPECT_EQ(s.probe_rows_clipped, end - begin);
  }
}

TEST(KeyBoxClip, FullOverlapClipsNothing) {
  Xoshiro256StarStar rng(5);
  std::vector<int> lkeys, rkeys;
  for (int i = 0; i < 1000; ++i) lkeys.push_back(i);
  for (int i = 0; i < 4000; ++i) rkeys.push_back(static_cast<int>(rng.below(1000)));
  ProbeFixture fx(lkeys, rkeys);
  // Right declares no bounds: every row is tested and kept.
  JoinStats s = expect_nested_loop_bytes(fx.left, fx.right, {"k"}, 0, 4000);
  EXPECT_EQ(s.result_tuples, 4000u);
  EXPECT_EQ(s.probe_rows_clipped, 0u);
  // Declared right bounds inside the left's: the test is skipped.
  fx.right.compute_bounds();
  s = expect_nested_loop_bytes(fx.left, fx.right, {"k"}, 0, 4000);
  EXPECT_EQ(s.probe_rows_clipped, 0u);
}

TEST(KeyBoxClip, NanKeysMatchNothingAndAreClipped) {
  // x carries a NaN on the left. A NaN key equals nothing, so those left
  // rows stay out of the table and the box, and every right row — x NaN
  // or outside the box — is clipped without changing the output.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto sl = Schema::make({{"x", AttrType::Float32},
                          {"y", AttrType::Int32},
                          {"a", AttrType::Float32}});
  auto sr = Schema::make({{"x", AttrType::Float64},
                          {"y", AttrType::Int64},
                          {"b", AttrType::Float32}});
  auto left = std::make_shared<SubTable>(sl, SubTableId{1, 0});
  SubTable right(sr, SubTableId{2, 0});
  for (int i = 0; i < 40; ++i) {
    const float x = (i % 4 == 0) ? nan : float(i % 10);
    const Value lv[] = {Value(x), Value(i % 8), Value(float(i))};
    left->append_values(lv);
  }
  left->compute_bounds();
  for (int i = 0; i < 600; ++i) {
    // x far outside the non-NaN left values half the time, NaN otherwise.
    const double x = (i % 2 == 0) ? double(nan) : 100.0 + i;
    const std::int64_t y = i % 12;
    const Value rv[] = {Value(x), Value(y), Value(float(i))};
    right.append_values(rv);
  }
  const JoinStats s = expect_nested_loop_bytes(left, right, {"x", "y"}, 0, 600);
  EXPECT_EQ(s.result_tuples, 0u);  // NaN rows do not match NaN rows
  EXPECT_EQ(s.probe_rows_clipped, 600u);

  // Without a left NaN, NaN right rows are clipped all the same.
  auto clean = make_typed<float>(AttrType::Float32, {0.5f, 1.5f, 2.5f});
  clean->compute_bounds();
  auto probe = make_typed<float>(AttrType::Float32,
                                 {nan, 1.5f, -nan, 2.5f, nan}, 2);
  const JoinStats c = expect_nested_loop_bytes(clean, *probe, {"k"}, 0, 5);
  EXPECT_EQ(c.result_tuples, 2u);
  EXPECT_EQ(c.probe_rows_clipped, 3u);
}

TEST(KeyBoxClip, RowsOnBoxEdgesAreKept) {
  const double lo = 0.0, hi = 5.0;
  auto left = make_typed<double>(AttrType::Float64, {hi, 2.0, lo, 3.0});
  left->compute_bounds();
  auto right = make_typed<double>(
      AttrType::Float64,
      {-0.0, lo, hi, std::nextafter(hi, 10.0), std::nextafter(lo, -1.0),
       std::nextafter(lo, 1.0), -std::numeric_limits<double>::infinity(),
       std::numeric_limits<double>::infinity()},
      2);
  JoinStats s = expect_nested_loop_bytes(left, *right, {"k"}, 0, right->num_rows());
  EXPECT_EQ(s.result_tuples, 3u);       // -0.0, +0.0 and hi
  EXPECT_EQ(s.probe_rows_clipped, 4u);  // just past each edge, and +-inf
  // A -0.0 box edge admits +0.0 (and both join).
  auto neg = make_typed<float>(AttrType::Float32, {-0.0f, 1.0f});
  neg->compute_bounds();
  auto pos = make_typed<float>(AttrType::Float32, {0.0f, -0.0f, -1e-30f}, 2);
  s = expect_nested_loop_bytes(neg, *pos, {"k"}, 0, 3);
  EXPECT_EQ(s.result_tuples, 2u);
  EXPECT_EQ(s.probe_rows_clipped, 1u);
  // Integer edges.
  auto ileft = make_typed<int>(AttrType::Int32, {7, -3, 0});
  ileft->compute_bounds();
  auto iright = make_typed<int>(AttrType::Int32, {-4, -3, 7, 8, 0}, 2);
  s = expect_nested_loop_bytes(ileft, *iright, {"k"}, 0, 5);
  EXPECT_EQ(s.result_tuples, 3u);
  EXPECT_EQ(s.probe_rows_clipped, 2u);
}

TEST(KeyBoxClip, Int64KeysBeyondTwoPow53StayExact) {
  // In double, 2^53 + 1 rounds to 2^53 and 2^53 + 3 to 2^53 + 4: a box
  // kept in double would admit both neighbours below.
  const std::int64_t base = std::int64_t{1} << 53;
  auto left = make_typed<std::int64_t>(AttrType::Int64, {base + 1, base + 3});
  left->compute_bounds();  // declared in double: [2^53, 2^53 + 4]
  auto right = make_typed<std::int64_t>(
      AttrType::Int64, {base, base + 1, base + 2, base + 3, base + 4}, 2);
  const JoinStats s = expect_nested_loop_bytes(left, *right, {"k"}, 0, 5);
  EXPECT_EQ(s.result_tuples, 2u);
  EXPECT_EQ(s.probe_rows_clipped, 2u);  // base and base + 4
}

TEST(KeyBoxClip, SubRangesCrossingProbeChunks) {
  Xoshiro256StarStar rng(31);
  std::vector<int> rkeys;
  for (int i = 0; i < 2900; ++i) rkeys.push_back(static_cast<int>(rng.below(1000)));
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, kChunk - 1}, {0, kChunk},  {0, kChunk + 1}, {kChunk - 1, kChunk + 1},
      {63, 129},       {30, 2900}, {1, 2900},       {2000, 2100}};
  for (const std::size_t nl : {std::size_t{700}, kTwoPartitionRows}) {
    std::vector<int> lkeys;
    for (std::size_t i = 0; i < nl; ++i) {
      lkeys.push_back(300 + static_cast<int>(rng.below(400)));
    }
    const auto [lmin, lmax] = std::minmax_element(lkeys.begin(), lkeys.end());
    ProbeFixture fx(lkeys, rkeys);
    const BuiltHashTable ht(fx.left, {"k"});
    EXPECT_EQ(ht.num_partitions(), nl == 700 ? 1u : 2u);
    const NestedLoopReference want(*fx.left, fx.right, {"k"});
    for (const auto& [begin, end] : ranges) {
      const JoinStats s =
          expect_reference_bytes(ht, want, fx.right, {"k"}, begin, end);
      std::uint64_t outside = 0;
      for (std::size_t r = begin; r < end; ++r) {
        const int k = fx.right.get<std::int32_t>(r, 0);
        outside += k < *lmin || k > *lmax;
      }
      EXPECT_EQ(s.probe_rows_clipped, outside);
    }
  }
}

TEST(KeyBoxClip, ConcurrentFirstProbesShareOneKeyBox) {
  // The key box is computed on the first probe that tests; concurrent
  // probe_range calls that start together must all see it whole.
  Xoshiro256StarStar rng(77);
  std::vector<int> lkeys, rkeys;
  for (int i = 0; i < 3000; ++i) lkeys.push_back(2000 + static_cast<int>(rng.below(3000)));
  for (int i = 0; i < 8000; ++i) rkeys.push_back(static_cast<int>(rng.below(8000)));
  ProbeFixture fx(lkeys, rkeys);
  std::uint64_t outside = 0;
  for (int k : rkeys) outside += k < 2000 || k > 4999;
  const SubTable want = nested_loop_join(*fx.left, fx.right, {"k"}, {8, 0});
  for (int round = 0; round < 4; ++round) {
    const BuiltHashTable ht(fx.left, {"k"});
    constexpr std::size_t kThreads = 4;
    std::vector<SubTable> parts(kThreads,
                                SubTable(fx.result_schema, SubTableId{9, 0}));
    std::vector<JoinStats> stats(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        stats[t] = ht.probe_range(fx.right, {"k"}, t * 2000, (t + 1) * 2000,
                                  parts[t]);
      });
    }
    for (auto& th : threads) th.join();
    std::vector<std::byte> got;
    std::uint64_t clipped = 0;
    for (std::size_t t = 0; t < kThreads; ++t) {
      got.insert(got.end(), parts[t].bytes().begin(), parts[t].bytes().end());
      clipped += stats[t].probe_rows_clipped;
    }
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.bytes().begin(),
                           want.bytes().end()));
    EXPECT_EQ(clipped, outside);
  }
}

TEST(KeyBoxClip, LyingDeclaredBoundsNeverChangeOutput) {
  Xoshiro256StarStar rng(8);
  std::vector<int> lkeys, rkeys;
  for (int i = 0; i < 200; ++i) lkeys.push_back(100 + i);
  for (int i = 0; i < 1000; ++i) rkeys.push_back(static_cast<int>(rng.below(600)));
  ProbeFixture fx(lkeys, rkeys);
  std::uint64_t outside = 0;
  for (int k : rkeys) outside += k < 100 || k > 299;
  ASSERT_GT(outside, 0u);

  // Right bounds claim to lie inside the left's, but rows fall outside:
  // the per-row test is skipped, so nothing is clipped and nothing lost.
  Rect claim(fx.right.schema().num_attrs());
  claim[0] = Interval{150, 250};
  fx.right.set_bounds(claim);
  JoinStats s = expect_nested_loop_bytes(fx.left, fx.right, {"k"}, 0, 1000);
  EXPECT_EQ(s.probe_rows_clipped, 0u);

  // Wrong left bounds only choose the test; the box that drops rows comes
  // from the left rows.
  fx.right.set_bounds(Rect::unbounded(fx.right.schema().num_attrs()));
  Rect wrong(fx.left->schema().num_attrs());
  wrong[0] = Interval{1e6, 2e6};
  fx.left->set_bounds(wrong);
  s = expect_nested_loop_bytes(fx.left, fx.right, {"k"}, 0, 1000);
  EXPECT_EQ(s.probe_rows_clipped, outside);
  EXPECT_GT(s.result_tuples, 0u);
}

TEST(KeyBoxClip, RandomizedOverlapSweep) {
  // Composite (f32 x, i32 y) keys over boxes with random partial overlap;
  // the clip counter must equal an independent count of out-of-box rows.
  // Trials 1 and 13 build a two-partition left and probe a range longer
  // than one probe chunk; their left keys spread over at least 20 x 20
  // values, so each right row matches a few dozen left rows at most.
  auto sl = Schema::make({{"x", AttrType::Float32},
                          {"y", AttrType::Int32},
                          {"a", AttrType::Float32}});
  auto sr = Schema::make({{"y", AttrType::Int64},
                          {"x", AttrType::Float64},
                          {"b", AttrType::Float32}});
  Xoshiro256StarStar rng(2024);
  std::uint64_t clipped = 0, partitioned_clipped = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const bool partitioned = trial % 12 == 1;
    const int min_width = partitioned ? 20 : 1;
    const auto pick = [&](int n) { return static_cast<int>(rng.below(n)); };
    const int lx0 = pick(20), lxn = min_width + pick(20);
    const int ly0 = pick(20), lyn = min_width + pick(20);
    const int rx0 = pick(20), rxn = 1 + pick(20);
    const int ry0 = pick(20), ryn = 1 + pick(20);
    auto left = std::make_shared<SubTable>(sl, SubTableId{1, 0});
    SubTable right(sr, SubTableId{2, 0});
    const std::size_t nl =
        partitioned ? kTwoPartitionRows : 1 + rng.below(1500);
    const std::size_t nr =
        partitioned ? kChunk + 1 + rng.below(400) : 1 + rng.below(3000);
    float xmin = 1e9f, xmax = -1e9f;
    int ymin = 1 << 30, ymax = -(1 << 30);
    for (std::size_t i = 0; i < nl; ++i) {
      const float x = float(lx0 + pick(lxn)) * 0.5f;
      const int y = ly0 + pick(lyn);
      xmin = std::min(xmin, x), xmax = std::max(xmax, x);
      ymin = std::min(ymin, y), ymax = std::max(ymax, y);
      const Value lv[] = {Value(x), Value(y), Value(float(i))};
      left->append_values(lv);
    }
    for (std::size_t i = 0; i < nr; ++i) {
      const double x = double(rx0 + pick(rxn)) * 0.5;
      const std::int64_t y = ry0 + pick(ryn);
      const Value rv[] = {Value(y), Value(x), Value(float(i))};
      right.append_values(rv);
    }
    if (trial % 4 != 3) left->compute_bounds();  // else: never tested
    if (trial % 3 == 0) right.compute_bounds();
    // A partitioned trial's range spans more than one probe chunk.
    const std::size_t begin = rng.below(partitioned ? nr - kChunk : nr);
    const std::size_t end =
        partitioned ? begin + kChunk + 1 + rng.below(nr - begin - kChunk)
                    : begin + rng.below(nr - begin + 1);
    const BuiltHashTable ht(left, {"x", "y"});
    EXPECT_EQ(ht.num_partitions(), partitioned ? 2u : 1u) << "trial " << trial;
    const JoinStats s = expect_reference_bytes(
        ht, NestedLoopReference(*left, right, {"x", "y"}), right, {"x", "y"},
        begin, end);
    // An attribute whose declared right interval lies inside the declared
    // left one is not tested at all.
    const Rect& ld = left->bounds();
    const Rect& rd = right.bounds();
    const bool x_tested = !(rd[1].lo >= ld[0].lo && rd[1].hi <= ld[0].hi);
    const bool y_tested = !(rd[0].lo >= ld[1].lo && rd[0].hi <= ld[1].hi);
    std::uint64_t outside = 0;
    for (std::size_t r = begin; r < end; ++r) {
      const double x = right.get<double>(r, 1);
      const std::int64_t y = right.get<std::int64_t>(r, 0);
      outside += (x_tested && (x < xmin || x > xmax)) ||
                 (y_tested && (y < ymin || y > ymax));
    }
    EXPECT_EQ(s.probe_rows_clipped, outside) << "trial " << trial;
    clipped += outside;
    if (partitioned) partitioned_clipped += outside;
  }
  EXPECT_GT(clipped, 0u);
  EXPECT_GT(partitioned_clipped, 0u);
}

}  // namespace
}  // namespace orv
