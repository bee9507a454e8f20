// Cache-conscious join kernel: RightCopyPlan layout planning, probe_range
// boundary rows, long duplicate chains, scalar/batched/radix A-B
// equivalence (identical bytes, not just fingerprints), and the batched
// kernel's key-box clip at its edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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

// --- key-box clip ----------------------------------------------------------
//
// The batched kernel skips probe rows whose key lies outside the left rows'
// key box, on the key attributes whose declared right interval does not lie
// inside the declared left one. The left sides below declare their bounds
// (compute_bounds), as chunks read from storage do. Every case checks the
// clipped output byte-for-byte against the unclipped scalar kernel, plus
// the clip counter.

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

/// Probes [begin, end) with `opt` and with the scalar kernel and expects
/// identical bytes and charged rows; returns the clipped probe's stats.
JoinStats expect_scalar_bytes(std::shared_ptr<const SubTable> left,
                              const SubTable& right,
                              const std::vector<std::string>& keys,
                              std::size_t begin, std::size_t end,
                              const JoinKernelOptions& opt = {}) {
  const BuiltHashTable scalar(left, keys, JoinKernelOptions::scalar());
  const BuiltHashTable tuned(left, keys, opt);
  const Probed want = probe_rows(scalar, right, keys, begin, end);
  const Probed got = probe_rows(tuned, right, keys, begin, end);
  EXPECT_EQ(want.stats.probe_rows_clipped, 0u);  // scalar never clips
  EXPECT_EQ(got.stats.probe_tuples, end - begin);
  EXPECT_EQ(got.stats.result_tuples, want.stats.result_tuples);
  EXPECT_EQ(got.out.size_bytes(), want.out.size_bytes());
  EXPECT_TRUE(std::equal(got.out.bytes().begin(), got.out.bytes().end(),
                         want.out.bytes().begin(), want.out.bytes().end()))
      << "range [" << begin << ", " << end << ")";
  return got.stats;
}

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
  EXPECT_EQ(expect_scalar_bytes(fx.left, fx.right, {"k"}, 0, 3000)
                .probe_rows_clipped,
            0u);
  fx.left->compute_bounds();
  for (const auto& [begin, end] : {std::pair<std::size_t, std::size_t>{0, 3000},
                                   {10, 2900}, {5, 6}}) {
    const JoinStats s =
        expect_scalar_bytes(fx.left, fx.right, {"k"}, begin, end);
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
  JoinStats s = expect_scalar_bytes(fx.left, fx.right, {"k"}, 0, 4000);
  EXPECT_EQ(s.result_tuples, 4000u);
  EXPECT_EQ(s.probe_rows_clipped, 0u);
  // Declared right bounds inside the left's: the test is skipped.
  fx.right.compute_bounds();
  s = expect_scalar_bytes(fx.left, fx.right, {"k"}, 0, 4000);
  EXPECT_EQ(s.probe_rows_clipped, 0u);
}

TEST(KeyBoxClip, NanInLeftKeyDisablesThatAttribute) {
  // x carries a NaN on the left, so x cannot clip and NaN-bit right rows
  // still match it as they do unclipped; y still clips.
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
  std::uint64_t y_outside = 0;
  for (int i = 0; i < 600; ++i) {
    // x far outside the non-NaN left values half the time, NaN otherwise.
    const double x = (i % 2 == 0) ? double(nan) : 100.0 + i;
    const std::int64_t y = i % 12;  // 8..11 lie outside the left y range
    y_outside += y >= 8;
    const Value rv[] = {Value(x), Value(y), Value(float(i))};
    right.append_values(rv);
  }
  const JoinStats s = expect_scalar_bytes(left, right, {"x", "y"}, 0, 600);
  EXPECT_GT(s.result_tuples, 0u);  // NaN rows match NaN rows
  EXPECT_EQ(s.probe_rows_clipped, y_outside);

  // Without a left NaN, NaN right rows cannot match and are clipped.
  auto clean = make_typed<float>(AttrType::Float32, {0.5f, 1.5f, 2.5f});
  clean->compute_bounds();
  auto probe = make_typed<float>(AttrType::Float32,
                                 {nan, 1.5f, -nan, 2.5f, nan}, 2);
  const JoinStats c = expect_scalar_bytes(clean, *probe, {"k"}, 0, 5);
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
  JoinStats s = expect_scalar_bytes(left, *right, {"k"}, 0, right->num_rows());
  EXPECT_EQ(s.result_tuples, 3u);       // -0.0, +0.0 and hi
  EXPECT_EQ(s.probe_rows_clipped, 4u);  // just past each edge, and +-inf
  // A -0.0 box edge admits +0.0 (and both join).
  auto neg = make_typed<float>(AttrType::Float32, {-0.0f, 1.0f});
  neg->compute_bounds();
  auto pos = make_typed<float>(AttrType::Float32, {0.0f, -0.0f, -1e-30f}, 2);
  s = expect_scalar_bytes(neg, *pos, {"k"}, 0, 3);
  EXPECT_EQ(s.result_tuples, 2u);
  EXPECT_EQ(s.probe_rows_clipped, 1u);
  // Integer edges.
  auto ileft = make_typed<int>(AttrType::Int32, {7, -3, 0});
  ileft->compute_bounds();
  auto iright = make_typed<int>(AttrType::Int32, {-4, -3, 7, 8, 0}, 2);
  s = expect_scalar_bytes(ileft, *iright, {"k"}, 0, 5);
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
  const JoinStats s = expect_scalar_bytes(left, *right, {"k"}, 0, 5);
  EXPECT_EQ(s.result_tuples, 2u);
  EXPECT_EQ(s.probe_rows_clipped, 2u);  // base and base + 4
}

TEST(KeyBoxClip, SubRangesCrossingProbeChunks) {
  Xoshiro256StarStar rng(31);
  std::vector<int> lkeys, rkeys;
  for (int i = 0; i < 700; ++i) lkeys.push_back(300 + static_cast<int>(rng.below(400)));
  for (int i = 0; i < 1500; ++i) rkeys.push_back(static_cast<int>(rng.below(1000)));
  ProbeFixture fx(lkeys, rkeys);
  JoinKernelOptions single;
  single.radix_build = false;
  single.probe_chunk = 64;
  JoinKernelOptions radix = single;
  radix.radix_build = true;
  radix.l2_bytes = 2 << 10;
  ASSERT_GT(BuiltHashTable(fx.left, {"k"}, radix).num_partitions(), 1u);
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 63}, {0, 64}, {0, 65}, {63, 129}, {30, 30 + 3 * 64 + 5}, {1, 1500}};
  for (const auto& opt : {single, radix}) {
    for (const auto& [begin, end] : ranges) {
      const JoinStats s =
          expect_scalar_bytes(fx.left, fx.right, {"k"}, begin, end, opt);
      std::uint64_t outside = 0;
      for (std::size_t r = begin; r < end; ++r) {
        const int k = fx.right.get<std::int32_t>(r, 0);
        outside += k < 300 || k > 699;
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
  const BuiltHashTable scalar(fx.left, {"k"}, JoinKernelOptions::scalar());
  const SubTable want = fx.probe(scalar, 0, 8000);
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
  JoinStats s = expect_scalar_bytes(fx.left, fx.right, {"k"}, 0, 1000);
  EXPECT_EQ(s.probe_rows_clipped, 0u);

  // Wrong left bounds only choose the test; the box that drops rows comes
  // from the left rows.
  fx.right.set_bounds(Rect::unbounded(fx.right.schema().num_attrs()));
  Rect wrong(fx.left->schema().num_attrs());
  wrong[0] = Interval{1e6, 2e6};
  fx.left->set_bounds(wrong);
  s = expect_scalar_bytes(fx.left, fx.right, {"k"}, 0, 1000);
  EXPECT_EQ(s.probe_rows_clipped, outside);
  EXPECT_GT(s.result_tuples, 0u);
}

TEST(KeyBoxClip, RandomizedOverlapSweep) {
  // Composite (f32 x, i32 y) keys over boxes with random partial overlap;
  // the clip counter must equal an independent count of out-of-box rows.
  auto sl = Schema::make({{"x", AttrType::Float32},
                          {"y", AttrType::Int32},
                          {"a", AttrType::Float32}});
  auto sr = Schema::make({{"y", AttrType::Int64},
                          {"x", AttrType::Float64},
                          {"b", AttrType::Float32}});
  Xoshiro256StarStar rng(2024);
  std::uint64_t clipped = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const auto pick = [&](int n) { return static_cast<int>(rng.below(n)); };
    const int lx0 = pick(20), lxn = 1 + pick(20);
    const int ly0 = pick(20), lyn = 1 + pick(20);
    const int rx0 = pick(20), rxn = 1 + pick(20);
    const int ry0 = pick(20), ryn = 1 + pick(20);
    auto left = std::make_shared<SubTable>(sl, SubTableId{1, 0});
    SubTable right(sr, SubTableId{2, 0});
    const std::size_t nl = 1 + rng.below(1500), nr = 1 + rng.below(3000);
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
    JoinKernelOptions opt;
    opt.probe_chunk = 16 + rng.below(300);
    opt.l2_bytes = (trial % 2) ? std::size_t{2} << 10 : std::size_t{1} << 20;
    const std::size_t begin = rng.below(nr);
    const std::size_t end = begin + rng.below(nr - begin + 1);
    const JoinStats s =
        expect_scalar_bytes(left, right, {"x", "y"}, begin, end, opt);
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
  }
  EXPECT_GT(clipped, 0u);
}

}  // namespace
}  // namespace orv
