// Join-key hash stability: golden JoinKey::hash_row values under the three
// salts. Grace Hash's h1/h2 partitions, and through them every simulated
// time in the committed BENCH_*.json baselines, depend on these exact
// values, so any change to lane canonicalization or mixing fails here.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/hash.hpp"
#include "join/key.hpp"

namespace orv {
namespace {

constexpr std::array<std::uint64_t, 3> kSalts = {kSaltInMemory, kSaltGraceH1,
                                                 kSaltGraceH2};

/// One attribute of each AttrType; row 0 holds an f32/f64 pair with equal
/// values (0.5), row 1 holds -0.0 in both floating attributes.
SubTable typed_rows() {
  auto schema = Schema::make({{"i", AttrType::Int32},
                              {"l", AttrType::Int64},
                              {"f", AttrType::Float32},
                              {"d", AttrType::Float64}});
  SubTable st(schema, SubTableId{1, 0});
  const Value rows[][4] = {
      {Value(std::int32_t{-7}), Value(std::int64_t{(1ll << 40) + 3}),
       Value(0.5f), Value(0.5)},
      {Value(std::int32_t{0}), Value(std::int64_t{-1}), Value(-0.0f),
       Value(-0.0)},
      {Value(std::numeric_limits<std::int32_t>::max()),
       Value(std::numeric_limits<std::int64_t>::min()), Value(3.25f),
       Value(1e300)},
  };
  for (const auto& row : rows) st.append_values(row);
  return st;
}

TEST(KeyHash, CompositeKeyGoldenValues) {
  const SubTable st = typed_rows();
  const JoinKey key = JoinKey::resolve(st.schema(), {"i", "l", "f", "d"});
  // [row][salt], salts in kSalts order.
  const std::uint64_t golden[3][3] = {
      {0x7960bb15fe2671d4ull, 0xa330f77055d17f96ull, 0xd29c11d92774cf1dull},
      {0xd05c48e319a3d560ull, 0x15d15b7341251aaeull, 0x7d80594f082a8322ull},
      {0xd19bead0d91c9fa9ull, 0x6199b5f5f5410647ull, 0x23547b3156491234ull},
  };
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t s = 0; s < kSalts.size(); ++s) {
      EXPECT_EQ(key.hash_row(st.row(r), kSalts[s]), golden[r][s])
          << "row " << r << " salt " << s;
    }
  }
}

TEST(KeyHash, SingleAttributeGoldenValuesPerType) {
  const SubTable st = typed_rows();
  const char* attrs[] = {"i", "l", "f", "d"};
  // [attribute][salt] on row 0; f32 0.5 and f64 0.5 share one lane, so
  // their hashes coincide.
  const std::uint64_t golden[4][3] = {
      {0x9f9349b6e6b27aa2ull, 0xfe8886a78a4fa9bbull, 0x1183683ad54f1fdbull},
      {0x3b476c915c537ec0ull, 0x90d778a9a6d7720bull, 0x044012dd242568f6ull},
      {0x570572c58d80807aull, 0xdf7fd1b8ad04cc9dull, 0x8e5a14d7cdbe44deull},
      {0x570572c58d80807aull, 0xdf7fd1b8ad04cc9dull, 0x8e5a14d7cdbe44deull},
  };
  for (std::size_t a = 0; a < 4; ++a) {
    const JoinKey key = JoinKey::resolve(st.schema(), {attrs[a]});
    for (std::size_t s = 0; s < kSalts.size(); ++s) {
      EXPECT_EQ(key.hash_row(st.row(0), kSalts[s]), golden[a][s])
          << "attr " << attrs[a] << " salt " << s;
    }
  }
}

TEST(KeyHash, NegativeZeroHashesAsPositiveZero) {
  const SubTable st = typed_rows();
  const std::uint64_t zero_lane = 0;  // the f64 bit pattern of +0.0
  for (const char* attr : {"f", "d"}) {
    const JoinKey key = JoinKey::resolve(st.schema(), {attr});
    for (std::uint64_t salt : kSalts) {
      EXPECT_EQ(key.hash_row(st.row(1), salt), hash_lanes({&zero_lane, 1}, salt))
          << attr;
    }
  }
}

TEST(KeyHash, HashRowEqualsHashOfExtractedLanes) {
  const SubTable st = typed_rows();
  const std::vector<std::vector<std::string>> keys = {
      {"i"}, {"l"}, {"f"}, {"d"}, {"d", "i"}, {"i", "l", "f", "d"}};
  for (const auto& names : keys) {
    const JoinKey key = JoinKey::resolve(st.schema(), names);
    std::vector<std::uint64_t> lanes(key.arity());
    for (std::size_t r = 0; r < st.num_rows(); ++r) {
      key.extract_lanes(st.row(r), lanes.data());
      for (std::uint64_t salt : kSalts) {
        EXPECT_EQ(key.hash_row(st.row(r), salt), hash_lanes(lanes, salt))
            << "row " << r << " arity " << key.arity();
      }
    }
  }
}

}  // namespace
}  // namespace orv
