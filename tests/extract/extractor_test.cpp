// Extractors: every layout encode/extract round-trips bit-exactly
// (property sweep over row counts, including non-multiples of the blocked
// layout's block size), registry resolution, custom registration.

#include "extract/extractor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/prng.hpp"

namespace orv {
namespace {

SubTable random_table(std::size_t rows, std::size_t attrs,
                      std::uint64_t seed) {
  std::vector<Attribute> as;
  as.push_back({"x", AttrType::Float32});
  for (std::size_t i = 1; i < attrs; ++i) {
    const AttrType t = (i % 3 == 0)   ? AttrType::Int64
                       : (i % 3 == 1) ? AttrType::Float64
                                      : AttrType::Int32;
    as.push_back({"a" + std::to_string(i), t});
  }
  SubTable st(Schema::make(std::move(as)), SubTableId{2, 5});
  Xoshiro256StarStar rng(seed);
  std::vector<Value> vals;
  for (std::size_t r = 0; r < rows; ++r) {
    vals.clear();
    for (std::size_t i = 0; i < attrs; ++i) {
      switch (st.schema().attr(i).type) {
        case AttrType::Float32:
          vals.push_back(Value(static_cast<float>(rng.uniform01())));
          break;
        case AttrType::Float64:
          vals.push_back(Value(rng.uniform01()));
          break;
        case AttrType::Int32:
          vals.push_back(Value(static_cast<std::int32_t>(rng.below(1000))));
          break;
        case AttrType::Int64:
          vals.push_back(Value(static_cast<std::int64_t>(rng())));
          break;
      }
    }
    st.append_values(vals);
  }
  st.compute_bounds();
  return st;
}

// CMake's gtest_discover_tests names each case by a byte dump of its
// parameter, so the struct carries explicit zero fill in place of padding:
// otherwise uninitialised padding bytes leak into the test names and the
// names change from build to build.
struct RoundTripCase {
  RoundTripCase(LayoutId l, std::size_t r, std::size_t a)
      : layout(l), rows(r), attrs(a) {}
  LayoutId layout;
  std::uint16_t fill16 = 0;
  std::uint32_t fill32 = 0;
  std::size_t rows;
  std::size_t attrs;
};
static_assert(sizeof(RoundTripCase) == 24, "RoundTripCase has padding");

class ExtractorRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(ExtractorRoundTrip, EncodeThenExtractIsIdentity) {
  const auto& c = GetParam();
  const SubTable original = random_table(c.rows, c.attrs, 99 + c.rows);
  const auto chunk = make_chunk(original, c.layout);
  const SubTable back = extract_chunk(chunk);
  EXPECT_EQ(back.id(), original.id());
  EXPECT_EQ(back.schema(), original.schema());
  EXPECT_EQ(back.num_rows(), original.num_rows());
  EXPECT_EQ(back.bounds(), original.bounds());
  ASSERT_EQ(back.size_bytes(), original.size_bytes());
  const auto ob = original.bytes();
  const auto bb = back.bytes();
  EXPECT_TRUE(std::equal(ob.begin(), ob.end(), bb.begin()))
      << "payload mismatch for layout "
      << static_cast<int>(c.layout) << " rows=" << c.rows;
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ExtractorRoundTrip,
    ::testing::Values(
        RoundTripCase{LayoutId::RowMajor, 0, 3},
        RoundTripCase{LayoutId::RowMajor, 1, 3},
        RoundTripCase{LayoutId::RowMajor, 257, 5},
        RoundTripCase{LayoutId::ColMajor, 0, 3},
        RoundTripCase{LayoutId::ColMajor, 1, 4},
        RoundTripCase{LayoutId::ColMajor, 63, 4},
        RoundTripCase{LayoutId::ColMajor, 1024, 7},
        RoundTripCase{LayoutId::BlockedRows, 0, 3},
        RoundTripCase{LayoutId::BlockedRows, 1, 3},
        RoundTripCase{LayoutId::BlockedRows, 63, 4},   // < one block
        RoundTripCase{LayoutId::BlockedRows, 64, 4},   // exactly one block
        RoundTripCase{LayoutId::BlockedRows, 65, 4},   // block + 1
        RoundTripCase{LayoutId::BlockedRows, 1000, 6}  // ragged tail
        ));

/// Per-cell column encoder, independent of the library's transposition:
/// for each block of `block` rows, every cell of attribute 0, then of
/// attribute 1, and so on.
std::vector<std::byte> reference_encode(const SubTable& t, std::size_t block) {
  const Schema& schema = t.schema();
  const std::size_t rs = schema.record_size();
  const std::byte* rows = t.bytes().data();
  std::vector<std::byte> out;
  for (std::size_t first = 0; first < t.num_rows(); first += block) {
    const std::size_t last = std::min(first + block, t.num_rows());
    for (std::size_t a = 0; a < schema.num_attrs(); ++a) {
      const std::size_t w = attr_size(schema.attr(a).type);
      for (std::size_t r = first; r < last; ++r) {
        const std::byte* cell = rows + r * rs + schema.offset(a);
        out.insert(out.end(), cell, cell + w);
      }
    }
  }
  return out;
}

TEST(ColumnLayouts, MixedWidthsRoundTripAndMatchPerCellEncoder) {
  // random_table(.., 5, ..) has Float32, Float64, Int32, Int64, Float64
  // columns, so 4- and 8-byte cells alternate within a record.
  const std::vector<std::size_t> row_counts = {
      0, 1, 7, kBlockedRowsBlock - 1, kBlockedRowsBlock, kBlockedRowsBlock + 1};
  const auto& registry = ExtractorRegistry::global();
  for (const LayoutId layout : {LayoutId::ColMajor, LayoutId::BlockedRows}) {
    const Extractor& extractor = registry.for_layout(layout);
    for (const std::size_t rows : row_counts) {
      SCOPED_TRACE(extractor.name() + " rows=" + std::to_string(rows));
      const SubTable t = random_table(rows, 5, 7 + rows);
      const auto payload = extractor.encode(t);
      const std::size_t block =
          layout == LayoutId::ColMajor ? std::max<std::size_t>(rows, 1)
                                       : kBlockedRowsBlock;
      EXPECT_EQ(payload, reference_encode(t, block));

      ChunkHeader header;
      header.layout = layout;
      header.table = t.id().table;
      header.chunk = t.id().chunk;
      header.num_rows = rows;
      header.schema = t.schema();
      header.bounds = t.bounds();
      header.payload_size = payload.size();
      const SubTable back = extractor.extract(header, payload);
      EXPECT_EQ(back.bounds(), t.bounds());
      ASSERT_EQ(back.size_bytes(), t.size_bytes());
      const auto tb = t.bytes();
      const auto bb = back.bytes();
      EXPECT_TRUE(std::equal(tb.begin(), tb.end(), bb.begin()));
    }
  }
}

TEST(ExtractorRegistry, ResolvesBuiltins) {
  auto& reg = ExtractorRegistry::global();
  EXPECT_EQ(reg.for_layout(LayoutId::RowMajor).name(), "row-major");
  EXPECT_EQ(reg.for_layout(LayoutId::ColMajor).name(), "col-major");
  EXPECT_EQ(reg.for_layout(LayoutId::BlockedRows).name(), "blocked-rows");
}

TEST(ExtractorRegistry, LaterRegistrationWins) {
  class CustomRowMajor final : public Extractor {
   public:
    LayoutId layout() const override { return LayoutId::RowMajor; }
    std::string name() const override { return "custom"; }
    SubTable extract(const ChunkHeader& header,
                     std::span<const std::byte> payload) const override {
      return RowMajorExtractor().extract(header, payload);
    }
    std::vector<std::byte> encode(const SubTable& table) const override {
      return RowMajorExtractor().encode(table);
    }
  };
  ExtractorRegistry reg;  // fresh, with builtins
  reg.register_extractor(std::make_unique<CustomRowMajor>());
  EXPECT_EQ(reg.for_layout(LayoutId::RowMajor).name(), "custom");
}

TEST(ExtractorRegistry, ColMajorNotRowMajorBytes) {
  // Sanity: the layouts genuinely differ on disk for multi-row tables.
  const SubTable t = random_table(8, 3, 1);
  const auto row = ExtractorRegistry::global()
                       .for_layout(LayoutId::RowMajor)
                       .encode(t);
  const auto col = ExtractorRegistry::global()
                       .for_layout(LayoutId::ColMajor)
                       .encode(t);
  ASSERT_EQ(row.size(), col.size());
  EXPECT_FALSE(std::equal(row.begin(), row.end(), col.begin()));
}

}  // namespace
}  // namespace orv
