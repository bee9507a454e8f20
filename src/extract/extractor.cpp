#include "extract/extractor.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace orv {

namespace {

SubTable make_subtable_shell(const ChunkHeader& header) {
  SubTable st(std::make_shared<const Schema>(header.schema),
              SubTableId{header.table, header.chunk});
  return st;
}

void finish(SubTable& st, const ChunkHeader& header) {
  st.set_bounds(header.bounds);
  ORV_CHECK(st.num_rows() == header.num_rows,
            "extractor produced wrong row count");
}

}  // namespace

// ---------------------------------------------------------------- RowMajor

SubTable RowMajorExtractor::extract(const ChunkHeader& header,
                                    std::span<const std::byte> payload) const {
  SubTable st = make_subtable_shell(header);
  st.adopt_bytes({payload.begin(), payload.end()});
  finish(st, header);
  return st;
}

std::vector<std::byte> RowMajorExtractor::encode(const SubTable& table) const {
  auto bytes = table.bytes();
  return {bytes.begin(), bytes.end()};
}

// ------------------------------------------------------- Column layouts

namespace {

// Copies n cells of W bytes, one every src_stride bytes of src to one
// every dst_stride bytes of dst. A fixed W makes each copy one load and one
// store.
template <std::size_t W>
void copy_cells(std::byte* dst, std::size_t dst_stride, const std::byte* src,
                std::size_t src_stride, std::size_t n) {
  for (; n > 0; --n, dst += dst_stride, src += src_stride) {
    std::memcpy(dst, src, W);
  }
}

/// Writes one attribute's packed column of n `type` values into the rows
/// starting at `rows` (record size rs, `rows` already at the cell offset).
void scatter_column(AttrType type, const std::byte* column, std::byte* rows,
                    std::size_t rs, std::size_t n) {
  if (attr_size(type) == 4) {
    copy_cells<4>(rows, rs, column, 4, n);
  } else {
    copy_cells<8>(rows, rs, column, 8, n);
  }
}

/// The inverse of scatter_column: packs one attribute's cells of n rows.
void gather_column(AttrType type, const std::byte* rows, std::size_t rs,
                   std::byte* column, std::size_t n) {
  if (attr_size(type) == 4) {
    copy_cells<4>(column, 4, rows, rs, n);
  } else {
    copy_cells<8>(column, 8, rows, rs, n);
  }
}

/// Col-major payloads hold, per block of `block` rows, all of the block's
/// values of attribute 0, then of attribute 1, and so on; ColMajor is one
/// block of every row. Calls visit(type, column_offset, row_offset, rows)
/// for each attribute of each block, where row_offset is the byte offset
/// of the block's first cell in the row records.
template <typename Visit>
void for_each_column(const Schema& schema, std::size_t n, std::size_t block,
                     Visit&& visit) {
  const std::size_t rs = schema.record_size();
  std::size_t column = 0;
  for (std::size_t first = 0; first < n; first += block) {
    const std::size_t rows = std::min(block, n - first);
    for (std::size_t a = 0; a < schema.num_attrs(); ++a) {
      const AttrType type = schema.attr(a).type;
      visit(type, column, first * rs + schema.offset(a), rows);
      column += rows * attr_size(type);
    }
  }
}

SubTable extract_columns(const ChunkHeader& header,
                         std::span<const std::byte> payload,
                         std::size_t block) {
  SubTable st = make_subtable_shell(header);
  const Schema& schema = st.schema();
  const std::size_t rs = schema.record_size();
  const std::size_t n = header.num_rows;
  ORV_CHECK(payload.size() == n * rs, "column payload size mismatch");
  std::vector<std::byte> rows(n * rs);
  for_each_column(schema, n, block,
                  [&](AttrType type, std::size_t col, std::size_t row,
                      std::size_t count) {
                    scatter_column(type, payload.data() + col,
                                   rows.data() + row, rs, count);
                  });
  st.adopt_bytes(std::move(rows));
  finish(st, header);
  return st;
}

std::vector<std::byte> encode_columns(const SubTable& table,
                                      std::size_t block) {
  const Schema& schema = table.schema();
  const std::size_t rs = schema.record_size();
  std::vector<std::byte> out(table.num_rows() * rs);
  const std::byte* rows = table.bytes().data();
  for_each_column(schema, table.num_rows(), block,
                  [&](AttrType type, std::size_t col, std::size_t row,
                      std::size_t count) {
                    gather_column(type, rows + row, rs, out.data() + col,
                                  count);
                  });
  return out;
}

}  // namespace

SubTable ColMajorExtractor::extract(const ChunkHeader& header,
                                    std::span<const std::byte> payload) const {
  return extract_columns(header, payload, header.num_rows);
}

std::vector<std::byte> ColMajorExtractor::encode(const SubTable& table) const {
  return encode_columns(table, table.num_rows());
}

SubTable BlockedRowsExtractor::extract(
    const ChunkHeader& header, std::span<const std::byte> payload) const {
  return extract_columns(header, payload, kBlockedRowsBlock);
}

std::vector<std::byte> BlockedRowsExtractor::encode(
    const SubTable& table) const {
  return encode_columns(table, kBlockedRowsBlock);
}

// ---------------------------------------------------------------- Registry

ExtractorRegistry::ExtractorRegistry() {
  register_extractor(std::make_unique<RowMajorExtractor>());
  register_extractor(std::make_unique<ColMajorExtractor>());
  register_extractor(std::make_unique<BlockedRowsExtractor>());
}

ExtractorRegistry& ExtractorRegistry::global() {
  static ExtractorRegistry registry;
  return registry;
}

void ExtractorRegistry::register_extractor(
    std::unique_ptr<Extractor> extractor) {
  ORV_REQUIRE(extractor != nullptr, "null extractor");
  extractors_.push_back(std::move(extractor));
}

const Extractor& ExtractorRegistry::for_layout(LayoutId layout) const {
  // Later registrations win, so applications can override built-ins.
  for (auto it = extractors_.rbegin(); it != extractors_.rend(); ++it) {
    if ((*it)->layout() == layout) return **it;
  }
  throw NotFound("no extractor registered for layout id " +
                 std::to_string(static_cast<int>(layout)));
}

SubTable extract_chunk(std::span<const std::byte> chunk_bytes,
                       const ExtractorRegistry& registry) {
  std::size_t payload_offset = 0;
  const ChunkHeader header = decode_chunk_header(chunk_bytes, &payload_offset);
  const auto payload = chunk_payload(chunk_bytes, header, payload_offset);
  return registry.for_layout(header.layout).extract(header, payload);
}

std::vector<std::byte> make_chunk(const SubTable& table, LayoutId layout,
                                  const ExtractorRegistry& registry) {
  const auto payload = registry.for_layout(layout).encode(table);
  ChunkHeader header;
  header.layout = layout;
  header.table = table.id().table;
  header.chunk = table.id().chunk;
  header.num_rows = table.num_rows();
  header.schema = table.schema();
  header.bounds = table.bounds();
  header.payload_size = payload.size();
  return encode_chunk(header, payload);
}

}  // namespace orv
