#pragma once

// MetaData Service.
//
// Stores, per chunk: which table it belongs to, its location in the storage
// system (node, file, offset, size), its attributes, the extractors that can
// parse it, and its bounding box (paper Section 2). Range queries resolve
// to matching chunk ids through a per-table R-tree over the bounding boxes
// (Section 4: "this may be done efficiently using index structures such as
// R-Trees").

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chunkio/chunk_format.hpp"
#include "chunkio/chunk_store.hpp"
#include "rtree/rtree.hpp"
#include "subtable/subtable.hpp"

namespace orv {

/// Everything the services need to know about one chunk.
struct ChunkMeta {
  SubTableId id;
  ChunkLocation location;
  LayoutId layout = LayoutId::RowMajor;
  SchemaPtr schema;
  Rect bounds;  // per-attribute, in schema order

  std::uint64_t num_rows = 0;

  /// Names of extractors able to read and parse this chunk.
  std::vector<std::string> extractors;
};

/// A named range constraint, e.g. x IN [0, 256].
struct AttrRange {
  std::string attr;
  Interval range;
};

/// True when the chunk's bounds intersect every query range on an
/// attribute it has: the chunk-level half of range selection.
bool satisfies_ranges(const ChunkMeta& chunk,
                      const std::vector<AttrRange>& ranges);

/// The record-level half: the rows of `st` inside every range (both
/// endpoints inclusive), in order, same schema and id, bounds recomputed.
/// Once a range applies, a NaN in any attribute, named or not, drops the
/// row. When no range names one of its attributes, `st` comes back whole
/// with its bounds kept. The local scan, the QES and the oracles all use
/// it.
SubTable filter_rows(const SubTable& st, const std::vector<AttrRange>& ranges);

/// As above, but when every row passes `st` itself comes back, moved,
/// with its declared bounds kept rather than recomputed: no copy.
SubTable filter_rows(SubTable&& st, const std::vector<AttrRange>& ranges);

class MetaDataService {
 public:
  MetaDataService() = default;

  /// Registers a virtual table; chunks may then be added for it.
  void register_table(TableId table, std::string name, SchemaPtr schema);

  void add_chunk(ChunkMeta meta);

  std::size_t num_tables() const { return tables_.size(); }
  std::vector<TableId> table_ids() const;

  const std::string& table_name(TableId table) const;
  SchemaPtr table_schema(TableId table) const;
  TableId table_by_name(const std::string& name) const;
  bool has_table(const std::string& name) const;

  /// All chunk metadata of a table, in chunk-id order.
  const std::vector<ChunkMeta>& chunks(TableId table) const;

  const ChunkMeta& chunk(SubTableId id) const;

  std::size_t num_chunks(TableId table) const { return chunks(table).size(); }

  /// Total stored bytes of a table (sum of chunk segment sizes).
  std::uint64_t table_bytes(TableId table) const;

  /// Total rows of a table (the paper's T when both tables are equal-sized).
  std::uint64_t table_rows(TableId table) const;

  /// Chunk ids of `table` whose bounding boxes intersect every given range.
  /// Attributes not mentioned are unconstrained. Uses the R-tree index.
  std::vector<SubTableId> find_chunks(TableId table,
                                      const std::vector<AttrRange>& ranges) const;

  /// Builds a full-dimensional query rect for a table from named ranges.
  Rect query_rect(TableId table, const std::vector<AttrRange>& ranges) const;

  /// (Re)builds the per-table R-tree indexes; find_chunks calls this lazily.
  void build_indexes() const;

  void serialize(ByteWriter& w) const;
  static MetaDataService deserialize(ByteReader& r);

 private:
  struct TableInfo {
    std::string name;
    SchemaPtr schema;
    std::vector<ChunkMeta> chunks;
    // Index caches are rebuilt on demand after chunk additions.
    mutable std::unique_ptr<RTree> index;  // over bounds, dims = schema attrs
  };

  const TableInfo& table_info(TableId table) const;
  TableInfo& table_info(TableId table);

  std::map<TableId, TableInfo> tables_;
  mutable bool indexes_dirty_ = false;
};

}  // namespace orv
