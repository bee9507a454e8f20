#pragma once

// SubTable: the unit of data exchanged between services.
//
// A Basic Data Source maps each file chunk to one basic sub-table — a
// partition of the virtual table holding a subset of records, stored as
// packed row-major records, together with its bounding box. Sub-tables are
// identified by (table id, chunk id) as in the paper's "(i, j)".

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "schema/schema.hpp"
#include "schema/value.hpp"
#include "subtable/bounds.hpp"

namespace orv {

using TableId = std::uint32_t;
using ChunkId = std::uint32_t;

/// Identifier of a basic sub-table: table i, chunk j.
struct SubTableId {
  TableId table = 0;
  ChunkId chunk = 0;

  auto operator<=>(const SubTableId&) const = default;
  std::string to_string() const {
    return "(" + std::to_string(table) + "," + std::to_string(chunk) + ")";
  }
};

struct SubTableIdHash {
  std::size_t operator()(const SubTableId& id) const {
    return std::hash<std::uint64_t>()(
        (static_cast<std::uint64_t>(id.table) << 32) | id.chunk);
  }
};

/// Packed row-major record container with schema and bounding box.
class SubTable {
 public:
  SubTable(SchemaPtr schema, SubTableId id);

  const Schema& schema() const { return *schema_; }
  const SchemaPtr& schema_ptr() const { return schema_; }
  SubTableId id() const { return id_; }

  std::size_t num_rows() const { return num_rows_; }
  std::size_t record_size() const { return schema_->record_size(); }
  std::size_t size_bytes() const { return data_.size(); }
  bool empty() const { return num_rows_ == 0; }

  void reserve_rows(std::size_t n) { data_.reserve(n * record_size()); }

  /// Appends one packed record (must be exactly record_size() bytes).
  void append_row(std::span<const std::byte> record);

  /// Appends every row of `src` (same record size) with one copy. The
  /// buffer grows geometrically, so concatenating many parts stays linear.
  void append_rows(const SubTable& src);

  /// Zero-copy append window: grows the byte buffer to hold `n` rows past
  /// the committed ones and returns the write cursor at the first
  /// uncommitted row. Rows written there become visible only after
  /// append_rows_commit. Any append/row access between reserve and commit
  /// other than writing through the cursor is undefined; finish a raw
  /// append sequence with append_rows_trim before using bytes()/append_row.
  std::byte* append_rows_reserve(std::size_t n);

  /// Publishes `n` rows written through the last append_rows_reserve
  /// cursor (n may be less than reserved).
  void append_rows_commit(std::size_t n);

  /// Shrinks the byte buffer back to the committed rows, restoring the
  /// size_bytes() == num_rows() * record_size() invariant.
  void append_rows_trim();

  /// Appends a record from typed values (one per schema attribute, in order).
  void append_values(std::span<const Value> values);

  /// Pointer to the start of row r.
  const std::byte* row(std::size_t r) const;
  std::byte* mutable_row(std::size_t r);

  /// Typed scalar access.
  template <typename T>
  T get(std::size_t r, std::size_t attr) const {
    T v;
    std::memcpy(&v, row(r) + schema_->offset(attr), sizeof(T));
    return v;
  }

  template <typename T>
  void set(std::size_t r, std::size_t attr, T v) {
    std::memcpy(mutable_row(r) + schema_->offset(attr), &v, sizeof(T));
  }

  /// Dynamically-typed access.
  Value value(std::size_t r, std::size_t attr) const;

  /// Numeric view of any attribute (for predicates and aggregation).
  double as_double(std::size_t r, std::size_t attr) const;

  /// Calls fn(r, v) for every row r in order, where v is attribute `attr`
  /// of row r widened to double exactly as as_double() does. The type
  /// switch runs once per call, not once per cell.
  template <typename Fn>
  void for_each_as_double(std::size_t attr, Fn&& fn) const {
    switch (schema_->attr(attr).type) {
      case AttrType::Int32:
        return for_each_field<std::int32_t>(attr, fn);
      case AttrType::Int64:
        return for_each_field<std::int64_t>(attr, fn);
      case AttrType::Float32:
        return for_each_field<float>(attr, fn);
      case AttrType::Float64:
        return for_each_field<double>(attr, fn);
    }
    throw_bad_attr_type("SubTable::for_each_as_double");
  }

  /// Whole payload (num_rows * record_size bytes).
  std::span<const std::byte> bytes() const { return data_; }

  /// Adopts an externally built payload (e.g. from an extractor); size must
  /// be a multiple of record_size.
  void adopt_bytes(std::vector<std::byte> payload);

  /// Per-attribute bounding box; valid after set_bounds/compute_bounds.
  const Rect& bounds() const { return bounds_; }
  void set_bounds(Rect b);

  /// Scans all rows and tightens the bounding box to the data: NaN is
  /// ignored, and zero rows give the empty box {1, -1} per attribute.
  void compute_bounds();

  /// Order-independent 64-bit digest of the row multiset; used to compare a
  /// distributed join result with the reference result without sorting.
  std::uint64_t unordered_fingerprint() const;

  std::string to_string(std::size_t max_rows = 10) const;

 private:
  template <typename T, typename Fn>
  void for_each_field(std::size_t attr, Fn& fn) const {
    if (num_rows_ == 0) return;  // an empty table's buffer may be null
    const std::size_t rs = record_size();
    const std::byte* p = data_.data() + schema_->offset(attr);
    for (std::size_t r = 0; r < num_rows_; ++r, p += rs) {
      T v;
      std::memcpy(&v, p, sizeof(T));
      fn(r, static_cast<double>(v));
    }
  }

  SchemaPtr schema_;
  SubTableId id_;
  std::vector<std::byte> data_;
  std::size_t num_rows_ = 0;
  Rect bounds_;
};

/// Appends attributes `attrs` of every row of `in`, in that order, as rows
/// of `out` (whose record must be exactly those attributes). Offsets and
/// sizes are resolved once, not per cell; bounds are left as they are.
void append_projected(const SubTable& in, const std::vector<std::size_t>& attrs,
                      SubTable& out);

}  // namespace orv
