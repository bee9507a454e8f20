#pragma once

// In-memory hash join: the sub-routine both distributed algorithms share
// (paper Section 5).
//
// The hash table stores *row indices* into the pinned left sub-table — the
// paper's "pointer to the relevant record" — so build and lookup costs are
// independent of record size (alpha_build, alpha_lookup are per tuple).
//
// BuiltHashTable is reusable: the Indexed Join builds it once per left
// sub-table and probes it with every connected right sub-table.
//
// The kernel is cache-conscious (see DESIGN.md "Join kernel internals"):
//  - an 8-bit tag array is checked before any 16-byte Slot load, so probes
//    that miss touch one byte per visited slot;
//  - probe rows are processed in chunks of kProbeChunk, with software
//    prefetch kProbeBatch rows ahead, hiding DRAM latency on
//    cache-exceeding tables;
//  - builds whose tag + slot arrays exceed kPartitionBytes are
//    radix-partitioned by high hash bits, and each probe chunk is regrouped
//    by partition so one partition's tags/slots stay resident while it is
//    probed;
//  - matched rows are written straight into the output sub-table through
//    SubTable::append_rows_reserve (no staging row buffer, single copy);
//  - probe rows whose key lies outside the left rows' key box are clipped
//    before hashing: a right row whose value on some key attribute lies
//    outside [min, max] of the left rows' values cannot match, so it is
//    neither hashed nor probed.
// There is one probe path. nested_loop_join, which neither clips nor
// partitions, is the byte-order reference it is tested against.
//
// A key with a NaN lane equals nothing, another NaN included (IEEE
// semantics, as SQL compares floats): the build leaves such left rows out
// of the table, so no probe row can match them, and nested_loop_join
// skips them. The chunk bounds the page index pairs by exclude NaN too,
// so IJ, GH, the local join and both oracles agree.
//
// The key-box clip is host-only. The declared SubTable::bounds() of both
// sides only choose which key attributes a probe tests: one whose declared
// right interval lies inside the declared left interval is not tested, so
// a left without declared bounds (a hash bucket, an assembled scan result)
// is never clipped. The box itself is computed from the actual left rows,
// on the first probe that tests, never from the declared bounds, which
// come from chunk headers and are not checked against the rows. The
// simulated CPU charge stays gamma_lookup per right row, because the
// paper's cost model prices every probe row, and probe_tuples keeps
// counting every row of the range.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "join/key.hpp"
#include "meta/metadata.hpp"
#include "subtable/subtable.hpp"

namespace orv {

/// Tuple-level cost counters, consumed by the simulation (charged to CPUs
/// as gamma ops/tuple) and by cost-model calibration.
struct JoinStats {
  std::uint64_t build_tuples = 0;
  std::uint64_t probe_tuples = 0;
  std::uint64_t result_tuples = 0;
  /// Host-only: probe rows the key-box clip skipped without hashing. They
  /// are still charged, so they stay counted in probe_tuples.
  std::uint64_t probe_rows_clipped = 0;

  JoinStats& operator+=(const JoinStats& o) {
    build_tuples += o.build_tuples;
    probe_tuples += o.probe_tuples;
    result_tuples += o.result_tuples;
    probe_rows_clipped += o.probe_rows_clipped;
    return *this;
  }
};

/// Open-addressing (linear probing) hash table over a left sub-table's key,
/// optionally radix-partitioned, with a Swiss-table-style 8-bit tag array.
class BuiltHashTable {
 public:
  /// Probe rows hashed and prefetched ahead of the probe cursor.
  static constexpr std::size_t kProbeBatch = 16;
  /// Probe rows per chunk: the unit of clipping, hashing and partition
  /// regrouping.
  static constexpr std::size_t kProbeChunk = 2048;
  /// Tag + slot bytes above which the build radix-partitions; each
  /// partition's arrays are then kept under about half of this.
  static constexpr std::size_t kPartitionBytes = std::size_t{1} << 20;
  /// Cap on the partition count.
  static constexpr std::size_t kMaxPartitions = 512;

  /// Builds from `left` on `key_attrs`. The left sub-table is shared-owned
  /// and must not be mutated afterwards.
  BuiltHashTable(std::shared_ptr<const SubTable> left,
                 const std::vector<std::string>& key_attrs);

  const SubTable& left() const { return *left_; }
  const std::shared_ptr<const SubTable>& left_ptr() const { return left_; }
  const JoinKey& key() const { return key_; }
  std::uint64_t build_tuples() const { return left_->num_rows(); }
  std::size_t num_partitions() const { return parts_.size(); }

  /// Bytes of table structure (excludes the left sub-table payload).
  std::size_t table_bytes() const {
    return slots_.capacity() * sizeof(Slot) + tags_.capacity();
  }

  /// Probes with every row of `right` (joined on `right_key_attrs`, which
  /// must have the same arity and pairwise the same integer/float class;
  /// throws otherwise); appends joined rows to `out`, whose schema
  /// must be Schema::join_result(left, right, right key indices).
  /// Returns stats for this probe pass.
  JoinStats probe(const SubTable& right,
                  const std::vector<std::string>& right_key_attrs,
                  SubTable& out) const;

  /// Probes only rows [row_begin, row_end) of `right`; the parallel local
  /// executor partitions the probe side across threads with this (the
  /// table is immutable during probing, so concurrent calls are safe).
  /// Output row order is nested_loop_join's: probe-row order with per-row
  /// matches in ascending left-row order, whatever the partition count.
  /// Tested rows outside the left key box are skipped (counted in
  /// JoinStats::probe_rows_clipped); the output bytes are unchanged.
  JoinStats probe_range(const SubTable& right,
                        const std::vector<std::string>& right_key_attrs,
                        std::size_t row_begin, std::size_t row_end,
                        SubTable& out) const;

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t row = kEmpty;
  };
  /// One radix partition: a power-of-two span [offset, offset + mask + 1)
  /// of the shared tag/slot arrays.
  struct Partition {
    std::uint64_t offset = 0;
    std::uint64_t mask = 0;
  };
  /// Range of the left rows' values on one key attribute, in the key's
  /// lane class: doubles for float keys, int64 for integer keys (exact
  /// beyond 2^53). NaN values are left out, as they are of the table.
  /// Empty (lo > hi) when there are no such values.
  struct KeyRange {
    double flo = 0, fhi = 0;
    std::int64_t ilo = 0, ihi = 0;
  };
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::uint8_t kEmptyTag = 0;

  /// Nonzero 8-bit tag from hash bits not used for slot indexing.
  static std::uint8_t tag_of(std::uint64_t hash) {
    return static_cast<std::uint8_t>(hash >> 56) | 1;
  }
  /// Partition index from high hash bits (disjoint from slot-index bits for
  /// all supported table sizes).
  std::size_t partition_of(std::uint64_t hash) const {
    return (hash >> 40) & (parts_.size() - 1);
  }

  void insert(const Partition& part, std::uint64_t hash, std::uint32_t row);

  /// The left rows' key box, computed from the rows on first use (only
  /// tables whose probes test an attribute need it; concurrent probes
  /// share one computation).
  const std::vector<KeyRange>& key_box() const;
  /// Clears mask[j] for each of the `n` right rows at `rows` (record size
  /// `stride`) whose key attribute `i` lies outside the left key box.
  void clip_mask(const JoinKey& right_key, std::size_t i,
                 const std::byte* rows, std::size_t stride, std::size_t n,
                 std::uint32_t* mask) const;

  std::shared_ptr<const SubTable> left_;
  JoinKey key_;
  mutable std::once_flag key_box_once_;
  mutable std::vector<KeyRange> key_box_;  // one per key attribute
  std::vector<Slot> slots_;
  std::vector<std::uint8_t> tags_;
  std::vector<Partition> parts_;
};

/// One-shot convenience: build on `left`, probe with `right`, produce the
/// joined sub-table. `key_attrs` are resolved against both schemas.
SubTable hash_join(const SubTable& left, const SubTable& right,
                   const std::vector<std::string>& key_attrs,
                   SubTableId result_id, JoinStats* stats = nullptr);

/// The Indexed Join's pair step (paper Section 4.1), host work only: each
/// left sub-table's hash table is built once, then probed by every right
/// sub-table paired with it. The simulated IJ node calls it between its
/// fetches and CPU charges; the local executor's join calls it directly.
struct PairJoin {
  SchemaPtr result_schema;  // Schema::join_result of the two sides
  std::vector<std::string> key_attrs;
  std::vector<AttrRange> output_ranges;  // applied to every pair's output
  JoinStats stats;  // build, probe and output tuples of every call

  std::shared_ptr<const BuiltHashTable> build(
      std::shared_ptr<const SubTable> left) {
    stats.build_tuples += left->num_rows();
    return std::make_shared<const BuiltHashTable>(std::move(left), key_attrs);
  }
  /// `right` joined with the table's left rows, as sub-table `id`.
  SubTable probe(const BuiltHashTable& table, const SubTable& right,
                 SubTableId id) {
    SubTable out(result_schema, id);
    stats.probe_tuples += table.probe(right, key_attrs, out).probe_tuples;
    out = filter_rows(std::move(out), output_ranges);
    stats.result_tuples += out.num_rows();
    return out;
  }
};

/// Reference nested-loop join for correctness checks (O(n*m)), and the
/// byte-order reference of BuiltHashTable::probe_range: rows come out in
/// right-row order, and each right row's matches in ascending left-row
/// order.
SubTable nested_loop_join(const SubTable& left, const SubTable& right,
                          const std::vector<std::string>& key_attrs,
                          SubTableId result_id);

/// Plan for copying the non-key right attributes into result rows.
struct RightCopyPlan {
  struct Piece {
    std::size_t src_offset;
    std::size_t dst_offset;
    std::size_t size;
  };
  std::vector<Piece> pieces;
  std::size_t result_record_size = 0;
  std::size_t left_record_size = 0;

  static RightCopyPlan make(const Schema& left, const Schema& right,
                            const JoinKey& right_key);
};

}  // namespace orv
