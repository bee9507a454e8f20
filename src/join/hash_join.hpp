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
//  - an 8-bit tag array is matched eight tags at a time (one 64-bit load
//    and an exact SWAR zero-byte test) before any 16-byte Slot load, so
//    probes that miss touch one byte per visited slot;
//  - key lanes are computed one key attribute at a time over a block of at
//    most kProbeChunk rows (one type switch per column per block), and
//    hashed with a host-only table hash (one add-and-multiply per folded
//    lane, one final mix64);
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
// There is one build path and one probe path. nested_loop_join, which
// neither clips nor partitions, is the byte-order reference they are
// tested against.
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

/// Working memory of one build or probe call: a block's key lanes and
/// hashes, a probe chunk's kept offsets, partition order and candidate
/// matches. It holds at most BuiltHashTable::kProbeChunk rows (plus that
/// chunk's candidates) and is reused across calls by its owner (PairJoin
/// keeps one per query), so a call allocates nothing once it is warm. One
/// scratch serves one call at a time.
struct JoinScratch {
  /// One probe hit: probe-row position within the current chunk plus the
  /// matching left row.
  struct Match {
    std::uint32_t pos;
    std::uint32_t lrow;
  };
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint64_t> lanes;  // lanes[i * rows + j]: column-major
  std::vector<std::uint32_t> kept;  // or a build block's NaN flags
  std::vector<std::uint32_t> order;       // partition-grouped probe order
  std::vector<std::uint32_t> bucket_pos;  // per-partition cursors
  std::vector<std::uint32_t> emit_pos;    // per-probe-row restore cursors
  std::vector<Match> matches;
  std::vector<Match> sorted;
};

/// Open-addressing (linear probing) hash table over a left sub-table's key,
/// optionally radix-partitioned, with a Swiss-table-style 8-bit tag array.
class BuiltHashTable {
 public:
  /// Probe rows hashed and prefetched ahead of the probe cursor.
  static constexpr std::size_t kProbeBatch = 16;
  /// Rows per block: the unit of clipping, key lanes, hashing and
  /// partition regrouping, and the most rows a JoinScratch holds.
  static constexpr std::size_t kProbeChunk = 2048;
  /// Tag + slot bytes above which the build radix-partitions; each
  /// partition's arrays are then kept under about half of this.
  static constexpr std::size_t kPartitionBytes = std::size_t{1} << 20;
  /// Cap on the partition count.
  static constexpr std::size_t kMaxPartitions = 512;
  /// Tags one group match tests; each partition's tag array carries this
  /// many mirror bytes past its end, so a group load never wraps.
  static constexpr std::size_t kGroup = 8;

  /// Builds from `left` on `key`, which must be resolved against
  /// left->schema(). The left sub-table is shared-owned and must not be
  /// mutated afterwards.
  BuiltHashTable(std::shared_ptr<const SubTable> left,
                 std::shared_ptr<const JoinKey> key, JoinScratch& scratch);
  /// Resolves `key_attrs` against the left schema and builds with a
  /// scratch of its own.
  BuiltHashTable(std::shared_ptr<const SubTable> left,
                 const std::vector<std::string>& key_attrs);

  const SubTable& left() const { return *left_; }
  const std::shared_ptr<const SubTable>& left_ptr() const { return left_; }
  const JoinKey& key() const { return *key_; }
  std::uint64_t build_tuples() const { return left_->num_rows(); }
  std::size_t num_partitions() const { return parts_.size(); }
  /// Left rows routed to partition `p` (NaN-keyed rows included), which
  /// size it: bit_ceil(max(16, 2 x rows)) slots.
  std::size_t partition_rows(std::size_t p) const { return parts_[p].rows; }

  /// What the simulated Caching Service charges for holding this table
  /// (CachingService::put_hash_table): slot count x 17, one 16-byte Slot
  /// and one tag per slot, for every partition. It excludes the left
  /// sub-table's payload and the tag arrays' mirror bytes, so it is the
  /// simulated cache's charge, not the host footprint; eviction and
  /// virtual time depend on it.
  std::size_t table_bytes() const {
    return slots_.size() * (sizeof(Slot) + sizeof(std::uint8_t));
  }

  /// Probes with every row of `right`: probe_range over all its rows,
  /// resolving `right_key_attrs` and the copy plan for this call only.
  JoinStats probe(const SubTable& right,
                  const std::vector<std::string>& right_key_attrs,
                  SubTable& out) const;

  /// probe_range with the right key and copy plan resolved here and a
  /// scratch of its own.
  JoinStats probe_range(const SubTable& right,
                        const std::vector<std::string>& right_key_attrs,
                        std::size_t row_begin, std::size_t row_end,
                        SubTable& out) const;

  /// Probes rows [row_begin, row_end) of `right` and appends the joined
  /// rows to `out`, whose schema must be Schema::join_result(left, right,
  /// right key indices). `right_key` is resolved against right.schema()
  /// (same arity, and pairwise the same integer/float class as key();
  /// throws otherwise), `plan` is RightCopyPlan::make(left schema, right
  /// schema, right_key). Output row order is nested_loop_join's: probe-row
  /// order with per-row matches in ascending left-row order, whatever the
  /// partition count. Tested rows outside the left key box are skipped
  /// (counted in JoinStats::probe_rows_clipped); the output bytes are
  /// unchanged. Returns stats for this probe pass.
  ///
  /// The table is immutable once built, so probes with distinct scratches
  /// may run concurrently. Today's callers (IJ, GH, the local executor)
  /// all run on one thread; the guarantee covers the key box's lazy
  /// computation, which KeyBoxClip.ConcurrentFirstProbesShareOneKeyBox
  /// checks.
  JoinStats probe_range(const SubTable& right, const JoinKey& right_key,
                        const RightCopyPlan& plan, std::size_t row_begin,
                        std::size_t row_end, SubTable& out,
                        JoinScratch& scratch) const;

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t row = 0;
  };
  /// One radix partition: a power-of-two span [offset, offset + mask + 1)
  /// of the slot array, whose tags start at tag_offset (followed by kGroup
  /// mirror bytes of the first kGroup tags), sized for `rows` left rows.
  struct Partition {
    std::uint64_t offset = 0;
    std::uint64_t tag_offset = 0;
    std::uint64_t mask = 0;
    std::uint64_t rows = 0;
  };
  /// Range of the left rows' values on one key attribute, in the key's
  /// lane class: doubles for float keys, int64 for integer keys (exact
  /// beyond 2^53). NaN values are left out, as they are of the table.
  /// Empty (lo > hi) when there are no such values.
  struct KeyRange {
    double flo = 0, fhi = 0;
    std::int64_t ilo = 0, ihi = 0;
  };
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

  void build(JoinScratch& scratch);
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
  std::shared_ptr<const JoinKey> key_;  // shared with the PairJoin
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
/// fetches and CPU charges; the local executor's join and GH's bucket join
/// call it directly.
///
/// The left and right JoinKey and the RightCopyPlan are resolved once per
/// query, on the first build and probe, and reused while the sub-tables'
/// schemas stay equal to the resolved ones (by pointer, else by value); a
/// different schema is resolved anew. Build and probe share one
/// JoinScratch, so a warm call allocates only its output.
class PairJoin {
 public:
  PairJoin(SchemaPtr result_schema, std::vector<std::string> key_attrs,
           std::vector<AttrRange> output_ranges = {})
      : result_schema_(std::move(result_schema)),
        key_attrs_(std::move(key_attrs)),
        output_ranges_(std::move(output_ranges)) {}

  std::shared_ptr<const BuiltHashTable> build(
      std::shared_ptr<const SubTable> left);
  /// `right` joined with the table's left rows, as sub-table `id`.
  SubTable probe(const BuiltHashTable& table, const SubTable& right,
                 SubTableId id);

  /// Build, probe and output tuples of every call.
  const JoinStats& stats() const { return stats_; }

 private:
  SchemaPtr result_schema_;
  std::vector<std::string> key_attrs_;
  std::vector<AttrRange> output_ranges_;  // applied to every pair's output
  JoinStats stats_;
  JoinScratch scratch_;
  // Resolved once: the left key, and the right key with its copy plan for
  // one (left, right) schema pair.
  SchemaPtr left_schema_;
  std::shared_ptr<const JoinKey> left_key_;
  SchemaPtr plan_left_schema_, plan_right_schema_;
  JoinKey right_key_;
  RightCopyPlan plan_;
};

/// Reference nested-loop join for correctness checks (O(n*m)), and the
/// byte-order reference of BuiltHashTable::probe_range: rows come out in
/// right-row order, and each right row's matches in ascending left-row
/// order.
SubTable nested_loop_join(const SubTable& left, const SubTable& right,
                          const std::vector<std::string>& key_attrs,
                          SubTableId result_id);

}  // namespace orv
