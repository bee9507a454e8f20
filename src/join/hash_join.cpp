#include "join/hash_join.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <mutex>

#include "common/error.hpp"
#include "common/hash.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define ORV_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define ORV_PREFETCH(addr) ((void)0)
#endif

namespace orv {

namespace {

std::uint64_t table_capacity_for(std::size_t rows) {
  // Load factor <= 0.5 keeps linear-probe clusters short.
  std::size_t wanted = rows * 2;
  if (wanted < 16) wanted = 16;
  return std::bit_ceil(wanted);
}

constexpr std::size_t kMaxKeyArity = 8;

/// One probe hit: probe-row position within the current chunk plus the
/// matching left row. Kept small so the match buffer stays cache-resident.
struct Match {
  std::uint32_t pos;
  std::uint32_t lrow;
};

/// [lo, hi] of the T field at `field + j * stride` over `n` rows (NaN
/// values excluded; lo > hi when there are none).
template <typename T>
struct FieldRange {
  T lo, hi;
};

template <typename T>
FieldRange<T> field_range(const std::byte* field, std::size_t stride,
                          std::size_t n) {
  using L = std::numeric_limits<T>;
  FieldRange<T> r{L::has_infinity ? L::infinity() : L::max(),
                  L::has_infinity ? -L::infinity() : L::lowest()};
  for (std::size_t j = 0; j < n; ++j) {
    T v;
    std::memcpy(&v, field + j * stride, sizeof(v));
    r.lo = v < r.lo ? v : r.lo;
    r.hi = v > r.hi ? v : r.hi;
  }
  return r;
}

/// mask[j] &= (lo <= v <= hi) for the T field v at `field + j * stride`,
/// compared as B (double for float keys, int64 for integer keys). -0.0
/// compares equal to +0.0, and NaN fails both compares.
template <typename T, typename B>
void and_in_range(const std::byte* field, std::size_t stride, std::size_t n,
                  B lo, B hi, std::uint32_t* mask) {
  for (std::size_t j = 0; j < n; ++j) {
    T v;
    std::memcpy(&v, field + j * stride, sizeof(v));
    const B w = static_cast<B>(v);
    mask[j] &= static_cast<std::uint32_t>((w >= lo) & (w <= hi));
  }
}

}  // namespace

// partition_of masks hash bits by the partition count.
static_assert(std::has_single_bit(BuiltHashTable::kMaxPartitions));

BuiltHashTable::BuiltHashTable(std::shared_ptr<const SubTable> left,
                               const std::vector<std::string>& key_attrs)
    : left_(std::move(left)),
      key_(JoinKey::resolve(left_->schema(), key_attrs)) {
  ORV_REQUIRE(key_.arity() <= kMaxKeyArity, "join key arity too large");
  ORV_REQUIRE(left_->num_rows() < kEmpty, "left sub-table too large");
  const std::size_t n = left_->num_rows();
  const std::size_t rs = left_->record_size();
  const std::byte* rows = left_->bytes().data();

  // Hash every left row once; the same hashes drive partition choice and
  // slot insertion. Rows whose key has a NaN lane match nothing, so they
  // are listed here and never inserted.
  std::vector<std::uint64_t> hashes(n);
  std::vector<std::uint32_t> nan_rows;
  std::uint64_t lanes[kMaxKeyArity];
  for (std::size_t r = 0; r < n; ++r) {
    key_.extract_lanes(rows + r * rs, lanes);
    hashes[r] = hash_lanes({lanes, key_.arity()}, kSaltInMemory);
    if (key_.has_nan(lanes)) nan_rows.push_back(static_cast<std::uint32_t>(r));
  }

  // Partition count: one partition while the table structure fits in
  // kPartitionBytes; otherwise enough power-of-two partitions that each
  // partition's tag + slot arrays fit in about half of it.
  std::size_t nparts = 1;
  const std::size_t struct_bytes =
      table_capacity_for(n) * (sizeof(Slot) + sizeof(std::uint8_t));
  if (struct_bytes > kPartitionBytes) {
    nparts = std::min(std::bit_ceil(2 * struct_bytes / kPartitionBytes),
                      kMaxPartitions);
  }

  // Size each partition for its actual row count (radix splits are never
  // perfectly even), then lay partitions out back to back.
  std::vector<std::size_t> counts(nparts, 0);
  if (nparts > 1) {
    for (std::uint64_t h : hashes) ++counts[(h >> 40) & (nparts - 1)];
  } else {
    counts[0] = n;
  }
  parts_.resize(nparts);
  std::uint64_t offset = 0;
  for (std::size_t p = 0; p < nparts; ++p) {
    const std::uint64_t cap = table_capacity_for(counts[p]);
    parts_[p] = Partition{offset, cap - 1};
    offset += cap;
  }
  slots_.assign(offset, Slot{});
  tags_.assign(offset, kEmptyTag);

  for (std::size_t r = 0, k = 0; r < n; ++r) {
    if (k < nan_rows.size() && nan_rows[k] == r) {
      ++k;
      continue;
    }
    insert(parts_[partition_of(hashes[r])], hashes[r],
           static_cast<std::uint32_t>(r));
  }
}

void BuiltHashTable::insert(const Partition& part, std::uint64_t hash,
                            std::uint32_t row) {
  std::uint64_t i = hash & part.mask;
  while (slots_[part.offset + i].row != kEmpty) i = (i + 1) & part.mask;
  slots_[part.offset + i].hash = hash;
  slots_[part.offset + i].row = row;
  tags_[part.offset + i] = tag_of(hash);
}

const std::vector<BuiltHashTable::KeyRange>& BuiltHashTable::key_box()
    const {
  std::call_once(key_box_once_, [this] {
    const std::size_t n = left_->num_rows();
    const std::size_t rs = left_->record_size();
    key_box_.assign(key_.arity(), KeyRange{});
    for (std::size_t i = 0; i < key_.arity(); ++i) {
      KeyRange& b = key_box_[i];
      const std::byte* field = left_->bytes().data() + key_.offset(i);
      const auto as_int = [&](auto f) {
        b.ilo = f.lo;
        b.ihi = f.hi;
      };
      const auto as_float = [&](auto f) {
        b.flo = f.lo;
        b.fhi = f.hi;
      };
      switch (key_.type(i)) {
        case AttrType::Int32:
          as_int(field_range<std::int32_t>(field, rs, n));
          break;
        case AttrType::Int64:
          as_int(field_range<std::int64_t>(field, rs, n));
          break;
        case AttrType::Float32:
          as_float(field_range<float>(field, rs, n));
          break;
        case AttrType::Float64:
          as_float(field_range<double>(field, rs, n));
          break;
      }
    }
  });
  return key_box_;
}

void BuiltHashTable::clip_mask(const JoinKey& right_key, std::size_t i,
                               const std::byte* rows, std::size_t stride,
                               std::size_t n, std::uint32_t* mask) const {
  // compatible_with guarantees the right attribute has the left's class.
  const KeyRange& b = key_box()[i];
  const std::byte* field = rows + right_key.offset(i);
  switch (right_key.type(i)) {
    case AttrType::Int32:
      return and_in_range<std::int32_t>(field, stride, n, b.ilo, b.ihi, mask);
    case AttrType::Int64:
      return and_in_range<std::int64_t>(field, stride, n, b.ilo, b.ihi, mask);
    case AttrType::Float32:
      return and_in_range<float>(field, stride, n, b.flo, b.fhi, mask);
    case AttrType::Float64:
      return and_in_range<double>(field, stride, n, b.flo, b.fhi, mask);
  }
  throw_bad_attr_type("BuiltHashTable::clip_mask");
}

RightCopyPlan RightCopyPlan::make(const Schema& left, const Schema& right,
                                  const JoinKey& right_key) {
  RightCopyPlan plan;
  plan.left_record_size = left.record_size();
  std::size_t dst = left.record_size();
  RightCopyPlan::Piece pending{0, 0, 0};
  bool have_pending = false;
  for (std::size_t a = 0; a < right.num_attrs(); ++a) {
    bool is_key = false;
    for (std::size_t k : right_key.attr_indices()) {
      if (k == a) {
        is_key = true;
        break;
      }
    }
    if (is_key) continue;
    const std::size_t src = right.offset(a);
    const std::size_t size = attr_size(right.attr(a).type);
    if (have_pending && pending.src_offset + pending.size == src) {
      pending.size += size;  // merge adjacent attrs into one memcpy
    } else {
      if (have_pending) plan.pieces.push_back(pending);
      pending = {src, dst, size};
      have_pending = true;
    }
    dst += size;
  }
  if (have_pending) plan.pieces.push_back(pending);
  plan.result_record_size = dst;
  return plan;
}

JoinStats BuiltHashTable::probe(const SubTable& right,
                                const std::vector<std::string>& right_key_attrs,
                                SubTable& out) const {
  return probe_range(right, right_key_attrs, 0, right.num_rows(), out);
}

/// Per chunk: (0) clip the chunk to the rows whose key lies in the left key
/// box, (1) canonicalize and hash those rows, (2) in radix mode regroup the
/// chunk by partition so one partition's structure stays hot, (3) probe
/// with a rolling software prefetch kProbeBatch rows ahead, tag byte
/// checked before any Slot load, (4) restore probe-row order, (5) write
/// joined records directly into the output buffer. Output row order is
/// nested_loop_join's: probe-row order, per-row matches in ascending
/// left-row order (linear probing visits equal-key slots in insertion
/// order). Clipped rows have no match, and the kept rows stay in ascending
/// order, so the clip does not change the output bytes.
JoinStats BuiltHashTable::probe_range(
    const SubTable& right, const std::vector<std::string>& right_key_attrs,
    std::size_t row_begin, std::size_t row_end, SubTable& out) const {
  const JoinKey right_key = JoinKey::resolve(right.schema(), right_key_attrs);
  ORV_REQUIRE(right_key.arity() == key_.arity(), "join key arity mismatch");
  ORV_REQUIRE(right_key.compatible_with(key_), "join key type mismatch");
  ORV_REQUIRE(row_begin <= row_end && row_end <= right.num_rows(),
              "probe row range out of bounds");
  const RightCopyPlan plan =
      RightCopyPlan::make(left_->schema(), right.schema(), right_key);
  ORV_REQUIRE(out.record_size() == plan.result_record_size,
              "output schema does not match the join result layout");

  JoinStats stats;
  stats.probe_tuples = row_end - row_begin;

  const std::size_t lrs = left_->record_size();
  const std::size_t rrs = right.record_size();
  const std::byte* lrows = left_->bytes().data();
  const std::byte* rrows = right.bytes().data();
  const std::size_t arity = key_.arity();
  const bool radix = parts_.size() > 1;
  // Most calls probe far fewer rows than one chunk; size the per-chunk
  // scratch to the range so a short probe does not zero-fill a full chunk.
  const std::size_t scratch_rows = std::min(kProbeChunk, row_end - row_begin);

  // Key attributes the clip tests: those whose declared right interval
  // does not lie inside the declared left one. A left without declared
  // bounds (a hash bucket, an assembled scan result) is never tested.
  // Declared bounds only choose what to test: skipping a test only probes
  // more rows, so lying metadata cannot drop a match. The rows dropped are
  // those outside the left rows' actual key box; NaN is outside every box
  // and matches nothing.
  std::size_t clip_attrs[kMaxKeyArity];
  std::size_t n_clip = 0;
  for (std::size_t i = 0; i < arity; ++i) {
    const Interval& l = left_->bounds()[key_.attr_indices()[i]];
    const Interval& r = right.bounds()[right_key.attr_indices()[i]];
    if (!(r.lo >= l.lo && r.hi <= l.hi)) clip_attrs[n_clip++] = i;
  }

  // In-box chunk offsets, compacted in place from the per-row mask. With
  // no attribute tested, no row is dropped and positions are chunk offsets.
  std::vector<std::uint32_t> kept(n_clip != 0 ? scratch_rows : 0);
  const auto chunk_offset = [&](std::size_t pos) -> std::size_t {
    return n_clip != 0 ? kept[pos] : pos;
  };
  std::vector<std::uint64_t> hashes(scratch_rows);
  std::vector<std::uint64_t> lanes_buf(scratch_rows * arity);
  std::vector<std::uint32_t> order;       // partition-grouped probe order
  std::vector<std::uint32_t> bucket_pos;  // per-partition cursors
  std::vector<Match> matches;
  std::vector<Match> sorted;
  std::vector<std::uint32_t> emit_pos;  // per-probe-row cursors for restore
  matches.reserve(scratch_rows);

  for (std::size_t cb = row_begin; cb < row_end; cb += kProbeChunk) {
    const std::size_t chunk_n = std::min(kProbeChunk, row_end - cb);

    // (0) Clip: keep the chunk offsets whose key lies in the left key box,
    // in ascending order. Below, positions map to rows via chunk_offset.
    std::size_t cn = chunk_n;
    if (n_clip != 0) {
      std::fill_n(kept.begin(), chunk_n, 1u);
      for (std::size_t c = 0; c < n_clip; ++c) {
        clip_mask(right_key, clip_attrs[c], rrows + cb * rrs, rrs, chunk_n,
                  kept.data());
      }
      cn = 0;
      for (std::size_t j = 0; j < chunk_n; ++j) {
        const std::uint32_t in = kept[j];  // read before cn <= j is written
        kept[cn] = static_cast<std::uint32_t>(j);
        cn += in;
      }
      stats.probe_rows_clipped += chunk_n - cn;
    }

    // (1) Canonicalize the key lanes once per kept row; hash from lanes
    // (hash_lanes == JoinKey::hash_row on the canonical lanes).
    for (std::size_t j = 0; j < cn; ++j) {
      std::uint64_t* l = lanes_buf.data() + j * arity;
      right_key.extract_lanes(rrows + (cb + chunk_offset(j)) * rrs, l);
      hashes[j] = hash_lanes({l, arity}, kSaltInMemory);
    }

    // (2) Counting-sort chunk positions by partition so probes of one
    // partition cluster in time and its tags/slots stay L2-resident.
    const std::uint32_t* ord = nullptr;
    if (radix) {
      bucket_pos.assign(parts_.size() + 1, 0);
      for (std::size_t j = 0; j < cn; ++j) {
        ++bucket_pos[partition_of(hashes[j]) + 1];
      }
      for (std::size_t p = 1; p <= parts_.size(); ++p) {
        bucket_pos[p] += bucket_pos[p - 1];
      }
      order.resize(cn);
      for (std::size_t j = 0; j < cn; ++j) {
        order[bucket_pos[partition_of(hashes[j])]++] =
            static_cast<std::uint32_t>(j);
      }
      ord = order.data();
    }

    // (3) Probe with a rolling prefetch kProbeBatch rows ahead of the
    // cursor. Hash hits become *candidates* — the left row is only
    // prefetched here, and the full key compare is deferred to the emit
    // pass, so the dependent left-payload load never stalls the probe loop.
    // Equal full hashes are almost always true matches, so candidate order
    // is match order.
    matches.clear();
    for (std::size_t j = 0; j < cn; ++j) {
      if (j + kProbeBatch < cn) {
        const std::size_t nj = ord ? ord[j + kProbeBatch] : j + kProbeBatch;
        const Partition& np = parts_[partition_of(hashes[nj])];
        const std::uint64_t nidx = np.offset + (hashes[nj] & np.mask);
        ORV_PREFETCH(&tags_[nidx]);
        ORV_PREFETCH(&slots_[nidx]);
      }
      const std::size_t pj = ord ? ord[j] : j;
      const std::uint64_t h = hashes[pj];
      const std::uint8_t want = tag_of(h);
      const Partition& part = parts_[partition_of(h)];
      std::uint64_t i = h & part.mask;
      for (;;) {
        const std::uint8_t t = tags_[part.offset + i];
        if (t == kEmptyTag) break;
        if (t == want) {
          const Slot& s = slots_[part.offset + i];
          if (s.hash == h) {
            ORV_PREFETCH(lrows + s.row * lrs);
            matches.push_back({static_cast<std::uint32_t>(pj), s.row});
          }
        }
        i = (i + 1) & part.mask;
      }
    }

    // (4) Partition grouping permuted probe order; restore it with a
    // stable counting sort on the chunk position (all matches of one probe
    // row are already consecutive and in chain order).
    const Match* emit = matches.data();
    if (radix && !matches.empty()) {
      emit_pos.assign(cn + 1, 0);
      for (const Match& m : matches) ++emit_pos[m.pos + 1];
      for (std::size_t j = 1; j <= cn; ++j) emit_pos[j] += emit_pos[j - 1];
      sorted.resize(matches.size());
      for (const Match& m : matches) sorted[emit_pos[m.pos]++] = m;
      emit = sorted.data();
    }

    // (5) Verify candidates (drop full-hash collisions) and zero-copy
    // emit: left prefix then the right copy-plan pieces, written straight
    // into the reserved output rows.
    const std::size_t n_cand = matches.size();
    if (n_cand != 0) {
      std::uint64_t left_lanes[kMaxKeyArity];
      std::byte* dst = out.append_rows_reserve(n_cand);
      std::size_t emitted = 0;
      for (std::size_t m = 0; m < n_cand; ++m) {
        const std::byte* lrow = lrows + emit[m].lrow * lrs;
        key_.extract_lanes(lrow, left_lanes);
        if (!key_.lanes_equal(left_lanes,
                              lanes_buf.data() + emit[m].pos * arity)) {
          continue;
        }
        const std::byte* rrow =
            rrows + (cb + chunk_offset(emit[m].pos)) * rrs;
        std::memcpy(dst, lrow, lrs);
        for (const auto& piece : plan.pieces) {
          std::memcpy(dst + piece.dst_offset, rrow + piece.src_offset,
                      piece.size);
        }
        dst += plan.result_record_size;
        ++emitted;
      }
      out.append_rows_commit(emitted);
      stats.result_tuples += emitted;
    }
  }
  out.append_rows_trim();
  return stats;
}

SubTable hash_join(const SubTable& left, const SubTable& right,
                   const std::vector<std::string>& key_attrs,
                   SubTableId result_id, JoinStats* stats) {
  // Non-owning alias: the table lives only for this call.
  auto left_alias = std::shared_ptr<const SubTable>(&left, [](auto*) {});
  BuiltHashTable ht(left_alias, key_attrs);
  const JoinKey right_key = JoinKey::resolve(right.schema(), key_attrs);
  auto result_schema = std::make_shared<const Schema>(Schema::join_result(
      left.schema(), right.schema(), right_key.attr_indices()));
  SubTable out(result_schema, result_id);
  JoinStats s = ht.probe(right, key_attrs, out);
  s.build_tuples = left.num_rows();
  if (stats) *stats += s;
  return out;
}

SubTable nested_loop_join(const SubTable& left, const SubTable& right,
                          const std::vector<std::string>& key_attrs,
                          SubTableId result_id) {
  const JoinKey lkey = JoinKey::resolve(left.schema(), key_attrs);
  const JoinKey rkey = JoinKey::resolve(right.schema(), key_attrs);
  ORV_REQUIRE(lkey.compatible_with(rkey), "join key type mismatch");
  auto result_schema = std::make_shared<const Schema>(Schema::join_result(
      left.schema(), right.schema(), rkey.attr_indices()));
  const RightCopyPlan plan =
      RightCopyPlan::make(left.schema(), right.schema(), rkey);
  SubTable out(result_schema, result_id);
  // Canonicalize every left key once (O(n)) instead of re-extracting the
  // lanes inside the O(n*m) inner loop; a left key with a NaN lane matches
  // nothing, so only the other rows are kept, in ascending order.
  const std::size_t arity = lkey.arity();
  std::vector<std::uint64_t> left_lanes(left.num_rows() * arity);
  std::vector<std::size_t> matchable;
  for (std::size_t l = 0; l < left.num_rows(); ++l) {
    std::uint64_t* lanes = left_lanes.data() + l * arity;
    lkey.extract_lanes(left.row(l), lanes);
    if (!lkey.has_nan(lanes)) matchable.push_back(l);
  }
  std::uint64_t rl[kMaxKeyArity];
  std::vector<std::byte> row_buf(plan.result_record_size);
  for (std::size_t r = 0; r < right.num_rows(); ++r) {
    rkey.extract_lanes(right.row(r), rl);
    for (const std::size_t l : matchable) {
      if (!lkey.lanes_equal(left_lanes.data() + l * arity, rl)) continue;
      std::memcpy(row_buf.data(), left.row(l), left.record_size());
      for (const auto& piece : plan.pieces) {
        std::memcpy(row_buf.data() + piece.dst_offset,
                    right.row(r) + piece.src_offset, piece.size);
      }
      out.append_row(row_buf);
    }
  }
  return out;
}

}  // namespace orv
