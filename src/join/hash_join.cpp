#include "join/hash_join.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <mutex>
#include <type_traits>

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

/// The host-only table hash: per lane one add-and-multiply, then one
/// mix64. Each lane is folded by its high half first (x ^ x >> 32, a
/// bijection): the f64 bits of grid coordinates end in 40 or more zero
/// bits, and a multiply only carries bits upward, so without the fold a
/// composite float key would vary in a few top bits of the sum and many
/// keys would share one hash. It only places rows in the in-memory table;
/// GH's h1/h2 (JoinKey::hash_row) are a different function.
constexpr std::uint64_t kTableSeed = hash_seed(kSaltInMemory);
constexpr std::uint64_t kTableMul = 0x9e3779b97f4a7c15ull;

/// h[j] = table hash of row j's lanes (lanes[i * lane_stride + j]).
void table_hashes(const std::uint64_t* lanes, std::size_t lane_stride,
                  std::size_t arity, std::size_t n, std::uint64_t* h) {
  std::fill_n(h, n, kTableSeed);
  for (std::size_t i = 0; i < arity; ++i) {
    const std::uint64_t* col = lanes + i * lane_stride;
    for (std::size_t j = 0; j < n; ++j) {
      h[j] = (h[j] + (col[j] ^ (col[j] >> 32))) * kTableMul;
    }
  }
  for (std::size_t j = 0; j < n; ++j) h[j] = mix64(h[j]);
}

/// Eight tags from one 64-bit load; tag k of the group in byte k, counted
/// from the least significant byte.
std::uint64_t load_group(const std::uint8_t* tags) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t g = 0;
    std::memcpy(&g, tags, sizeof(g));
    return g;
  } else {
    std::uint64_t g = 0;
    for (int k = 0; k < 8; ++k) g |= std::uint64_t{tags[k]} << (8 * k);
    return g;
  }
}

/// Exact SWAR zero-byte test: bit 7 of byte k is set iff byte k of x is
/// zero (no borrow crosses bytes, so there are no false positives).
std::uint64_t zero_bytes(std::uint64_t x) {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

/// Copies `n` bytes; records are made of 4- and 8-byte fields, so most
/// copies are one or two fixed-size moves rather than a memcpy call.
void copy_fields(std::byte* dst, const std::byte* src, std::size_t n) {
  if (n >= 8 && n <= 16) {
    std::memcpy(dst, src, 8);
    std::memcpy(dst + n - 8, src + n - 8, 8);
  } else if (n > 16 && n <= 32) {
    std::memcpy(dst, src, 16);
    std::memcpy(dst + n - 16, src + n - 16, 16);
  } else if (n == 4) {
    std::memcpy(dst, src, 4);
  } else {
    std::memcpy(dst, src, n);
  }
}

/// Grows `v` to hold at least `n` elements; returns its data.
template <typename T>
T* at_least(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// Keeps, in order, the candidates whose left row's T field at `field`
/// (record size `stride`) canonicalizes to their probe row's lane in
/// `probe_lanes`; returns how many remain.
template <typename T>
std::size_t keep_equal(const std::byte* field, std::size_t stride,
                       const std::uint64_t* probe_lanes,
                       JoinScratch::Match* cand, std::size_t n) {
  std::size_t kept = 0;
  for (std::size_t m = 0; m < n; ++m) {
    const JoinScratch::Match c = cand[m];
    cand[kept] = c;
    kept += key_lane_of(load_field<T>(field + c.lrow * stride)) ==
            probe_lanes[c.pos];
  }
  return kept;
}

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
// A group never spans more than the smallest partition.
static_assert(BuiltHashTable::kGroup <= 16);

BuiltHashTable::BuiltHashTable(std::shared_ptr<const SubTable> left,
                               std::shared_ptr<const JoinKey> key,
                               JoinScratch& scratch)
    : left_(std::move(left)), key_(std::move(key)) {
  build(scratch);
}

BuiltHashTable::BuiltHashTable(std::shared_ptr<const SubTable> left,
                               const std::vector<std::string>& key_attrs)
    : left_(std::move(left)),
      key_(std::make_shared<const JoinKey>(
          JoinKey::resolve(left_->schema(), key_attrs))) {
  JoinScratch scratch;
  build(scratch);
}

void BuiltHashTable::build(JoinScratch& scratch) {
  const JoinKey& key = *key_;
  ORV_REQUIRE(key.arity() <= kMaxKeyArity, "join key arity too large");
  ORV_REQUIRE(left_->num_rows() <= std::numeric_limits<std::uint32_t>::max(),
              "left sub-table too large");
  const std::size_t n = left_->num_rows();
  const std::size_t rs = left_->record_size();
  const std::byte* rows = left_->bytes().data();
  const std::size_t arity = key.arity();

  // Rows are hashed a block at a time: lanes one key attribute at a time,
  // then the table hash over the block. Returns whether a lane is NaN.
  const std::size_t block = std::min(kProbeChunk, n);
  std::uint64_t* hashes = at_least(scratch.hashes, block);
  std::uint64_t* lanes = at_least(scratch.lanes, block * arity);
  const auto hash_block = [&](std::size_t b, std::size_t bn) {
    const bool nan = key.lane_columns(rows + b * rs, rs, nullptr, bn, lanes,
                                      block);
    table_hashes(lanes, block, arity, bn, hashes);
    return nan;
  };

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
  // perfectly even; a radix build hashes its rows twice to count them),
  // then lay partitions out back to back.
  std::vector<std::size_t> counts(nparts, 0);
  if (nparts > 1) {
    for (std::size_t b = 0; b < n; b += block) {
      const std::size_t bn = std::min(block, n - b);
      hash_block(b, bn);
      for (std::size_t j = 0; j < bn; ++j) {
        ++counts[(hashes[j] >> 40) & (nparts - 1)];
      }
    }
  } else {
    counts[0] = n;
  }
  parts_.resize(nparts);
  std::uint64_t offset = 0;
  for (std::size_t p = 0; p < nparts; ++p) {
    const std::uint64_t cap = table_capacity_for(counts[p]);
    parts_[p] = Partition{offset, offset + p * kGroup, cap - 1, counts[p]};
    offset += cap;
  }
  slots_.assign(offset, Slot{});
  tags_.assign(offset + nparts * kGroup, kEmptyTag);

  // Insert in ascending row order, so equal keys chain in left-row order.
  // Rows whose key has a NaN lane match nothing and are left out; the
  // per-row scan runs only for a block in which a floating lane is NaN.
  for (std::size_t b = 0; b < n; b += block) {
    const std::size_t bn = std::min(block, n - b);
    std::uint32_t* nan = nullptr;
    if (hash_block(b, bn)) {
      nan = at_least(scratch.kept, block);
      std::fill_n(nan, bn, 0u);
      for (std::size_t i = 0; i < arity; ++i) {
        if (!key.is_float(i)) continue;
        const std::uint64_t* col = lanes + i * block;
        for (std::size_t j = 0; j < bn; ++j) {
          nan[j] |= JoinKey::is_nan_lane(col[j]);
        }
      }
    }
    for (std::size_t j = 0; j < bn; ++j) {
      if (nan != nullptr && nan[j] != 0) continue;
      insert(parts_[partition_of(hashes[j])], hashes[j],
             static_cast<std::uint32_t>(b + j));
    }
  }
}

void BuiltHashTable::insert(const Partition& part, std::uint64_t hash,
                            std::uint32_t row) {
  std::uint8_t* tags = tags_.data() + part.tag_offset;
  std::uint64_t pos = hash & part.mask;
  std::uint64_t empty;
  while ((empty = zero_bytes(load_group(tags + pos))) == 0) {
    pos = (pos + kGroup) & part.mask;
  }
  const std::uint64_t i = (pos + (std::countr_zero(empty) >> 3)) & part.mask;
  slots_[part.offset + i] = Slot{hash, row};
  tags[i] = tag_of(hash);
  if (i < kGroup) tags[part.mask + 1 + i] = tags[i];  // the mirror byte
}

const std::vector<BuiltHashTable::KeyRange>& BuiltHashTable::key_box()
    const {
  // call_once keeps a first probe from two threads safe (see probe_range).
  std::call_once(key_box_once_, [this] {
    const JoinKey& key = *key_;
    const std::size_t n = left_->num_rows();
    const std::size_t rs = left_->record_size();
    key_box_.assign(key.arity(), KeyRange{});
    for (std::size_t i = 0; i < key.arity(); ++i) {
      KeyRange& b = key_box_[i];
      const std::byte* field = left_->bytes().data() + key.offset(i);
      with_attr_type(key.type(i), [&](auto t) {
        const auto f = field_range<decltype(t)>(field, rs, n);
        if constexpr (std::is_floating_point_v<decltype(t)>) {
          b.flo = f.lo;
          b.fhi = f.hi;
        } else {
          b.ilo = f.lo;
          b.ihi = f.hi;
        }
      });
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
  with_attr_type(right_key.type(i), [&](auto t) {
    using T = decltype(t);
    if constexpr (std::is_floating_point_v<T>) {
      and_in_range<T>(field, stride, n, b.flo, b.fhi, mask);
    } else {
      and_in_range<T>(field, stride, n, b.ilo, b.ihi, mask);
    }
  });
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

JoinStats BuiltHashTable::probe_range(
    const SubTable& right, const std::vector<std::string>& right_key_attrs,
    std::size_t row_begin, std::size_t row_end, SubTable& out) const {
  const JoinKey right_key = JoinKey::resolve(right.schema(), right_key_attrs);
  JoinScratch scratch;
  return probe_range(
      right, right_key,
      RightCopyPlan::make(left_->schema(), right.schema(), right_key),
      row_begin, row_end, out, scratch);
}

/// Per chunk: (0) clip the chunk to the rows whose key lies in the left key
/// box, (1) compute those rows' key lanes one attribute at a time and hash
/// them, (2) in radix mode regroup the chunk by partition so one
/// partition's structure stays hot, (3) probe eight tags per group load
/// with a rolling software prefetch kProbeBatch rows ahead, (4) restore
/// probe-row order, (5) drop full-hash collisions one key attribute at a
/// time, (6) write joined records directly into the output buffer. Output
/// row order is nested_loop_join's: probe-row order, per-row matches in
/// ascending left-row order (linear probing visits equal-key slots in
/// insertion order, and a group's hits are taken in slot order up to its
/// first empty tag). Clipped rows have no match, and the kept rows stay in
/// ascending order, so the clip does not change the output bytes.
JoinStats BuiltHashTable::probe_range(const SubTable& right,
                                      const JoinKey& right_key,
                                      const RightCopyPlan& plan,
                                      std::size_t row_begin,
                                      std::size_t row_end, SubTable& out,
                                      JoinScratch& scratch) const {
  const JoinKey& key = *key_;
  ORV_REQUIRE(right_key.arity() == key.arity(), "join key arity mismatch");
  ORV_REQUIRE(right_key.compatible_with(key), "join key type mismatch");
  ORV_REQUIRE(row_begin <= row_end && row_end <= right.num_rows(),
              "probe row range out of bounds");
  ORV_REQUIRE(plan.left_record_size == left_->record_size() &&
                  out.record_size() == plan.result_record_size,
              "output schema does not match the join result layout");

  JoinStats stats;
  stats.probe_tuples = row_end - row_begin;

  const std::size_t lrs = left_->record_size();
  const std::size_t rrs = right.record_size();
  const std::byte* lrows = left_->bytes().data();
  const std::byte* rrows = right.bytes().data();
  const std::size_t arity = key.arity();
  const bool radix = parts_.size() > 1;

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
    const Interval& l = left_->bounds()[key.attr_indices()[i]];
    const Interval& r = right.bounds()[right_key.attr_indices()[i]];
    if (!(r.lo >= l.lo && r.hi <= l.hi)) clip_attrs[n_clip++] = i;
  }

  // Most calls probe far fewer rows than one chunk; the scratch only grows
  // to the rows of the range. With no attribute tested, no row is dropped
  // and chunk positions are chunk offsets.
  const std::size_t block = std::min(kProbeChunk, row_end - row_begin);
  std::uint64_t* hashes = at_least(scratch.hashes, block);
  std::uint64_t* lanes = at_least(scratch.lanes, block * arity);
  std::uint32_t* kept = n_clip != 0 ? at_least(scratch.kept, block) : nullptr;
  std::vector<JoinScratch::Match>& matches = scratch.matches;

  for (std::size_t cb = row_begin; cb < row_end; cb += kProbeChunk) {
    const std::size_t chunk_n = std::min(kProbeChunk, row_end - cb);
    const std::byte* chunk = rrows + cb * rrs;

    // (0) Clip: keep the chunk offsets whose key lies in the left key box,
    // in ascending order. Below, a position j is chunk offset kept[j].
    std::size_t cn = chunk_n;
    if (n_clip != 0) {
      std::fill_n(kept, chunk_n, 1u);
      for (std::size_t c = 0; c < n_clip; ++c) {
        clip_mask(right_key, clip_attrs[c], chunk, rrs, chunk_n, kept);
      }
      cn = 0;
      for (std::size_t j = 0; j < chunk_n; ++j) {
        const std::uint32_t in = kept[j];  // read before cn <= j is written
        kept[cn] = static_cast<std::uint32_t>(j);
        cn += in;
      }
      stats.probe_rows_clipped += chunk_n - cn;
    }

    // (1) Canonical key lanes, one attribute at a time, then the hashes.
    right_key.lane_columns(chunk, rrs, kept, cn, lanes, block);
    table_hashes(lanes, block, arity, cn, hashes);

    // (2) Counting-sort chunk positions by partition so probes of one
    // partition cluster in time and its tags/slots stay L2-resident.
    const std::uint32_t* ord = nullptr;
    if (radix) {
      std::uint32_t* bucket_pos = at_least(scratch.bucket_pos,
                                           parts_.size() + 1);
      std::fill_n(bucket_pos, parts_.size() + 1, 0u);
      for (std::size_t j = 0; j < cn; ++j) {
        ++bucket_pos[partition_of(hashes[j]) + 1];
      }
      for (std::size_t p = 1; p <= parts_.size(); ++p) {
        bucket_pos[p] += bucket_pos[p - 1];
      }
      std::uint32_t* order = at_least(scratch.order, cn);
      for (std::size_t j = 0; j < cn; ++j) {
        order[bucket_pos[partition_of(hashes[j])]++] =
            static_cast<std::uint32_t>(j);
      }
      ord = order;
    }

    // (3) Probe with a rolling prefetch kProbeBatch rows ahead of the
    // cursor. Each group load tests eight tags; a hit whose full hash
    // matches becomes a *candidate*: the left row is only prefetched here,
    // and the key compare is deferred to (5), so the dependent
    // left-payload load never stalls the probe loop. Only hits before the
    // group's first empty tag count: the chain ends there.
    matches.clear();
    for (std::size_t j = 0; j < cn; ++j) {
      if (j + kProbeBatch < cn) {
        const std::size_t nj = ord ? ord[j + kProbeBatch] : j + kProbeBatch;
        const Partition& np = parts_[partition_of(hashes[nj])];
        const std::uint64_t nidx = hashes[nj] & np.mask;
        ORV_PREFETCH(&tags_[np.tag_offset + nidx]);
        ORV_PREFETCH(&slots_[np.offset + nidx]);
      }
      const std::size_t pj = ord ? ord[j] : j;
      const std::uint64_t h = hashes[pj];
      const std::uint64_t want = tag_of(h) * 0x0101010101010101ull;
      const Partition& part = parts_[partition_of(h)];
      const std::uint8_t* tags = tags_.data() + part.tag_offset;
      const Slot* slots = slots_.data() + part.offset;
      std::uint64_t pos = h & part.mask;
      for (;;) {
        const std::uint64_t g = load_group(tags + pos);
        const std::uint64_t empty = zero_bytes(g);
        std::uint64_t hit = zero_bytes(g ^ want);
        if (empty != 0) hit &= (empty & (0 - empty)) - 1;
        for (; hit != 0; hit &= hit - 1) {
          const Slot& s =
              slots[(pos + (std::countr_zero(hit) >> 3)) & part.mask];
          if (s.hash == h) {
            ORV_PREFETCH(lrows + s.row * lrs);
            matches.push_back({static_cast<std::uint32_t>(pj), s.row});
          }
        }
        if (empty != 0) break;
        pos = (pos + kGroup) & part.mask;
      }
    }

    // (4) Partition grouping permuted probe order; restore it with a
    // stable counting sort on the chunk position (all matches of one probe
    // row are already consecutive and in chain order).
    JoinScratch::Match* emit = matches.data();
    std::size_t n_cand = matches.size();
    if (radix && n_cand != 0) {
      std::uint32_t* emit_pos = at_least(scratch.emit_pos, cn + 1);
      std::fill_n(emit_pos, cn + 1, 0u);
      for (std::size_t m = 0; m < n_cand; ++m) ++emit_pos[emit[m].pos + 1];
      for (std::size_t j = 1; j <= cn; ++j) emit_pos[j] += emit_pos[j - 1];
      JoinScratch::Match* sorted = at_least(scratch.sorted, n_cand);
      for (std::size_t m = 0; m < n_cand; ++m) {
        sorted[emit_pos[emit[m].pos]++] = emit[m];
      }
      emit = sorted;
    }

    // (5) Drop full-hash collisions: compare each candidate's left lanes
    // with its probe lanes, one key attribute at a time.
    for (std::size_t i = 0; i < arity && n_cand != 0; ++i) {
      with_attr_type(key.type(i), [&](auto t) {
        n_cand = keep_equal<decltype(t)>(lrows + key.offset(i), lrs,
                                         lanes + i * block, emit, n_cand);
      });
    }

    // (6) Zero-copy emit: left prefix then the right copy-plan pieces,
    // written straight into the reserved output rows.
    if (n_cand != 0) {
      std::byte* dst = out.append_rows_reserve(n_cand);
      for (std::size_t m = 0; m < n_cand; ++m) {
        const std::size_t off = kept ? kept[emit[m].pos] : emit[m].pos;
        const std::byte* rrow = chunk + off * rrs;
        copy_fields(dst, lrows + emit[m].lrow * lrs, lrs);
        for (const auto& piece : plan.pieces) {
          copy_fields(dst + piece.dst_offset, rrow + piece.src_offset,
                      piece.size);
        }
        dst += plan.result_record_size;
      }
      out.append_rows_commit(n_cand);
      stats.result_tuples += n_cand;
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

namespace {

/// True when `s` equals the schema `resolved` was resolved against (by
/// pointer, else by value); on a value match `resolved` adopts `s`, so the
/// next call with it compares pointers only.
bool still_resolved(SchemaPtr& resolved, const SchemaPtr& s) {
  if (resolved == s) return true;
  if (resolved == nullptr || !(*resolved == *s)) return false;
  resolved = s;
  return true;
}

}  // namespace

std::shared_ptr<const BuiltHashTable> PairJoin::build(
    std::shared_ptr<const SubTable> left) {
  if (!still_resolved(left_schema_, left->schema_ptr())) {
    left_key_ = std::make_shared<const JoinKey>(
        JoinKey::resolve(left->schema(), key_attrs_));
    left_schema_ = left->schema_ptr();
  }
  stats_.build_tuples += left->num_rows();
  return std::make_shared<const BuiltHashTable>(std::move(left), left_key_,
                                                scratch_);
}

SubTable PairJoin::probe(const BuiltHashTable& table, const SubTable& right,
                         SubTableId id) {
  const SchemaPtr& ls = table.left().schema_ptr();
  const SchemaPtr& rs = right.schema_ptr();
  // Both checks run, so each side adopts its current schema pointer.
  const bool left_same = still_resolved(plan_left_schema_, ls);
  if (!still_resolved(plan_right_schema_, rs) || !left_same) {
    right_key_ = JoinKey::resolve(*rs, key_attrs_);
    plan_ = RightCopyPlan::make(*ls, *rs, right_key_);
    plan_left_schema_ = ls;
    plan_right_schema_ = rs;
  }
  SubTable out(result_schema_, id);
  stats_.probe_tuples += table
                             .probe_range(right, right_key_, plan_, 0,
                                          right.num_rows(), out, scratch_)
                             .probe_tuples;
  out = filter_rows(std::move(out), output_ranges_);
  stats_.result_tuples += out.num_rows();
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
