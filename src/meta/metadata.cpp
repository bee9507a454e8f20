#include "meta/metadata.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"

namespace orv {

bool satisfies_ranges(const ChunkMeta& chunk,
                      const std::vector<AttrRange>& ranges) {
  for (const auto& r : ranges) {
    if (auto idx = chunk.schema->index_of(r.attr)) {
      if (!chunk.bounds[*idx].overlaps(r.range)) return false;
    }
  }
  return true;
}

namespace {

/// Per-row pass mask of `ranges` over `st`, or nothing when no range names
/// one of its attributes. Every attribute is tested, so the unbounded
/// interval of an attribute no range names still rejects NaN; an integer
/// attribute under the unbounded interval always passes and is skipped.
std::optional<std::vector<std::uint8_t>> keep_mask(
    const SubTable& st, const std::vector<AttrRange>& ranges) {
  const Schema& schema = st.schema();
  Rect pred = Rect::unbounded(schema.num_attrs());
  bool constrained = false;
  for (const auto& r : ranges) {
    if (auto idx = schema.index_of(r.attr)) {
      pred[*idx] = pred[*idx].intersect(r.range);
      constrained = true;
    }
  }
  if (!constrained) return std::nullopt;
  std::vector<std::uint8_t> keep(st.num_rows(), 1);
  for (std::size_t d = 0; d < schema.num_attrs(); ++d) {
    const Interval iv = pred[d];
    const AttrType type = schema.attr(d).type;
    const bool integer = type == AttrType::Int32 || type == AttrType::Int64;
    if (integer && iv == Interval{}) continue;
    st.for_each_as_double(d, [&keep, iv](std::size_t r, double v) {
      keep[r] &= static_cast<std::uint8_t>(iv.contains(v));
    });
  }
  return keep;
}

/// The rows of `st` that `keep` marks. Sizes the output exactly, then
/// copies each maximal run of passing rows with one memcpy.
SubTable copy_kept(const SubTable& st, const std::vector<std::uint8_t>& keep) {
  const auto kept = static_cast<std::size_t>(
      std::count(keep.begin(), keep.end(), std::uint8_t{1}));
  SubTable out(st.schema_ptr(), st.id());
  std::byte* dst = out.append_rows_reserve(kept);
  const std::size_t rs = st.record_size();
  for (std::size_t begin = 0; begin < keep.size();) {
    if (!keep[begin]) {
      ++begin;
      continue;
    }
    std::size_t end = begin + 1;
    while (end < keep.size() && keep[end]) ++end;
    std::memcpy(dst, st.row(begin), (end - begin) * rs);
    dst += (end - begin) * rs;
    begin = end;
  }
  out.append_rows_commit(kept);
  out.compute_bounds();
  return out;
}

}  // namespace

SubTable filter_rows(const SubTable& st, const std::vector<AttrRange>& ranges) {
  const auto keep = keep_mask(st, ranges);
  return keep ? copy_kept(st, *keep) : st;
}

SubTable filter_rows(SubTable&& st, const std::vector<AttrRange>& ranges) {
  const auto keep = keep_mask(st, ranges);
  if (keep && std::find(keep->begin(), keep->end(), 0) != keep->end()) {
    return copy_kept(st, *keep);
  }
  return std::move(st);
}

void MetaDataService::register_table(TableId table, std::string name,
                                     SchemaPtr schema) {
  ORV_REQUIRE(schema != nullptr, "register_table needs a schema");
  ORV_REQUIRE(!tables_.count(table),
              "table id " + std::to_string(table) + " already registered");
  for (const auto& [id, info] : tables_) {
    ORV_REQUIRE(info.name != name, "table name '" + name + "' already in use");
  }
  TableInfo info;
  info.name = std::move(name);
  info.schema = std::move(schema);
  tables_.emplace(table, std::move(info));
}

void MetaDataService::add_chunk(ChunkMeta meta) {
  auto& info = table_info(meta.id.table);
  ORV_REQUIRE(meta.schema != nullptr, "chunk needs a schema");
  ORV_REQUIRE(meta.bounds.dims() == meta.schema->num_attrs(),
              "chunk bounds dimension disagrees with its schema");
  info.chunks.push_back(std::move(meta));
  indexes_dirty_ = true;
}

std::vector<TableId> MetaDataService::table_ids() const {
  std::vector<TableId> out;
  out.reserve(tables_.size());
  for (const auto& [id, info] : tables_) out.push_back(id);
  return out;
}

const std::string& MetaDataService::table_name(TableId table) const {
  return table_info(table).name;
}

SchemaPtr MetaDataService::table_schema(TableId table) const {
  return table_info(table).schema;
}

TableId MetaDataService::table_by_name(const std::string& name) const {
  for (const auto& [id, info] : tables_) {
    if (info.name == name) return id;
  }
  throw NotFound("no table named '" + name + "'");
}

bool MetaDataService::has_table(const std::string& name) const {
  for (const auto& [id, info] : tables_) {
    if (info.name == name) return true;
  }
  return false;
}

const std::vector<ChunkMeta>& MetaDataService::chunks(TableId table) const {
  return table_info(table).chunks;
}

const ChunkMeta& MetaDataService::chunk(SubTableId id) const {
  for (const auto& c : chunks(id.table)) {
    if (c.id == id) return c;
  }
  throw NotFound("no chunk " + id.to_string());
}

std::uint64_t MetaDataService::table_bytes(TableId table) const {
  std::uint64_t total = 0;
  for (const auto& c : chunks(table)) total += c.location.size;
  return total;
}

std::uint64_t MetaDataService::table_rows(TableId table) const {
  std::uint64_t total = 0;
  for (const auto& c : chunks(table)) total += c.num_rows;
  return total;
}

Rect MetaDataService::query_rect(TableId table,
                                 const std::vector<AttrRange>& ranges) const {
  const auto& info = table_info(table);
  Rect rect = Rect::unbounded(info.schema->num_attrs());
  for (const auto& r : ranges) {
    // A range on an attribute the table lacks is unconstrained for this
    // table (the paper treats missing attributes as [-inf, +inf]).
    if (auto idx = info.schema->index_of(r.attr)) {
      rect[*idx] = rect[*idx].intersect(r.range);
    }
  }
  return rect;
}

void MetaDataService::build_indexes() const {
  for (const auto& [id, info] : tables_) {
    std::vector<std::pair<Rect, std::uint64_t>> entries;
    entries.reserve(info.chunks.size());
    for (std::size_t i = 0; i < info.chunks.size(); ++i) {
      entries.emplace_back(info.chunks[i].bounds, i);
    }
    info.index = std::make_unique<RTree>(info.schema->num_attrs());
    info.index->bulk_load(std::move(entries));
  }
  indexes_dirty_ = false;
}

std::vector<SubTableId> MetaDataService::find_chunks(
    TableId table, const std::vector<AttrRange>& ranges) const {
  const auto& info = table_info(table);
  if (indexes_dirty_ || !info.index) build_indexes();
  const Rect rect = query_rect(table, ranges);
  std::vector<SubTableId> out;
  info.index->query(rect, [&](const Rect&, std::uint64_t i) {
    out.push_back(info.chunks[i].id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

const MetaDataService::TableInfo& MetaDataService::table_info(
    TableId table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    throw NotFound("no table with id " + std::to_string(table));
  }
  return it->second;
}

MetaDataService::TableInfo& MetaDataService::table_info(TableId table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    throw NotFound("no table with id " + std::to_string(table));
  }
  return it->second;
}

void MetaDataService::serialize(ByteWriter& w) const {
  w.put_u32(static_cast<std::uint32_t>(tables_.size()));
  for (const auto& [id, info] : tables_) {
    w.put_u32(id);
    w.put_string(info.name);
    info.schema->serialize(w);
    w.put_u32(static_cast<std::uint32_t>(info.chunks.size()));
    for (const auto& c : info.chunks) {
      w.put_u32(c.id.table);
      w.put_u32(c.id.chunk);
      w.put_u32(c.location.storage_node);
      w.put_u32(c.location.file_no);
      w.put_u64(c.location.offset);
      w.put_u64(c.location.size);
      w.put_u16(static_cast<std::uint16_t>(c.layout));
      c.schema->serialize(w);
      c.bounds.serialize(w);
      w.put_u64(c.num_rows);
      w.put_u32(static_cast<std::uint32_t>(c.extractors.size()));
      for (const auto& e : c.extractors) w.put_string(e);
    }
  }
}

MetaDataService MetaDataService::deserialize(ByteReader& r) {
  MetaDataService svc;
  const std::uint32_t n_tables = r.get_u32();
  for (std::uint32_t t = 0; t < n_tables; ++t) {
    const TableId id = r.get_u32();
    std::string name = r.get_string();
    auto schema = std::make_shared<const Schema>(Schema::deserialize(r));
    svc.register_table(id, std::move(name), schema);
    const std::uint32_t n_chunks = r.get_u32();
    for (std::uint32_t c = 0; c < n_chunks; ++c) {
      ChunkMeta meta;
      meta.id.table = r.get_u32();
      meta.id.chunk = r.get_u32();
      meta.location.storage_node = r.get_u32();
      meta.location.file_no = r.get_u32();
      meta.location.offset = r.get_u64();
      meta.location.size = r.get_u64();
      meta.layout = static_cast<LayoutId>(r.get_u16());
      meta.schema = std::make_shared<const Schema>(Schema::deserialize(r));
      meta.bounds = Rect::deserialize(r);
      meta.num_rows = r.get_u64();
      const std::uint32_t n_ex = r.get_u32();
      for (std::uint32_t e = 0; e < n_ex; ++e) {
        meta.extractors.push_back(r.get_string());
      }
      svc.add_chunk(std::move(meta));
    }
  }
  return svc;
}

}  // namespace orv
