#include "graph/page_index.hpp"

#include <utility>

namespace orv {

const ConnectivityGraph& PageIndexService::full_graph(
    TableId left, TableId right, const std::vector<std::string>& attrs) {
  const Key key{left, right, attrs};
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++builds_;
  auto graph = ConnectivityGraph::build(meta_, left, right, attrs);
  return cache_.emplace(key, std::move(graph)).first->second;
}

const ConnectivityGraph& PageIndexService::pruned_graph(
    TableId left, TableId right, const std::vector<std::string>& attrs,
    const std::vector<AttrRange>& ranges) {
  const ConnectivityGraph& full = full_graph(left, right, attrs);
  if (ranges.empty()) return full;
  PrunedKey key{Key{left, right, attrs}, {}};
  for (const auto& r : ranges) {
    key.second.emplace_back(r.attr, r.range.lo, r.range.hi);
  }
  auto [it, fresh] = pruned_.try_emplace(std::move(key));
  if (fresh) {
    std::vector<SubTablePair> kept;
    for (const auto& e : full.edges()) {
      if (satisfies_ranges(meta_.chunk(e.left), ranges) &&
          satisfies_ranges(meta_.chunk(e.right), ranges)) {
        kept.push_back(e);
      }
    }
    it->second = ConnectivityGraph::from_edges(std::move(kept));
  }
  return it->second;
}

bool PageIndexService::precompute(TableId left, TableId right,
                                  const std::vector<std::string>& attrs) {
  const std::uint64_t before = builds_;
  full_graph(left, right, attrs);
  return builds_ != before;
}

void PageIndexService::serialize(ByteWriter& w) const {
  w.put_u32(static_cast<std::uint32_t>(cache_.size()));
  for (const auto& [key, graph] : cache_) {
    w.put_u32(std::get<0>(key));
    w.put_u32(std::get<1>(key));
    const auto& attrs = std::get<2>(key);
    w.put_u32(static_cast<std::uint32_t>(attrs.size()));
    for (const auto& a : attrs) w.put_string(a);
    graph.serialize(w);
  }
}

void PageIndexService::load(ByteReader& r) {
  const std::uint32_t n = r.get_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const TableId left = r.get_u32();
    const TableId right = r.get_u32();
    const std::uint32_t n_attrs = r.get_u32();
    std::vector<std::string> attrs;
    for (std::uint32_t a = 0; a < n_attrs; ++a) {
      attrs.push_back(r.get_string());
    }
    cache_.insert_or_assign(Key{left, right, std::move(attrs)},
                            ConnectivityGraph::deserialize(r));
  }
}

}  // namespace orv
