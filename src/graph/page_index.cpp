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

}  // namespace orv
