#pragma once

// Page-level join index service.
//
// "The page-index can be precomputed for common join attributes" (paper
// Section 4.1). This service caches one full connectivity graph per
// (left table, right table, join attributes) key; a query's range
// constraints then prune the cached graph ("any additional range
// constraints may be applied at the sub-table level to prune away
// unwanted edges and nodes") once per range set, instead of re-pairing
// chunks.

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/connectivity.hpp"

namespace orv {

class PageIndexService {
 public:
  explicit PageIndexService(const MetaDataService& meta) : meta_(meta) {}

  /// The full (unconstrained) graph; built once per key and cached.
  const ConnectivityGraph& full_graph(
      TableId left, TableId right, const std::vector<std::string>& attrs);

  /// The cached full graph pruned of edges whose chunks cannot satisfy the
  /// ranges, memoized per range set (no ranges: the full graph itself).
  /// Equal to ConnectivityGraph::build(..., ranges), without re-pairing.
  const ConnectivityGraph& pruned_graph(TableId left, TableId right,
                                        const std::vector<std::string>& attrs,
                                        const std::vector<AttrRange>& ranges);

  std::size_t num_cached() const { return cache_.size(); }
  /// Full-graph builds; lookups served without one count as hits.
  std::uint64_t builds() const { return builds_; }
  std::uint64_t hits() const { return hits_; }

 private:
  using Key = std::tuple<TableId, TableId, std::vector<std::string>>;
  using PrunedKey =
      std::pair<Key, std::vector<std::tuple<std::string, double, double>>>;

  const MetaDataService& meta_;
  std::map<Key, ConnectivityGraph> cache_;
  std::map<PrunedKey, ConnectivityGraph> pruned_;
  std::uint64_t builds_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace orv
