#pragma once

// Sub-table connectivity graph (page-level join index, paper Section 4.1).
//
// Nodes are basic sub-tables of the two tables; an edge joins a left and a
// right sub-table whose bounding boxes overlap on the join attributes
// (attributes absent from a sub-table are unbounded). Connected components
// are the scheduling unit of the Indexed Join, and the local executor's
// join walks them one at a time too.

#include <cstdint>
#include <string>
#include <vector>

#include "meta/metadata.hpp"

namespace orv {

/// One candidate pair: left sub-table (i1,j1), right sub-table (i2,j2).
struct SubTablePair {
  SubTableId left;
  SubTableId right;

  auto operator<=>(const SubTablePair&) const = default;
  std::string to_string() const {
    return left.to_string() + "-" + right.to_string();
  }
};

/// A connected sub-graph with no outgoing edges: `a` left sub-tables joined
/// against `b` right sub-tables.
struct Component {
  std::vector<SubTablePair> pairs;          // lexicographically sorted
  std::vector<SubTableId> left_subtables;   // sorted, deduplicated
  std::vector<SubTableId> right_subtables;  // sorted, deduplicated

  std::size_t a() const { return left_subtables.size(); }
  std::size_t b() const { return right_subtables.size(); }
};

struct GraphStats {
  std::uint64_t num_edges = 0;       // n_e
  std::uint64_t num_components = 0;  // N_C
  double avg_left_degree = 0;        // edges per left sub-table
  double avg_right_degree = 0;       // edges per right sub-table
  double edge_ratio = 0;             // n_e * c_R * c_S / T^2
  std::string to_string() const;
};

class ConnectivityGraph {
 public:
  /// Builds the graph for `left_table` join `right_table` on `join_attrs`,
  /// using the MetaData Service's R-tree to find overlapping pairs.
  /// `ranges` (optional) prunes sub-tables that cannot satisfy the query's
  /// range predicate before pairing.
  static ConnectivityGraph build(const MetaDataService& meta,
                                 TableId left_table, TableId right_table,
                                 const std::vector<std::string>& join_attrs,
                                 const std::vector<AttrRange>& ranges = {});

  /// As above, with each side's sub-tables pruned by that side's own
  /// ranges.
  static ConnectivityGraph build(const MetaDataService& meta,
                                 TableId left_table,
                                 const std::vector<AttrRange>& left_ranges,
                                 TableId right_table,
                                 const std::vector<AttrRange>& right_ranges,
                                 const std::vector<std::string>& join_attrs);

  const std::vector<SubTablePair>& edges() const { return edges_; }
  std::size_t num_edges() const { return edges_.size(); }

  /// Components in deterministic order (by smallest left sub-table id).
  const std::vector<Component>& components() const { return components_; }
  std::size_t num_components() const { return components_.size(); }

  /// Aggregate statistics; c_R/c_S/T taken from the metadata service.
  GraphStats stats(const MetaDataService& meta, TableId left_table,
                   TableId right_table) const;

  /// A graph over a given candidate-pair list (sorted here); components
  /// are recomputed. Range pruning of a cached graph builds through it.
  static ConnectivityGraph from_edges(std::vector<SubTablePair> edges);

 private:
  void compute_components();

  std::vector<SubTablePair> edges_;
  std::vector<Component> components_;
};

}  // namespace orv
