#pragma once

// Local (single-process) view executor: runs any ViewDef tree directly
// against the chunk stores, with chunk-level pruning through the MetaData
// Service's R-trees for selections over base tables. This is the
// ingestion-free query path a scientist uses on a workstation; the
// simulated cluster path (dds/distributed.hpp) handles the join-view DDS
// at cluster scale.
//
// A join of two (range-selected) base tables runs the Indexed Join's pair
// loop over the page-level join index (paper Section 4.1), one connected
// component at a time: each chunk of the component is loaded once, each
// left sub-table gets its own hash table, probed by the right sub-tables
// it is paired with. Only one component's chunks are resident at a time,
// the paper's memory contract; the output is not part of it. Join rows
// without ORDER BY come out in component order, not in table order. An
// Aggregate directly over such a join folds each pair's rows as they come,
// so the joined table is never materialized. Joins over derived inputs
// (projections, joins, aggregates) run one whole-input hash_join. As in
// the distributed Indexed Join, two NaN keys match only inside a pair the
// index makes: chunk bounds leave NaN out.

#include <functional>
#include <memory>
#include <vector>

#include "chunkio/chunk_store.hpp"
#include "dds/view_def.hpp"
#include "graph/connectivity.hpp"
#include "subtable/subtable.hpp"

namespace orv {

/// Stable multi-key sort (+ optional limit) over materialized rows; shared
/// by the local executor's Sort operator and the distributed path's
/// post-sort of top-level ORDER BY.
SubTable sort_rows(const SubTable& in, const std::vector<SortKey>& keys,
                   std::uint64_t limit);

class LocalExecutor {
 public:
  LocalExecutor(const MetaDataService& meta,
                std::vector<std::shared_ptr<ChunkStore>> stores)
      : meta_(meta), stores_(std::move(stores)) {}

  /// Materializes the view's rows.
  SubTable execute(const ViewDef& view) const;

  /// Rows of one base table under optional ranges, with chunk pruning.
  SubTable scan(TableId table, const std::vector<AttrRange>& ranges) const;

  /// The page-index graph of `left` join `right` on `attrs`, each side's
  /// sub-tables pruned by that side's ranges. Built from the R-trees on
  /// every call (a fraction of a millisecond for a thousand chunks a side)
  /// and kept nowhere: defining a view does no graph work. The local join
  /// and EXPLAIN both take their graph from here.
  ConnectivityGraph join_graph(TableId left,
                               const std::vector<AttrRange>& left_ranges,
                               TableId right,
                               const std::vector<AttrRange>& right_ranges,
                               const std::vector<std::string>& attrs) const;

 private:
  using PairSink = std::function<void(const SubTable&)>;

  /// Chunk `id` under `ranges`, read and extracted once.
  SubTable load(SubTableId id, const std::vector<AttrRange>& ranges) const;

  /// Runs `join` through the page index when both inputs are (selected)
  /// base tables, handing each pair's rows to `sink` in component order;
  /// false, with nothing run, otherwise.
  bool join_pairs(const ViewDef& join, const PairSink& sink) const;

  const MetaDataService& meta_;
  std::vector<std::shared_ptr<ChunkStore>> stores_;
};

}  // namespace orv
