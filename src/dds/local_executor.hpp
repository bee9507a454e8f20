#pragma once

// Local (single-process) view executor: runs any ViewDef tree directly
// against the chunk stores, with chunk-level pruning through the MetaData
// Service's R-trees for selections over base tables. This is the
// ingestion-free query path a scientist uses on a workstation; the
// simulated cluster path (dds/distributed.hpp) handles the join-view DDS
// at cluster scale.

#include <memory>
#include <vector>

#include "chunkio/chunk_store.hpp"
#include "dds/view_def.hpp"
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

 private:
  const MetaDataService& meta_;
  std::vector<std::shared_ptr<ChunkStore>> stores_;
};

}  // namespace orv
