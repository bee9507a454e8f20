#pragma once

// Distributed Derived Data Source: executes join-based views (and
// aggregations layered on them) on the simulated cluster. Join views run
// through a QesSession, where the Query Planning Service chooses between
// the IJ and GH Query Execution Services via the cost models (paper
// Section 4).

#include "dds/view_def.hpp"
#include "qes/scan_aggregate.hpp"
#include "qes/session.hpp"

namespace orv {

/// How a view runs on the DDS. Matching needs no cluster, so EXPLAIN and
/// DistributedDds classify a view the same way.
struct DdsShape {
  enum class Kind {
    Local,           // only the LocalExecutor runs it
    JoinView,        // a join view, served by IJ or GH
    AggregatedJoin,  // [Select]* Aggregate over a join view
    AggregatedScan,  // [Select]* Aggregate [Select]* BaseTable
  };
  Kind kind = Kind::Local;
  const ViewDef* sort = nullptr;       // top-level ORDER BY/LIMIT, if any
  JoinViewShape join;                  // JoinView, AggregatedJoin
  const ViewDef* aggregate = nullptr;  // AggregatedJoin, AggregatedScan
  AggregateQuery scan;                 // AggregatedScan
  std::vector<AttrRange> post_ranges;  // HAVING: after the central merge
};

/// Classifies `view`; a top-level Sort is peeled and applied centrally
/// after the distributed run.
DdsShape match_dds_view(const ViewDef& view);

struct DistributedRun {
  PlanDecision decision;   // what the QPS chose and why
  QesResult qes;           // virtual-time execution outcome
  GraphStats graph_stats;  // connectivity-graph statistics
};

class DistributedDds {
 public:
  DistributedDds(Cluster& cluster, BdsService& bds,
                 const MetaDataService& meta)
      : cluster_(cluster),
        bds_(bds),
        meta_(meta),
        session_(cluster, bds, meta, SessionConfig{.share_cache = false}) {}

  /// True when the view can run on this DDS (match_dds_view finds a
  /// distributed shape).
  bool supports(const ViewDef& view) const {
    return match_dds_view(view).kind != DdsShape::Kind::Local;
  }

  /// Plans and executes the view. For plain join views, `materialize`
  /// selects whether result rows are collected into `rows_out` (they are
  /// always counted and digested regardless). For Aggregate-over-join
  /// views, aggregation runs at the compute nodes, partial states merge
  /// centrally, and `rows_out` receives the (small) aggregate table.
  DistributedRun execute(const ViewDef& view, QesOptions options = {},
                         SubTable* rows_out = nullptr);

  /// The precomputed page-level join index cache (paper Section 4.1).
  PageIndexService& page_index() { return session_.page_index(); }

 private:
  /// A JoinView or AggregatedJoin shape, planned and run by the session.
  DistributedRun run_join(const DdsShape& shape, QesOptions options,
                          SubTable* rows_out);

  Cluster& cluster_;
  BdsService& bds_;
  const MetaDataService& meta_;
  /// Private per-query caches (share_cache off), as a single query has.
  QesSession session_;
};

}  // namespace orv
