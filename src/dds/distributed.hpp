#pragma once

// Distributed Derived Data Source: executes join-based views (and
// aggregations layered on them) on the simulated cluster. Join views run
// through a QesSession, where the Query Planning Service chooses between
// the IJ and GH Query Execution Services via the cost models (paper
// Section 4).

#include "dds/view_def.hpp"
#include "qes/session.hpp"

namespace orv {

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

  /// True when the view can run on this DDS (join-view shape, optionally
  /// under one Aggregate).
  bool supports(const ViewDef& view) const;

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
  Cluster& cluster_;
  BdsService& bds_;
  const MetaDataService& meta_;
  /// Private per-query caches (share_cache off), as a single query has.
  QesSession session_;
};

}  // namespace orv
