#pragma once

// The three workloads. Each fills the report with its end-to-end metrics
// (untraced run) or its per-layer metrics (traced run), and with one
// checked operation per timed query.

#include "common.hpp"
#include "graph/connectivity.hpp"
#include "meta/metadata.hpp"

namespace perfbench {

void run_fig4_sweep(const Options& options, Report& report);
void run_views_local(const Options& options, Report& report);
void run_session_mix(const Options& options, Report& report);

/// One dataset whose connectivity graph the join replay walks.
struct ReplaySource {
  const orv::MetaDataService& meta;
  const std::vector<std::shared_ptr<orv::ChunkStore>>& stores;
  const orv::ConnectivityGraph& graph;
  const std::vector<std::string>& join_attrs;
};

/// Reports join.build_ns_per_tuple, join.probe_ns_per_tuple and
/// subtable.fingerprint_ns_per_row from replaying the graphs' pairs
/// through the public hash-join kernel (at most 4096 pairs per source).
void report_join_replay(Report& report,
                        const std::vector<ReplaySource>& sources);

}  // namespace perfbench
