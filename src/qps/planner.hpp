#pragma once

// Query Planning Service (paper Section 4): chooses between Query
// Execution Systems (Indexed Join vs Grace Hash) using the Section 5 cost
// models, given dataset parameters, system parameters and the query.

#include <string>

#include "cost/cost_model.hpp"
#include "graph/connectivity.hpp"
#include "qes/qes.hpp"

namespace orv {

struct PlanDecision {
  Algorithm chosen = Algorithm::IndexedJoin;
  CostBreakdown ij;
  CostBreakdown gh;
  CostParams params;
  /// True when an overlap pipeline (QesOptions::pipelined()) was priced.
  bool pipelined = false;

  /// Set when QesOptions::calibrator replaced the spec-sheet parameters
  /// with the calibrator's learned ones: `params`/`ij`/`gh` then hold the
  /// calibrated plan, and the prior (uncalibrated) plan is kept here so
  /// validation can report the before/after error ratio. Both plans start
  /// from the same spec-sheet parameters.
  bool calibrated = false;
  CostParams prior_params;
  CostBreakdown prior_ij;
  CostBreakdown prior_gh;

  double predicted_seconds() const {
    return chosen == Algorithm::IndexedJoin ? ij.total() : gh.total();
  }
  std::string to_string() const;
};

class QueryPlanner {
 public:
  explicit QueryPlanner(ClusterSpec cluster) : cluster_(std::move(cluster)) {}

  /// Plans from precomputed dataset statistics (closed-form path). When
  /// `qes` is given, its knobs (prefetch_lookahead, gh_double_buffer,
  /// batch_bytes, bucket_pair_bytes) parameterize the priced model, so an
  /// enabled overlap pipeline (QesOptions::pipelined()) is priced as
  /// max-of-stages for the corresponding algorithm, and its
  /// cpu_work_factor k prices a CPU 1/k as fast (Fig. 8). The flush
  /// threshold of the spec's aggregation config, if any, prices the
  /// per-frame overhead.
  PlanDecision plan(const ConnectivityStats& data, std::size_t rs_left,
                    std::size_t rs_right,
                    const QesOptions* qes = nullptr) const;

  /// Plans from live metadata + the connectivity graph (measured path):
  /// derives T, c_R, c_S, n_e from what is actually stored. On a colocated
  /// cluster with placement-affinity scheduling, the predicted schedule's
  /// node-local byte fraction refines the IJ transfer term.
  PlanDecision plan(const MetaDataService& meta,
                    const ConnectivityGraph& graph, const JoinQuery& query,
                    const QesOptions* qes = nullptr) const;

  const ClusterSpec& cluster() const { return cluster_; }

 private:
  ClusterSpec cluster_;
};

}  // namespace orv
