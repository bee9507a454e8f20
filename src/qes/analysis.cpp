#include "qes/analysis.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace orv {

obs::PlanValidation plan_validation(const PlanDecision& plan,
                                    Algorithm executed,
                                    const QesResult& result,
                                    std::string label) {
  const bool ij = executed == Algorithm::IndexedJoin;
  obs::PlanValidation pv;
  pv.query = std::move(label);
  pv.chosen = algorithm_name(plan.chosen);
  pv.executed = algorithm_name(executed);
  pv.predicted_ij = plan.ij.total();
  pv.predicted_gh = plan.gh.total();
  pv.predicted = ij ? pv.predicted_ij : pv.predicted_gh;
  pv.measured = result.elapsed;
  pv.calibrated = plan.calibrated;
  if (plan.calibrated) {
    pv.predicted_prior = (ij ? plan.prior_ij : plan.prior_gh).total();
  }
  return pv;
}

obs::DiagnosisInput diagnosis_input(std::string label, Algorithm algorithm,
                                    const QesResult& result) {
  obs::DiagnosisInput di;
  di.query = std::move(label);
  di.algorithm = algorithm_name(algorithm);
  di.elapsed = result.elapsed;
  for (const auto& nw : result.node_work) {
    di.nodes.push_back({nw.node, nw.busy_seconds, nw.items, nw.bytes});
  }
  di.fetch_retries = result.fetch_retries;
  di.pairs_reassigned = result.pairs_reassigned;
  di.rows_repartitioned = result.rows_repartitioned;
  di.nodes_lost = result.compute_nodes_lost;
  di.degraded = result.degraded;
  di.cache_hits = result.cache_stats.hits;
  di.cache_misses = result.cache_stats.misses;
  di.cache_evictions = result.cache_stats.evictions;
  di.cache_puts = result.cache_stats.puts;
  di.prefetch_issued = result.prefetch_issued;
  di.prefetch_wasted = result.prefetch_wasted;
  return di;
}

QueryAnalysis analyze_query(std::vector<obs::SpanRecord> spans,
                            Algorithm algorithm, const QesResult& result,
                            const CostBreakdown& model, std::string label) {
  QueryAnalysis a;
  a.diag = diagnosis_input(std::move(label), algorithm, result);
  const auto dag = obs::TraceDag::assemble(std::move(spans));
  const char* root_name =
      algorithm == Algorithm::IndexedJoin ? "ij.query" : "gh.query";
  obs::SpanId root;
  for (const auto& s : dag.spans()) {
    if (s.name == root_name) root = s.id;
  }
  a.diag.path = obs::critical_path(dag, root);
  if (a.diag.path.segments.empty()) return a;

  // What the model hides via `overlap` the trace shows as genuine
  // off-critical-path time, so the per-stage ratios stay meaningful for
  // pipelined runs too.
  const std::pair<obs::Stage, double> terms[] = {
      {obs::Stage::Network, model.transfer},
      {obs::Stage::Disk, model.read},
      {obs::Stage::Spill, model.write},
      {obs::Stage::Cpu, model.cpu()},
      {obs::Stage::CacheWait, 0.0},
      {obs::Stage::Other, 0.0},
  };
  for (const auto& [stage, predicted] : terms) {
    a.stages.push_back({obs::stage_name(stage), predicted,
                        a.diag.path.stage_seconds(stage)});
  }
  return a;
}

}  // namespace orv
