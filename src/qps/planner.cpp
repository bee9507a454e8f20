#include "qps/planner.hpp"

#include "common/strings.hpp"
#include "cost/calibration.hpp"
#include "obs/calibrate.hpp"
#include "obs/obs.hpp"
#include "place/placement.hpp"

namespace orv {

namespace {

/// Prices both algorithms from the decision's params (and the prior
/// plan's, when calibrated) and picks the cheaper.
void price(PlanDecision& d) {
  d.ij = cost(Algorithm::IndexedJoin, d.params);
  d.gh = cost(Algorithm::GraceHash, d.params);
  d.chosen = d.ij.total() <= d.gh.total() ? Algorithm::IndexedJoin
                                          : Algorithm::GraceHash;
  if (d.calibrated) {
    d.prior_ij = cost(Algorithm::IndexedJoin, d.prior_params);
    d.prior_gh = cost(Algorithm::GraceHash, d.prior_params);
  }
}

/// Assembles the spec-sheet parameters, completes them with the executor
/// knobs, then derives the plan — and, with a calibrator, the prior plan —
/// from that one base.
PlanDecision decide(const ClusterSpec& cluster, const ConnectivityStats& data,
                    std::size_t rs_left, std::size_t rs_right,
                    double local_fraction, const QesOptions* qes) {
  obs::StageScope stage(obs::context(), "qps.plan");
  // cpu_work_factor k repeats every hash charge k times; the cost model
  // takes CPU *speed*, so it prices a CPU 1/k as fast.
  const double cpu_factor = qes != nullptr && qes->cpu_work_factor > 0
                                ? 1.0 / qes->cpu_work_factor
                                : 1.0;
  CostParams base =
      CostParams::from(cluster, data, rs_left, rs_right, cpu_factor);
  base.local_fraction = local_fraction;
  PlanDecision d;
  if (qes != nullptr) {
    base.batch_bytes = static_cast<double>(qes->batch_bytes);
    base.bucket_pair_bytes = static_cast<double>(qes->bucket_pair_bytes);
    base.prefetch_lookahead = static_cast<double>(qes->prefetch_lookahead);
    base.gh_double_buffer = qes->gh_double_buffer;
    d.pipelined = qes->pipelined();
  }
  d.params = base;
  if (qes != nullptr && qes->calibrator != nullptr) {
    // Re-plan with the calibrator's learned hardware parameters; the
    // spec-sheet plan is kept as the prior so validation can report the
    // pre/post error ratio.
    d.calibrated = true;
    d.prior_params = base;
    d.params = apply_calibration(base, qes->calibrator->state());
    stage.tag("calibrated", std::uint64_t{1});
  }
  price(d);
  stage.tag("chosen", std::string(algorithm_name(d.chosen)));
  return d;
}

}  // namespace

std::string PlanDecision::to_string() const {
  return strformat("choose %s%s: IJ %s | GH %s", algorithm_name(chosen),
                   pipelined ? " (pipelined)" : "", ij.to_string().c_str(),
                   gh.to_string().c_str());
}

PlanDecision QueryPlanner::plan(const ConnectivityStats& data,
                                std::size_t rs_left, std::size_t rs_right,
                                const QesOptions* qes) const {
  return decide(cluster_, data, rs_left, rs_right, 0.0, qes);
}

PlanDecision QueryPlanner::plan(const MetaDataService& meta,
                                const ConnectivityGraph& graph,
                                const JoinQuery& query,
                                const QesOptions* qes) const {
  ConnectivityStats data;
  data.T = meta.table_rows(query.left_table);
  const std::size_t n_left = meta.num_chunks(query.left_table);
  const std::size_t n_right = meta.num_chunks(query.right_table);
  data.c_R = n_left ? data.T / n_left : 0;
  data.c_S = n_right ? meta.table_rows(query.right_table) / n_right : 0;
  data.num_edges = graph.num_edges();
  data.num_components = graph.num_components();
  double local_fraction = 0.0;
  if (cluster_.colocated && qes != nullptr &&
      qes->assign == ComponentAssign::PlacementAffinity) {
    // Locality-aware refinement: predict the placement-affinity schedule
    // the executor will build, measure what fraction of its first-touch
    // bytes stay node-local, and fold that into the IJ transfer term. GH
    // always shuffles through the switch, so only IJ reads it; the prior
    // plan of a calibrated decision is refined the same way.
    const Schedule predicted = make_schedule_placement_affinity(
        graph, cluster_.num_compute, meta, cluster_.num_storage,
        qes->pair_order, qes->seed);
    local_fraction =
        schedule_local_fraction(predicted, meta, cluster_.num_storage);
  }
  return decide(cluster_, data,
                meta.table_schema(query.left_table)->record_size(),
                meta.table_schema(query.right_table)->record_size(),
                local_fraction, qes);
}

}  // namespace orv
