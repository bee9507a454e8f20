// Calibration ablation: plan with a mis-stated hardware spec, execute on
// the true (perturbed) cluster, feed the online calibrator one observation
// per run, and watch the cost model's error ratio collapse and the plan
// choice flip to the simulation's true winner.
//
// Setup: the planner believes HardwareProfile::paper_2006(); the cluster
// it actually runs on differs 2-4x — slower network, scratch disks and
// per-tuple CPU — so the spec-sheet model both mispredicts
// magnitudes and places the IJ/GH crossover in the wrong spot. The query
// stream is the fig4 ladder run twice (the second pass shows converged
// estimates on shapes seen once before).
//
// Modes: default prints the per-query table; `--out <path.json>` writes
// the series; `--check` exits nonzero unless (a) the geometric-mean error
// ratio over the queries after the first five improves >= 2x under
// calibration, (b) at least one wrong spec-sheet plan choice is corrected
// to the simulation winner, and (c) the diagnosis names the stage that
// dominates the trace critical path on both sides of the crossover.

#include <cmath>
#include <cstring>

#include "bench_util.hpp"
#include "cost/calibration.hpp"
#include "obs/calibrate.hpp"

namespace {

using namespace orv;
using namespace orv::bench;

/// max(pred/meas, meas/pred): symmetric error factor, >= 1.
double error_factor(double predicted, double measured) {
  if (predicted <= 0 || measured <= 0) return 1.0;
  return std::max(predicted / measured, measured / predicted);
}

struct RunOutcome {
  QesResult result;
  obs::QueryObservation observation;
  std::string dominant_stage;   // critical path's dominant segment class
  std::string diag_dominant;    // what the diagnosis engine named
};

/// Executes one algorithm on the true cluster under a private obs context,
/// reduces the run to a calibrator observation, and records both the
/// critical path's dominant stage and the diagnosis engine's verdict.
template <typename RunFn>
RunOutcome run_instrumented(const sim::Engine& engine, const std::string& label,
                            Algorithm algorithm, const PlanDecision& plan,
                            RunFn&& run) {
  obs::SimClock clock(engine);
  obs::ObsContext ctx(&clock);
  RunOutcome out;
  {
    obs::ScopedInstall install(ctx);
    out.result = run();
  }
  const bool ij = algorithm == Algorithm::IndexedJoin;
  QueryAnalysis analysis = analyze_query(ctx.tracer.snapshot(), algorithm,
                                         out.result, ij ? plan.ij : plan.gh,
                                         label);
  const obs::CriticalPath& cp = analysis.diag.path;
  out.observation =
      make_observation(plan.params, ij, out.result, ctx, cp, label);
  if (algorithm == Algorithm::GraceHash) {
    // Grace Hash interleaves transfer with spill per batch, so its
    // critical-path network seconds understate the transfer wall. Let the
    // Indexed Join runs teach the transfer bandwidths; GH still teaches
    // the spill/read/CPU parameters.
    out.observation.transfer_wall_seconds = 0;
  }
  if (cp.total > 0) {
    out.dominant_stage = obs::stage_name(cp.dominant());
    analysis.diag.series = ctx.time_series();
    const obs::Diagnosis diag = obs::diagnose(analysis.diag);
    out.diag_dominant = diag.dominant_stage;
    if (sinks().diag) print_diagnosis(diag);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace orv;
  using namespace orv::bench;
  print_banner("Calibration ablation",
               "online cost-model calibration on mis-stated hardware");
  const std::string out_path = parse_out_path(argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }
  SeriesJson series("ablation_calibration");

  // What the planner believes vs what the cluster actually is.
  ClusterSpec believed;
  believed.num_storage = 5;
  believed.num_compute = 5;

  ClusterSpec actual = believed;
  actual.hw.nic_bw /= 2.0;         // network half as fast as the spec sheet
  actual.hw.disk_read_bw /= 3.0;   // storage + scratch reads 3x slower
  actual.hw.disk_write_bw /= 2.5;  // scratch writes 2.5x slower
  actual.hw.gamma_build *= 2.0;    // hash insert 2x more expensive
  actual.hw.gamma_lookup *= 3.0;   // probe 3x more expensive

  QueryPlanner planner(believed);
  QesOptions qes;  // serial defaults: spans measure true device time
  obs::Calibrator calibrator(calibration_priors(
      CostParams::from(believed, ConnectivityStats{}, 1, 1, 1.0)));

  QesOptions qes_cal = qes;
  qes_cal.calibrator = &calibrator;

  std::printf("%3s %10s | %9s %9s %9s | %9s %9s %9s | %7s %7s | %-3s %-3s %-3s"
              " | %s\n",
              "q", "n_e*c_S", "prior IJ", "cal IJ", "sim IJ", "prior GH",
              "cal GH", "sim GH", "err_pri", "err_cal", "pri", "cal", "sim",
              "diag(dominant)");

  const std::uint64_t M = 32;
  const std::uint64_t w = 8;
  std::vector<double> prior_err, cal_err;  // per query, geo over IJ+GH
  std::size_t flips_corrected = 0;
  bool diag_ok_ij_side = false, diag_ok_gh_side = false;
  bool diag_mismatch = false;
  std::size_t q = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t s : {1, 2, 4, 8, 16, 32}) {
      DatasetSpec data;
      data.grid = {64, 64, 64};
      data.part1 = {M, M / s, w};
      data.part2 = {M / s, M, w};
      data.num_storage_nodes = actual.num_storage;
      auto ds = generate_dataset(data);
      JoinQuery query{data.table1_id, data.table2_id, {"x", "y", "z"}, {}};
      const auto graph = ConnectivityGraph::build(
          ds.meta, query.left_table, query.right_table, query.join_attrs);

      // Plan before executing: the calibrated decision carries the
      // spec-sheet plan as its prior, so one call yields both.
      const PlanDecision plan =
          planner.plan(ds.meta, graph, query, &qes_cal);
      const Algorithm prior_choice =
          plan.prior_ij.total() <= plan.prior_gh.total()
              ? Algorithm::IndexedJoin
              : Algorithm::GraceHash;

      // Ground truth: both algorithms on the true cluster.
      const std::string label = strformat("calib#%zu", q);
      RunOutcome ij, gh;
      {
        sim::Engine engine;
        Cluster cluster(engine, actual);
        BdsService bds(cluster, ds.meta, ds.stores);
        ij = run_instrumented(engine, label, Algorithm::IndexedJoin, plan,
                              [&] {
                                return run_indexed_join(cluster, bds, ds.meta,
                                                        graph, query, qes);
                              });
      }
      {
        sim::Engine engine;
        Cluster cluster(engine, actual);
        BdsService bds(cluster, ds.meta, ds.stores);
        gh = run_instrumented(engine, label, Algorithm::GraceHash, plan,
                              [&] {
                                return run_grace_hash(cluster, bds, ds.meta,
                                                      query, qes);
                              });
      }
      const double meas_ij = ij.result.elapsed;
      const double meas_gh = gh.result.elapsed;
      const Algorithm sim_winner = meas_ij <= meas_gh
                                       ? Algorithm::IndexedJoin
                                       : Algorithm::GraceHash;

      const double pe = std::sqrt(
          error_factor(plan.prior_ij.total(), meas_ij) *
          error_factor(plan.prior_gh.total(), meas_gh));
      const double ce = std::sqrt(error_factor(plan.ij.total(), meas_ij) *
                                  error_factor(plan.gh.total(), meas_gh));
      prior_err.push_back(pe);
      cal_err.push_back(ce);
      if (prior_choice != sim_winner && plan.chosen == sim_winner) {
        ++flips_corrected;
      }

      // Diagnosis consistency on the sim winner's side of the crossover.
      const RunOutcome& winner =
          sim_winner == Algorithm::IndexedJoin ? ij : gh;
      if (!winner.dominant_stage.empty()) {
        const bool match = winner.dominant_stage == winner.diag_dominant;
        diag_mismatch = diag_mismatch || !match;
        if (match && sim_winner == Algorithm::IndexedJoin) {
          diag_ok_ij_side = true;
        }
        if (match && sim_winner == Algorithm::GraceHash) {
          diag_ok_gh_side = true;
        }
      }

      const double ne_cs = static_cast<double>(ds.stats.num_edges) *
                           static_cast<double>(ds.stats.c_S);
      std::printf(
          "%3zu %10.0f | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f | %7.2f %7.2f "
          "| %-3s %-3s %-3s | %s:%s\n",
          q, ne_cs, plan.prior_ij.total(), plan.ij.total(), meas_ij,
          plan.prior_gh.total(), plan.gh.total(), meas_gh, pe, ce,
          prior_choice == Algorithm::IndexedJoin ? "IJ" : "GH",
          plan.chosen == Algorithm::IndexedJoin ? "IJ" : "GH",
          sim_winner == Algorithm::IndexedJoin ? "IJ" : "GH",
          winner.dominant_stage.c_str(), winner.diag_dominant.c_str());
      series.add_row(strformat(
          "{\"q\":%zu,\"ne_cs\":%.0f,"
          "\"prior_ij\":%.6f,\"cal_ij\":%.6f,\"sim_ij\":%.6f,"
          "\"prior_gh\":%.6f,\"cal_gh\":%.6f,\"sim_gh\":%.6f,"
          "\"prior_err\":%.4f,\"cal_err\":%.4f,"
          "\"prior_choice\":\"%s\",\"cal_choice\":\"%s\","
          "\"sim_winner\":\"%s\",\"dominant\":\"%s\"}",
          q, ne_cs, plan.prior_ij.total(), plan.ij.total(), meas_ij,
          plan.prior_gh.total(), plan.gh.total(), meas_gh, pe, ce,
          algorithm_name(prior_choice), algorithm_name(plan.chosen),
          algorithm_name(sim_winner), winner.dominant_stage.c_str()));

      // Learn from both runs (after planning: plan q sees only < q).
      calibrator.observe(ij.observation);
      calibrator.observe(gh.observation);
      ++q;
    }
  }

  // Converged-regime improvement: queries after the first five.
  double pri_geo = 0, cal_geo = 0;
  std::size_t tail = 0;
  for (std::size_t i = 5; i < prior_err.size(); ++i) {
    pri_geo += std::log(prior_err[i]);
    cal_geo += std::log(cal_err[i]);
    ++tail;
  }
  pri_geo = std::exp(pri_geo / static_cast<double>(tail));
  cal_geo = std::exp(cal_geo / static_cast<double>(tail));
  const double improvement = cal_geo > 0 ? pri_geo / cal_geo : 0.0;

  std::printf("\nCalibrated state after %llu observations: %s\n",
              (unsigned long long)calibrator.observed(),
              calibrator.state().to_json().c_str());
  std::printf("Geo-mean error factor (queries 5..%zu): prior %.2f, "
              "calibrated %.2f (%.1fx better)\n",
              prior_err.size() - 1, pri_geo, cal_geo, improvement);
  std::printf("Plan choices corrected to the sim winner: %zu\n",
              flips_corrected);

  series.add_row(strformat(
      "{\"summary\":true,\"prior_geo_err\":%.4f,\"cal_geo_err\":%.4f,"
      "\"improvement\":%.4f,\"flips_corrected\":%zu}",
      pri_geo, cal_geo, improvement, flips_corrected));
  if (!out_path.empty() && !series.write(out_path)) return 1;

  if (check) {
    bool ok = true;
    if (improvement < 2.0) {
      std::fprintf(stderr, "CHECK FAILED: error improvement %.2fx < 2x\n",
                   improvement);
      ok = false;
    }
    if (flips_corrected == 0) {
      std::fprintf(stderr, "CHECK FAILED: no plan choice corrected\n");
      ok = false;
    }
    if (!diag_ok_ij_side || !diag_ok_gh_side || diag_mismatch) {
      std::fprintf(stderr,
                   "CHECK FAILED: diagnosis/critical-path dominant stage "
                   "(ij side %d, gh side %d, mismatch %d)\n",
                   diag_ok_ij_side ? 1 : 0, diag_ok_gh_side ? 1 : 0,
                   diag_mismatch ? 1 : 0);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("CHECK PASSED: >=2x error reduction, %zu corrected plan "
                "choice(s), diagnosis matches the critical path on both "
                "sides of the crossover\n",
                flips_corrected);
  }
  return 0;
}
