// Query Planning Service: decisions follow the cost models, the measured
// (metadata-driven) path agrees with the closed-form path, and the chosen
// algorithm is never slower than the rejected one by more than the model
// error across a scenario sweep. A calibrated plan's PlanValidation keeps
// its prior prediction.

#include "qps/planner.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "datagen/generator.hpp"
#include "net/aggregator.hpp"
#include "obs/calibrate.hpp"
#include "qes/analysis.hpp"
#include "qes/session.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

TEST(Planner, PicksIjForLowNeCs) {
  DatasetSpec data;
  data.grid = {32, 32, 32};
  data.part1 = {8, 8, 8};
  data.part2 = {8, 8, 8};
  QueryPlanner planner((ClusterSpec()));
  const auto d = planner.plan(analyze(data), 16, 16);
  EXPECT_EQ(d.chosen, Algorithm::IndexedJoin);
  EXPECT_LT(d.ij.total(), d.gh.total());
  EXPECT_DOUBLE_EQ(d.predicted_seconds(), d.ij.total());
}

TEST(Planner, PicksGhForHighNeCs) {
  DatasetSpec data;
  data.grid = {64, 64, 64};
  data.part1 = {32, 1, 8};  // s = 32: n_e*c_S = 32T, far past crossover
  data.part2 = {1, 32, 8};
  QueryPlanner planner((ClusterSpec()));
  const auto d = planner.plan(analyze(data), 16, 16);
  EXPECT_EQ(d.chosen, Algorithm::GraceHash);
  EXPECT_DOUBLE_EQ(d.predicted_seconds(), d.gh.total());
}

TEST(Planner, MeasuredPathAgreesWithClosedForm) {
  // The benches price every scenario through the measured path, so it must
  // reproduce the closed-form plan exactly, serial and pipelined alike.
  DatasetSpec data;
  data.grid = {16, 16, 16};
  data.part1 = {8, 4, 8};
  data.part2 = {4, 8, 8};
  data.num_storage_nodes = 3;
  auto ds = generate_dataset(data);
  const auto graph =
      ConnectivityGraph::build(ds.meta, 1, 2, {"x", "y", "z"});
  ClusterSpec cspec;
  cspec.num_storage = 3;
  cspec.num_compute = 2;
  QueryPlanner planner(cspec);
  JoinQuery query{1, 2, {"x", "y", "z"}, {}};

  QesOptions serial;
  QesOptions pipelined;
  pipelined.prefetch_lookahead = 4;
  pipelined.gh_double_buffer = true;
  const std::pair<const char*, const QesOptions*> cases[] = {
      {"none", nullptr}, {"serial", &serial}, {"pipelined", &pipelined}};
  for (const auto& [name, base] : cases) {
    for (double work_factor : {1.0, 2.0}) {
      SCOPED_TRACE(testing::Message() << "options " << name
                                      << ", cpu_work_factor " << work_factor);
      // A work factor needs options to ride on: "none" at k = 2 plans
      // with the defaults, which price exactly like no options.
      QesOptions opts = base != nullptr ? *base : QesOptions{};
      opts.cpu_work_factor = work_factor;
      const QesOptions* qes =
          base == nullptr && work_factor == 1.0 ? nullptr : &opts;
      const auto measured = planner.plan(ds.meta, graph, query, qes);
      const auto closed = planner.plan(ds.stats, 16, 16, qes);
      EXPECT_EQ(measured.chosen, closed.chosen);
      EXPECT_TRUE(measured.params == closed.params)
          << measured.params.to_string() << " vs "
          << closed.params.to_string();
      EXPECT_EQ(measured.ij.total(), closed.ij.total());
      EXPECT_EQ(measured.gh.total(), closed.gh.total());
    }
  }
}

TEST(Planner, CpuFactorShiftsDecision) {
  // A dataset near the crossover flips with computing power (Fig. 8).
  DatasetSpec data;
  data.grid = {64, 64, 64};
  data.part1 = {32, 2, 8};  // s = 16, near the 2006 crossover
  data.part2 = {2, 32, 8};
  QueryPlanner planner((ClusterSpec()));
  const auto stats = analyze(data);
  QesOptions slow_cpu;
  slow_cpu.cpu_work_factor = 8.0;  // 1/8 of the computing power
  QesOptions fast_cpu;
  fast_cpu.cpu_work_factor = 0.125;  // 8x the computing power
  const auto slow = planner.plan(stats, 16, 16, &slow_cpu);
  const auto fast = planner.plan(stats, 16, 16, &fast_cpu);
  EXPECT_EQ(slow.chosen, Algorithm::GraceHash);
  EXPECT_EQ(fast.chosen, Algorithm::IndexedJoin);
}

TEST(Planner, ExecuteRunsChosenAlgorithm) {
  DatasetSpec data;
  data.grid = {8, 8, 8};
  data.part1 = {4, 4, 4};
  data.part2 = {4, 4, 4};
  data.num_storage_nodes = 2;
  auto ds = generate_dataset(data);
  ClusterSpec cspec;
  cspec.num_storage = 2;
  cspec.num_compute = 2;
  sim::Engine engine;
  Cluster cluster(engine, cspec);
  BdsService bds(cluster, ds.meta, ds.stores);
  QesSession session(cluster, bds, ds.meta,
                     SessionConfig{.share_cache = false});
  JoinQuery query{1, 2, {"x", "y", "z"}, {}};
  const auto outcome = session.run(query, {});
  const PlanDecision& decision = outcome.plan;
  const QesResult& result = outcome.result;
  EXPECT_EQ(outcome.algorithm, decision.chosen);
  EXPECT_EQ(result.result_tuples, 512u);
  // IJ was chosen here (low n_e*c_S) -> no bucket I/O happened.
  EXPECT_EQ(decision.chosen, Algorithm::IndexedJoin);
  EXPECT_DOUBLE_EQ(result.scratch_write_bytes, 0.0);
}

TEST(Planner, PipelinedOptionsSelectPipelinedModels) {
  DatasetSpec data;
  data.grid = {32, 32, 32};
  data.part1 = {8, 8, 8};
  data.part2 = {8, 8, 8};
  QueryPlanner planner((ClusterSpec()));
  const auto stats = analyze(data);
  const auto serial = planner.plan(stats, 16, 16);
  EXPECT_FALSE(serial.pipelined);

  QesOptions qes;
  qes.prefetch_lookahead = 4;
  qes.gh_double_buffer = true;
  const auto pipe = planner.plan(stats, 16, 16, &qes);
  EXPECT_TRUE(pipe.pipelined);
  EXPECT_NE(pipe.to_string().find("(pipelined)"), std::string::npos);
  // Overlap strictly lowers both predictions; stage terms are unchanged.
  EXPECT_LT(pipe.ij.total(), serial.ij.total());
  EXPECT_LT(pipe.gh.total(), serial.gh.total());
  EXPECT_DOUBLE_EQ(pipe.ij.transfer, serial.ij.transfer);
  EXPECT_DOUBLE_EQ(pipe.gh.write, serial.gh.write);

  // Per-knob selection: only the enabled pipeline's model switches.
  QesOptions ij_only;
  ij_only.prefetch_lookahead = 4;
  const auto d_ij = planner.plan(stats, 16, 16, &ij_only);
  EXPECT_LT(d_ij.ij.total(), serial.ij.total());
  EXPECT_DOUBLE_EQ(d_ij.gh.total(), serial.gh.total());

  QesOptions gh_only;
  gh_only.gh_double_buffer = true;
  const auto d_gh = planner.plan(stats, 16, 16, &gh_only);
  EXPECT_DOUBLE_EQ(d_gh.ij.total(), serial.ij.total());
  EXPECT_LT(d_gh.gh.total(), serial.gh.total());
}

TEST(Planner, ColocatedPlacementAffinityLowersPredictedIj) {
  // Asymmetric partitions on a colocated cluster: graph-partitioned
  // placement plus placement-affinity scheduling makes every fetch local,
  // and the planner's locality refinement must see it.
  DatasetSpec data;
  data.grid = {32, 32, 32};
  data.part1 = {8, 8, 8};
  data.part2 = {4, 4, 4};
  data.num_storage_nodes = 3;
  data.placement = Placement::GraphPartitioned;
  auto ds = generate_dataset(data);
  const auto graph =
      ConnectivityGraph::build(ds.meta, 1, 2, {"x", "y", "z"});
  ClusterSpec cspec;
  cspec.num_storage = 3;
  cspec.num_compute = 3;
  cspec.colocated = true;
  QueryPlanner planner(cspec);
  JoinQuery query{1, 2, {"x", "y", "z"}, {}};

  QesOptions plain;
  const auto base = planner.plan(ds.meta, graph, query, &plain);
  EXPECT_DOUBLE_EQ(base.params.local_fraction, 0.0);

  QesOptions affine;
  affine.assign = ComponentAssign::PlacementAffinity;
  const auto local = planner.plan(ds.meta, graph, query, &affine);
  EXPECT_GT(local.params.local_fraction, 0.0);
  EXPECT_LE(local.params.local_fraction, 1.0);
  EXPECT_LT(local.ij.total(), base.ij.total());
  EXPECT_DOUBLE_EQ(local.gh.total(), base.gh.total());  // GH untouched

  // On a split cluster the same options are a no-op for the model.
  cspec.colocated = false;
  QueryPlanner split(cspec);
  const auto split_plan = split.plan(ds.meta, graph, query, &affine);
  EXPECT_DOUBLE_EQ(split_plan.params.local_fraction, 0.0);
  EXPECT_DOUBLE_EQ(split_plan.ij.total(), base.ij.total());
}

TEST(Planner, AggFlushKnobFlowsIntoThePricedParams) {
  DatasetSpec data;
  data.grid = {32, 32, 32};
  data.part1 = {8, 8, 8};
  data.part2 = {8, 8, 8};
  const auto stats = analyze(data);
  ClusterSpec cspec;
  cspec.hw.net_msg_overhead = 1e-3;
  QueryPlanner planner(cspec);

  QesOptions plain;
  const auto base = planner.plan(stats, 16, 16, &plain);
  EXPECT_DOUBLE_EQ(base.params.agg_flush_batches, 1.0);

  // The planner prices the aggregation config of the spec it is given.
  ClusterSpec aggregated = cspec;
  aggregated.aggregation.emplace();
  aggregated.aggregation->flush_batches = 16;
  const auto priced = QueryPlanner(aggregated).plan(stats, 16, 16, &plain);
  EXPECT_DOUBLE_EQ(priced.params.agg_flush_batches, 16.0);
  // A nonzero gamma means aggregation makes GH strictly cheaper.
  EXPECT_LT(priced.gh.total(), base.gh.total());

  // Another cluster aggregating at 16 in the same process leaves a planner
  // over a spec without aggregation pricing the unaggregated network.
  sim::Engine engine;
  Cluster other(engine, aggregated);
  ASSERT_NE(other.aggregator(), nullptr);
  const auto beside = planner.plan(stats, 16, 16, &plain);
  EXPECT_DOUBLE_EQ(beside.params.agg_flush_batches, 1.0);
  EXPECT_DOUBLE_EQ(beside.gh.total(), base.gh.total());
}

TEST(Planner, CalibratedPlanTakesLearnedParamsAndKeepsTheSpecSheetPrior) {
  DatasetSpec data;
  data.grid = {32, 32, 32};
  data.part1 = {8, 8, 8};
  data.part2 = {8, 8, 8};
  const auto stats = analyze(data);
  ClusterSpec cspec;
  QueryPlanner planner(cspec);
  const CostParams spec = CostParams::from(cspec, stats, 16, 16);

  // A calibrator that has learned only the network bandwidth: every other
  // parameter of the calibrated plan is the spec sheet's.
  obs::CalibrationState learned;
  learned.net_bw = 0.5 * spec.net_bw;
  obs::Calibrator calibrator(learned);
  QesOptions qes;
  qes.calibrator = &calibrator;

  const auto d = planner.plan(stats, 16, 16, &qes);
  ASSERT_TRUE(d.calibrated);
  // Unlearned parameters: the spec sheet's.
  EXPECT_DOUBLE_EQ(d.params.read_io_bw, spec.read_io_bw);
  EXPECT_DOUBLE_EQ(d.params.write_io_bw, spec.write_io_bw);
  EXPECT_DOUBLE_EQ(d.params.alpha_build, spec.alpha_build);
  EXPECT_DOUBLE_EQ(d.params.alpha_lookup, spec.alpha_lookup);
  // The learned parameter.
  EXPECT_DOUBLE_EQ(d.params.net_bw, learned.net_bw);
  // The prior plan is the spec sheet.
  EXPECT_DOUBLE_EQ(d.prior_params.read_io_bw, spec.read_io_bw);
  EXPECT_DOUBLE_EQ(d.prior_params.net_bw, spec.net_bw);
  EXPECT_DOUBLE_EQ(d.prior_params.alpha_build, spec.alpha_build);
}

TEST(Planner, PlanValidationOfACalibratedPlanKeepsThePriorPrediction) {
  DatasetSpec data;
  data.grid = {32, 32, 32};
  data.part1 = {8, 8, 8};
  data.part2 = {8, 8, 8};
  const auto stats = analyze(data);
  ClusterSpec cspec;
  QueryPlanner planner(cspec);
  obs::CalibrationState learned;
  learned.net_bw = 0.5 * CostParams::from(cspec, stats, 16, 16).net_bw;
  obs::Calibrator calibrator(learned);
  QesOptions qes;
  qes.calibrator = &calibrator;
  QesResult run;
  run.elapsed = 1.25;

  const auto d = planner.plan(stats, 16, 16, &qes);
  ASSERT_TRUE(d.calibrated);
  // A forced Grace Hash run: the record prices what ran, under both the
  // calibrated and the prior (spec-sheet) parameters.
  const obs::PlanValidation pv =
      plan_validation(d, Algorithm::GraceHash, run, "q7");
  EXPECT_EQ(pv.query, "q7");
  EXPECT_EQ(pv.chosen, algorithm_name(d.chosen));
  EXPECT_EQ(pv.executed, algorithm_name(Algorithm::GraceHash));
  EXPECT_DOUBLE_EQ(pv.predicted_ij, d.ij.total());
  EXPECT_DOUBLE_EQ(pv.predicted_gh, d.gh.total());
  EXPECT_DOUBLE_EQ(pv.predicted, d.gh.total());
  EXPECT_DOUBLE_EQ(pv.measured, 1.25);
  EXPECT_TRUE(pv.calibrated);
  EXPECT_DOUBLE_EQ(pv.predicted_prior, d.prior_gh.total());
  EXPECT_NE(pv.predicted_prior, pv.predicted);

  // An uncalibrated plan records no prior prediction.
  const obs::PlanValidation plain = plan_validation(
      planner.plan(stats, 16, 16), Algorithm::IndexedJoin, run, "q8");
  EXPECT_FALSE(plain.calibrated);
  EXPECT_DOUBLE_EQ(plain.predicted_prior, 0.0);
  EXPECT_DOUBLE_EQ(plain.prior_error_ratio(), 0.0);
}

// Sweep: whatever the planner picks must indeed be the faster algorithm in
// simulation (within a slack factor for model error) across shapes.
struct PlanCase {
  Dim3 p, q;
};
class PlannerAgreement : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlannerAgreement, ChoiceIsSimulationWinnerOrClose) {
  DatasetSpec data;
  data.grid = {32, 32, 32};
  data.part1 = GetParam().p;
  data.part2 = GetParam().q;
  data.num_storage_nodes = 5;
  auto ds = generate_dataset(data);
  ClusterSpec cspec;
  QueryPlanner planner(cspec);
  const auto d = planner.plan(ds.stats, 16, 16);

  JoinQuery query{1, 2, {"x", "y", "z"}, {}};
  const auto graph =
      ConnectivityGraph::build(ds.meta, 1, 2, query.join_attrs);
  double sim_ij = 0;
  double sim_gh = 0;
  {
    sim::Engine engine;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    sim_ij =
        run_indexed_join(cluster, bds, ds.meta, graph, query).elapsed;
  }
  {
    sim::Engine engine;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    sim_gh = run_grace_hash(cluster, bds, ds.meta, query).elapsed;
  }
  const double chosen =
      d.chosen == Algorithm::IndexedJoin ? sim_ij : sim_gh;
  const double other =
      d.chosen == Algorithm::IndexedJoin ? sim_gh : sim_ij;
  EXPECT_LT(chosen, 1.25 * other)
      << "planner picked " << algorithm_name(d.chosen) << " but sim says IJ="
      << sim_ij << " GH=" << sim_gh;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlannerAgreement,
    ::testing::Values(PlanCase{{8, 8, 8}, {8, 8, 8}},
                      PlanCase{{16, 4, 8}, {4, 16, 8}},
                      PlanCase{{16, 1, 8}, {1, 16, 8}},
                      PlanCase{{16, 16, 16}, {4, 4, 4}},
                      PlanCase{{32, 4, 4}, {4, 32, 4}}));

}  // namespace
}  // namespace orv
