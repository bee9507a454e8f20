// Cost-model <-> calibrator bridge: prior seeding, the apply rules that
// keep the paper path byte-identical (empty state is a no-op, local bus
// never invented, msg_overhead only once observed), and the reduction of
// a real instrumented run to a QueryObservation.

#include "cost/calibration.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "bds/bds.hpp"
#include "datagen/generator.hpp"
#include "graph/connectivity.hpp"
#include "net/aggregator.hpp"
#include "obs/obs.hpp"
#include "obs/sim_clock.hpp"
#include "qes/analysis.hpp"
#include "qes/qes.hpp"
#include "qps/planner.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

CostParams sample_params() {
  ClusterSpec spec;
  spec.num_storage = 5;
  spec.num_compute = 5;
  ConnectivityStats stats;
  stats.T = 1024;
  stats.c_R = 64;
  stats.c_S = 64;
  stats.num_edges = 256;
  return CostParams::from(spec, stats, 32, 32, 1.0);
}

TEST(CalibrationBridge, PriorsMirrorTheCostParams) {
  const CostParams p = sample_params();
  const obs::CalibrationState s = calibration_priors(p);
  EXPECT_DOUBLE_EQ(s.read_io_bw, p.read_io_bw);
  EXPECT_DOUBLE_EQ(s.write_io_bw, p.write_io_bw);
  EXPECT_DOUBLE_EQ(s.net_bw, p.net_bw);
  EXPECT_DOUBLE_EQ(s.local_bus_bw, p.local_bw);
  EXPECT_DOUBLE_EQ(s.alpha_build, p.alpha_build);
  EXPECT_DOUBLE_EQ(s.alpha_lookup, p.alpha_lookup);
  EXPECT_EQ(s.queries_observed, 0u);
}

TEST(CalibrationBridge, EmptyStateIsANoOp) {
  const CostParams before = sample_params();
  const CostParams after = apply_calibration(before, obs::CalibrationState{});
  EXPECT_DOUBLE_EQ(after.read_io_bw, before.read_io_bw);
  EXPECT_DOUBLE_EQ(after.write_io_bw, before.write_io_bw);
  EXPECT_DOUBLE_EQ(after.net_bw, before.net_bw);
  EXPECT_DOUBLE_EQ(after.alpha_build, before.alpha_build);
  EXPECT_DOUBLE_EQ(after.alpha_lookup, before.alpha_lookup);
  EXPECT_DOUBLE_EQ(after.msg_overhead, before.msg_overhead);
  // Same plan either way.
  EXPECT_DOUBLE_EQ(cost(Algorithm::IndexedJoin, after).total(),
                   cost(Algorithm::IndexedJoin, before).total());
  EXPECT_DOUBLE_EQ(cost(Algorithm::GraceHash, after).total(),
                   cost(Algorithm::GraceHash, before).total());
}

TEST(CalibrationBridge, PositiveFieldsOverrideHardwareOnly) {
  const CostParams before = sample_params();
  obs::CalibrationState s;
  s.read_io_bw = 11e6;
  s.alpha_lookup = 5e-7;
  const CostParams after = apply_calibration(before, s);
  EXPECT_DOUBLE_EQ(after.read_io_bw, 11e6);
  EXPECT_DOUBLE_EQ(after.alpha_lookup, 5e-7);
  // Unset fields keep the spec-sheet values; dataset parameters are never
  // touched.
  EXPECT_DOUBLE_EQ(after.net_bw, before.net_bw);
  EXPECT_DOUBLE_EQ(after.alpha_build, before.alpha_build);
  EXPECT_DOUBLE_EQ(after.T, before.T);
  EXPECT_DOUBLE_EQ(after.n_e, before.n_e);
}

TEST(CalibrationBridge, CalibratedBusNeverInventsALocalBus) {
  CostParams p = sample_params();
  ASSERT_DOUBLE_EQ(p.local_bw, 0.0);  // non-colocated cluster: no bus
  obs::CalibrationState s;
  s.local_bus_bw = 300e6;
  EXPECT_DOUBLE_EQ(apply_calibration(p, s).local_bw, 0.0);
  p.local_bw = 400e6;  // colocated: the bus exists, so calibrate it
  EXPECT_DOUBLE_EQ(apply_calibration(p, s).local_bw, 300e6);
}

TEST(CalibrationBridge, MsgOverheadAppliesOnlyOnceObserved) {
  CostParams p = sample_params();
  p.msg_overhead = 0.002;  // operator-set prior
  obs::CalibrationState s;  // msg_overhead 0, nothing observed
  EXPECT_DOUBLE_EQ(apply_calibration(p, s).msg_overhead, 0.002);
  s.queries_observed = 1;  // calibrated honest zero replaces the guess
  EXPECT_DOUBLE_EQ(apply_calibration(p, s).msg_overhead, 0.0);
}

/// End-to-end reduction: run each algorithm instrumented on a small
/// simulated cluster and check the observation carries physically
/// consistent measurements.
obs::QueryObservation observe_run(
    bool indexed_join, const net::AggregatorConfig* agg_cfg = nullptr) {
  DatasetSpec data;
  data.grid = {16, 16, 8};
  data.part1 = {4, 4, 4};
  data.part2 = {4, 4, 4};
  ClusterSpec cspec;
  cspec.num_storage = 2;
  cspec.num_compute = 3;
  data.num_storage_nodes = cspec.num_storage;
  auto ds = generate_dataset(data);
  JoinQuery query{data.table1_id, data.table2_id, {"x", "y", "z"}, {}};
  const auto graph = ConnectivityGraph::build(
      ds.meta, query.left_table, query.right_table, query.join_attrs);
  const CostParams prior =
      CostParams::from(cspec, ds.stats, table1_schema(data)->record_size(),
                       table2_schema(data)->record_size(), 1.0);

  sim::Engine engine;
  obs::SimClock clock(engine);
  obs::ObsContext ctx(&clock);
  QesResult result;
  {
    obs::ScopedInstall install(ctx);
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    std::optional<net::MessageAggregator> agg;
    std::optional<net::ScopedAggregator> scoped;
    if (agg_cfg != nullptr) {
      agg.emplace(cluster, *agg_cfg);
      scoped.emplace(*agg);
    }
    result = indexed_join
                 ? run_indexed_join(cluster, bds, ds.meta, graph, query, {})
                 : run_grace_hash(cluster, bds, ds.meta, query, {});
  }
  const Algorithm algorithm =
      indexed_join ? Algorithm::IndexedJoin : Algorithm::GraceHash;
  const QueryAnalysis analysis = analyze_query(
      ctx.tracer.snapshot(), algorithm, result, cost(algorithm, prior));
  return make_observation(prior, indexed_join, result, ctx,
                          analysis.diag.path, "t");
}

TEST(CalibrationBridge, IndexedJoinRunReducesToObservation) {
  const obs::QueryObservation o = observe_run(true);
  EXPECT_TRUE(o.indexed_join);
  EXPECT_FALSE(o.degraded);
  EXPECT_GT(o.build_tuples, 0u);
  EXPECT_GT(o.probe_tuples, 0u);
  EXPECT_GT(o.build_seconds, 0.0);
  EXPECT_GT(o.probe_seconds, 0.0);
  EXPECT_GT(o.transfer_bytes, 0.0);
  EXPECT_GT(o.transfer_wall_seconds, 0.0);
  // IJ never spills.
  EXPECT_DOUBLE_EQ(o.spill_bytes, 0.0);
  EXPECT_DOUBLE_EQ(o.read_bytes, 0.0);
  EXPECT_DOUBLE_EQ(o.n_s, 2.0);
  EXPECT_DOUBLE_EQ(o.n_j, 3.0);
}

TEST(CalibrationBridge, GraceHashRunReducesToObservation) {
  const obs::QueryObservation o = observe_run(false);
  EXPECT_FALSE(o.indexed_join);
  // Fused gh.join seconds are split between build and probe by the prior
  // per-tuple weights: both shares present, in proportion.
  EXPECT_GT(o.build_seconds, 0.0);
  EXPECT_GT(o.probe_seconds, 0.0);
  EXPECT_GT(o.spill_bytes, 0.0);
  EXPECT_GT(o.spill_seconds, 0.0);
  EXPECT_GT(o.read_bytes, 0.0);
  EXPECT_GT(o.read_seconds, 0.0);
  EXPECT_GT(o.messages, 0u);  // gh.batches counter
}

TEST(CalibrationBridge, GammaAttributionCountsFramesUnderAggregation) {
  // With the aggregator on, the per-message overhead is paid per *frame*,
  // so the observation's message count must switch from gh.batches to
  // net.agg.frames — attributing per batch would underestimate gamma by
  // the flush factor.
  const obs::QueryObservation plain = observe_run(false);
  net::AggregatorConfig cfg;
  cfg.flush_batches = 8;
  const obs::QueryObservation aggregated = observe_run(false, &cfg);
  EXPECT_GT(aggregated.messages, 0u);
  EXPECT_LT(aggregated.messages, plain.messages);
}

TEST(CalibrationBridge, CalibratedStateFeedsBackIntoTheModel) {
  // Feed an IJ observation into a calibrator seeded from the priors, then
  // apply the learned state: the model's transfer prediction moves toward
  // the measured wall time.
  const obs::QueryObservation o = observe_run(true);
  CostParams p = sample_params();
  obs::Calibrator cal(calibration_priors(p));
  cal.observe(o);
  const CostParams calibrated = apply_calibration(p, cal.state());
  EXPECT_GT(cal.observed(), 0u);
  // Something about the hardware picture changed (the sim's effective
  // bandwidths include batching/contention effects the spec sheet lacks).
  EXPECT_NE(cost(Algorithm::IndexedJoin, calibrated).total(),
            cost(Algorithm::IndexedJoin, p).total());
}

}  // namespace
}  // namespace orv
