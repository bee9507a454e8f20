// Cost models (paper Section 5): formula correctness against hand
// computation, monotonicity properties, crossover algebra, and the
// Section 6.1 validation — simulated execution must track the analytic
// models across the figure scenarios.

#include "cost/cost_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "datagen/generator.hpp"
#include "graph/connectivity.hpp"
#include "net/aggregator.hpp"
#include "qes/qes.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

CostParams hand_params() {
  CostParams p;
  p.T = 1e6;
  p.c_R = 1e4;
  p.c_S = 1e3;
  p.n_e = 2e3;  // n_e * c_S = 2e6 = 2T
  p.RS_R = 16;
  p.RS_S = 16;
  p.net_bw = 62.5e6;
  p.read_io_bw = 35e6;
  p.write_io_bw = 30e6;
  p.n_s = 5;
  p.n_j = 5;
  p.alpha_build = 150.0 / 933e6;
  p.alpha_lookup = 120.0 / 933e6;
  return p;
}

TEST(CostModel, IjFormula) {
  const CostParams p = hand_params();
  const CostBreakdown c = cost(Algorithm::IndexedJoin, p);
  // Transfer: 1e6*32 / min(62.5e6, 35e6*5) = 3.2e7/6.25e7.
  EXPECT_DOUBLE_EQ(c.transfer, 3.2e7 / 6.25e7);
  EXPECT_DOUBLE_EQ(c.cpu_build, p.alpha_build * p.T / p.n_j);
  EXPECT_DOUBLE_EQ(c.cpu_lookup, p.alpha_lookup * p.n_e * p.c_S / p.n_j);
  EXPECT_DOUBLE_EQ(c.write, 0.0);
  EXPECT_DOUBLE_EQ(c.read, 0.0);
  EXPECT_DOUBLE_EQ(c.total(),
                   c.transfer + c.cpu_build + c.cpu_lookup);
}

TEST(CostModel, LocalityZeroFractionReducesToPaperFormula) {
  CostParams p = hand_params();
  const CostBreakdown base = cost(Algorithm::IndexedJoin, p);
  p.local_bw = 400e6;
  p.local_fraction = 0.0;  // nothing local: formula must be untouched
  EXPECT_DOUBLE_EQ(cost(Algorithm::IndexedJoin, p).transfer, base.transfer);
  p.local_fraction = 0.5;
  p.local_bw = 0.0;  // no bus (split cluster): also untouched
  EXPECT_DOUBLE_EQ(cost(Algorithm::IndexedJoin, p).transfer, base.transfer);
}

TEST(CostModel, LocalityLowersIjTransferMonotonically) {
  CostParams p = hand_params();
  p.local_bw = 400e6;  // fast bus: local bytes are effectively free
  double prev = cost(Algorithm::IndexedJoin, p).transfer;
  for (double f : {0.25, 0.5, 0.75, 1.0}) {
    p.local_fraction = f;
    const double t = cost(Algorithm::IndexedJoin, p).transfer;
    EXPECT_LE(t, prev) << "f=" << f;
    prev = t;
  }
  // At f = 1 with a fast bus the disk floor is what remains.
  const double agg_read = p.read_io_bw * p.n_s;
  const double bytes = p.T * (p.RS_R + p.RS_S);
  EXPECT_DOUBLE_EQ(prev, std::max(bytes / agg_read,
                                  bytes / (p.local_bw * p.n_j)));
}

TEST(CostModel, LocalityLeavesGraceHashAlone) {
  CostParams p = hand_params();
  const CostBreakdown base = cost(Algorithm::GraceHash, p);
  p.local_bw = 400e6;
  p.local_fraction = 1.0;
  const CostBreakdown local = cost(Algorithm::GraceHash, p);
  EXPECT_DOUBLE_EQ(local.transfer, base.transfer);
  EXPECT_DOUBLE_EQ(local.total(), base.total());
}

TEST(CostModel, ParamsFromPicksUpLocalBusOnlyWhenColocated) {
  ClusterSpec cluster;
  cluster.num_storage = 2;
  cluster.num_compute = 2;
  ConnectivityStats data;
  data.T = 1000;
  data.c_R = 100;
  data.c_S = 100;
  data.num_edges = 10;
  const CostParams split = CostParams::from(cluster, data, 16, 16);
  EXPECT_DOUBLE_EQ(split.local_bw, 0.0);
  cluster.colocated = true;
  const CostParams coloc = CostParams::from(cluster, data, 16, 16);
  EXPECT_DOUBLE_EQ(coloc.local_bw, cluster.hw.local_bus_bw);
  EXPECT_DOUBLE_EQ(coloc.local_fraction, 0.0);  // planner fills this in
}

TEST(CostModel, GhFormula) {
  const CostParams p = hand_params();
  const CostBreakdown c = cost(Algorithm::GraceHash, p);
  EXPECT_DOUBLE_EQ(c.transfer, 3.2e7 / 6.25e7);
  EXPECT_DOUBLE_EQ(c.write, 3.2e7 / (30e6 * 5));
  EXPECT_DOUBLE_EQ(c.read, 3.2e7 / (35e6 * 5));
  EXPECT_DOUBLE_EQ(c.cpu_build, p.alpha_build * p.T / p.n_j);
  EXPECT_DOUBLE_EQ(c.cpu_lookup, p.alpha_lookup * p.T / p.n_j);
}

TEST(CostModel, TransferBottleneckSwitchesToDisks) {
  CostParams p = hand_params();
  p.n_s = 1;  // single storage disk now the bottleneck: 35e6 < 62.5e6
  EXPECT_DOUBLE_EQ(cost(Algorithm::IndexedJoin, p).transfer, 3.2e7 / 35e6);
}

TEST(CostModel, SharedFilesystemDropsNodeMultipliers) {
  CostParams p = hand_params();
  p.shared_filesystem = true;
  const CostBreakdown gh = cost(Algorithm::GraceHash, p);
  EXPECT_DOUBLE_EQ(gh.transfer, 3.2e7 / 35e6);      // one server's reads
  EXPECT_DOUBLE_EQ(gh.write, 3.2e7 / 30e6);          // no n_j multiplier
  EXPECT_DOUBLE_EQ(gh.read, 3.2e7 / 35e6);
}

TEST(CostModel, IjLookupGrowsWithNeCs) {
  CostParams p = hand_params();
  const double t1 = cost(Algorithm::IndexedJoin, p).total();
  p.n_e *= 4;
  const double t2 = cost(Algorithm::IndexedJoin, p).total();
  EXPECT_GT(t2, t1);
  // GH is insensitive to n_e (paper's central claim).
  CostParams q = hand_params();
  const double g1 = cost(Algorithm::GraceHash, q).total();
  q.n_e *= 4;
  EXPECT_DOUBLE_EQ(cost(Algorithm::GraceHash, q).total(), g1);
}

TEST(CostModel, BothScaleLinearlyInT) {
  CostParams p = hand_params();
  const double ij1 = cost(Algorithm::IndexedJoin, p).total();
  const double gh1 = cost(Algorithm::GraceHash, p).total();
  p.T *= 2;
  p.n_e *= 2;  // same partitioning => edges scale with T
  EXPECT_NEAR(cost(Algorithm::IndexedJoin, p).total(), 2 * ij1, 1e-12);
  EXPECT_NEAR(cost(Algorithm::GraceHash, p).total(), 2 * gh1, 1e-12);
}

TEST(CostModel, CrossoverAlgebra) {
  CostParams p = hand_params();
  // At the crossover value the totals agree (solve, substitute, compare).
  const double x = crossover_ne_cs(p);
  p.n_e = x / p.c_S;
  EXPECT_NEAR(cost(Algorithm::IndexedJoin, p).total(),
              cost(Algorithm::GraceHash, p).total(),
              1e-9 * cost(Algorithm::GraceHash, p).total());
  // Below: IJ preferred; above: GH preferred.
  p.n_e = 0.5 * x / p.c_S;
  EXPECT_LE(cost(Algorithm::IndexedJoin, p).total(),
            cost(Algorithm::GraceHash, p).total());
  p.n_e = 2.0 * x / p.c_S;
  EXPECT_GT(cost(Algorithm::IndexedJoin, p).total(),
            cost(Algorithm::GraceHash, p).total());
}

TEST(CostModel, IoPerFlopThreshold) {
  CostParams p = hand_params();
  // n_e / m_S = 2e3 / 1e3 = 2 -> threshold = 2*32/(gamma2 * 1).
  EXPECT_DOUBLE_EQ(io_per_flop_threshold(p, 120.0), 2.0 * 32 / 120.0);
  p.n_e = p.m_S();  // degree 1: threshold undefined, IJ always preferred
  EXPECT_THROW(io_per_flop_threshold(p, 120.0), InvalidArgument);
}

TEST(CostModel, FasterCpuFavoursIj) {
  // Section 6.2: raising F (cpu_factor > 1) shrinks IJ's disadvantage.
  ClusterSpec cluster;
  DatasetSpec data;
  data.grid = {64, 64, 64};
  data.part1 = {32, 4, 8};
  data.part2 = {4, 32, 8};
  const auto stats = analyze(data);
  const auto slow = CostParams::from(cluster, stats, 16, 16, 0.25);
  const auto fast = CostParams::from(cluster, stats, 16, 16, 4.0);
  const double slow_gap = cost(Algorithm::IndexedJoin, slow).total() -
                          cost(Algorithm::GraceHash, slow).total();
  const double fast_gap = cost(Algorithm::IndexedJoin, fast).total() -
                          cost(Algorithm::GraceHash, fast).total();
  EXPECT_GT(slow_gap, fast_gap);
  EXPECT_GT(crossover_ne_cs(fast), crossover_ne_cs(slow));
}

TEST(CostModel, ParamsFromClusterAndStats) {
  ClusterSpec cluster;
  cluster.num_storage = 3;
  cluster.num_compute = 7;
  DatasetSpec data;
  data.grid = {16, 16, 16};
  data.part1 = {8, 8, 8};
  data.part2 = {4, 4, 4};
  const auto p = CostParams::from(cluster, analyze(data), 16, 20);
  EXPECT_DOUBLE_EQ(p.T, 4096);
  EXPECT_DOUBLE_EQ(p.c_R, 512);
  EXPECT_DOUBLE_EQ(p.c_S, 64);
  EXPECT_DOUBLE_EQ(p.n_e, 64);
  EXPECT_DOUBLE_EQ(p.RS_R, 16);
  EXPECT_DOUBLE_EQ(p.RS_S, 20);
  EXPECT_DOUBLE_EQ(p.n_s, 3);
  EXPECT_DOUBLE_EQ(p.n_j, 7);
  // net = min(3 nics, 7 nics, switch) = 3 * 12.5 MB/s.
  EXPECT_DOUBLE_EQ(p.net_bw, 3 * 12.5e6);
  EXPECT_DOUBLE_EQ(p.m_S(), 64);
}

// ------------------------------------------------------------------
// Section 6.1: "the models fit actual execution times closely". We assert
// the simulation lands within a tolerance band of the model and that the
// relative ordering (who wins) agrees, across the figure scenarios.
// ------------------------------------------------------------------

struct ValidationCase {
  Dim3 p, q;
  std::size_t n_s, n_j;
  double work_factor;
};

class ModelValidation : public ::testing::TestWithParam<ValidationCase> {};

TEST_P(ModelValidation, SimWithinToleranceOfModel) {
  const auto& c = GetParam();
  DatasetSpec spec;
  spec.grid = {32, 32, 32};
  spec.part1 = c.p;
  spec.part2 = c.q;
  spec.num_storage_nodes = c.n_s;
  auto ds = generate_dataset(spec);
  ClusterSpec cspec;
  cspec.num_storage = c.n_s;
  cspec.num_compute = c.n_j;

  const auto params =
      CostParams::from(cspec, ds.stats, 16, 16, 1.0 / c.work_factor);
  const double model_ij = cost(Algorithm::IndexedJoin, params).total();
  const double model_gh = cost(Algorithm::GraceHash, params).total();

  JoinQuery query{spec.table1_id, spec.table2_id, {"x", "y", "z"}, {}};
  const auto graph =
      ConnectivityGraph::build(ds.meta, 1, 2, query.join_attrs);
  QesOptions options;
  options.cpu_work_factor = c.work_factor;

  double sim_ij = 0;
  double sim_gh = 0;
  {
    sim::Engine engine;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    sim_ij = run_indexed_join(cluster, bds, ds.meta, graph, query, options)
                 .elapsed;
  }
  {
    sim::Engine engine;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    sim_gh = run_grace_hash(cluster, bds, ds.meta, query, options).elapsed;
  }

  // Simulation may exceed the model (latency, imbalance, phase tails) but
  // must stay within +40% and never undershoot by more than 5%.
  EXPECT_GT(sim_ij, 0.95 * model_ij);
  EXPECT_LT(sim_ij, 1.40 * model_ij);
  EXPECT_GT(sim_gh, 0.95 * model_gh);
  EXPECT_LT(sim_gh, 1.40 * model_gh);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ModelValidation,
    ::testing::Values(
        ValidationCase{{8, 8, 8}, {8, 8, 8}, 5, 5, 1.0},
        ValidationCase{{16, 4, 8}, {4, 16, 8}, 5, 5, 1.0},
        ValidationCase{{16, 2, 8}, {2, 16, 8}, 5, 5, 1.0},
        ValidationCase{{8, 8, 8}, {8, 8, 8}, 5, 2, 1.0},
        ValidationCase{{8, 8, 8}, {8, 8, 8}, 3, 5, 1.0},
        ValidationCase{{16, 4, 8}, {4, 16, 8}, 5, 5, 4.0},
        ValidationCase{{8, 8, 8}, {4, 4, 4}, 4, 4, 1.0}));

// ------------------------------------------------------------------
// Message aggregation: the shared h1 message-count derivation, the
// per-frame overhead term, and validation of the aggregated executor
// against the extended model at a message-bound corner.
// ------------------------------------------------------------------

TEST(Aggregation, MessageHelpersShareOneDerivation) {
  CostParams p = hand_params();
  p.batch_bytes = 64 * 1024;
  EXPECT_DOUBLE_EQ(gh_h1_messages(p),
                   p.T * (p.RS_R + p.RS_S) / p.batch_bytes);
  EXPECT_DOUBLE_EQ(gh_h1_frames(p), gh_h1_messages(p));  // default flush 1
  p.agg_flush_batches = 16;
  EXPECT_DOUBLE_EQ(gh_h1_frames(p), gh_h1_messages(p) / 16.0);
  EXPECT_DOUBLE_EQ(ij_fetch_messages(p), p.T / p.c_R + p.T / p.c_S);
}

TEST(Aggregation, FlushThresholdDividesTheMessageOverheadTerm) {
  CostParams p = hand_params();
  p.msg_overhead = 1e-3;
  const double base_transfer = [&] {
    CostParams q = p;
    q.msg_overhead = 0;
    return cost(Algorithm::GraceHash, q).transfer;
  }();
  const double gamma_term_1 =
      cost(Algorithm::GraceHash, p).transfer - base_transfer;
  EXPECT_NEAR(gamma_term_1, p.msg_overhead * gh_h1_messages(p) / p.n_s,
              1e-12);
  p.agg_flush_batches = 16;
  const double gamma_term_16 =
      cost(Algorithm::GraceHash, p).transfer - base_transfer;
  EXPECT_NEAR(gamma_term_16, gamma_term_1 / 16.0, 1e-12);
  // IJ's fetch-reply overhead divides the same way.
  CostParams q = hand_params();
  q.msg_overhead = 1e-3;
  const double ij_1 = cost(Algorithm::IndexedJoin, q).transfer;
  q.agg_flush_batches = 4;
  const double ij_base = [&] {
    CostParams r = q;
    r.msg_overhead = 0;
    return cost(Algorithm::IndexedJoin, r).transfer;
  }();
  EXPECT_NEAR(cost(Algorithm::IndexedJoin, q).transfer - ij_base,
              (ij_1 - ij_base) / 4.0, 1e-12);
}

TEST(Aggregation, ZeroOverheadKeepsThePaperFormulas) {
  CostParams p = hand_params();
  const double gh_base = cost(Algorithm::GraceHash, p).total();
  const double ij_base = cost(Algorithm::IndexedJoin, p).total();
  p.agg_flush_batches = 64;  // without a gamma the knob must be inert
  EXPECT_DOUBLE_EQ(cost(Algorithm::GraceHash, p).total(), gh_base);
  EXPECT_DOUBLE_EQ(cost(Algorithm::IndexedJoin, p).total(), ij_base);
}

TEST(Aggregation, ExecutorMessageCountMatchesTheModelDerivation) {
  // Pin: run_grace_hash's Partitioner and gh_h1_messages must keep sharing
  // one derivation. The executor sends slightly more than the model's
  // total_bytes / batch_bytes because each sender's final per-destination
  // flush may be partial — bounded by senders x tables x destinations.
  DatasetSpec spec;
  spec.grid = {32, 32, 32};
  spec.part1 = {8, 8, 8};
  spec.part2 = {8, 8, 8};
  spec.num_storage_nodes = 2;
  auto ds = generate_dataset(spec);
  ClusterSpec cspec;
  cspec.num_storage = 2;
  cspec.num_compute = 3;

  QesOptions options;
  options.batch_bytes = 4096;
  JoinQuery query{spec.table1_id, spec.table2_id, {"x", "y", "z"}, {}};

  sim::Engine engine;
  Cluster cluster(engine, cspec);
  BdsService bds(cluster, ds.meta, ds.stores);
  const QesResult gh = run_grace_hash(cluster, bds, ds.meta, query, options);

  CostParams p = CostParams::from(cspec, ds.stats, 16, 16);
  p.batch_bytes = static_cast<double>(options.batch_bytes);
  const double predicted = gh_h1_messages(p);
  const double slack = 2.0 * p.n_s * p.n_j;  // partial final flushes
  EXPECT_GE(static_cast<double>(gh.h1_messages_sent), 0.90 * predicted);
  EXPECT_LE(static_cast<double>(gh.h1_messages_sent), predicted + slack + 1);
  // Unaggregated, every message is its own switch frame.
  EXPECT_EQ(gh.net_frames_sent, gh.h1_messages_sent);
}

TEST(Aggregation, MessageBoundCornerValidatesAndImproves) {
  // The acceptance corner: many nodes, small batches, a calibrated-prior
  // gamma — the per-frame overhead dominates GH's partition phase.
  // Aggregating 16 batches per frame must (a) cut switch frames by >= 8x,
  // (b) cut GH elapsed by >= 15%, and (c) stay inside the same model error
  // band PlanValidation uses (sim within [0.95, 1.40] of the model).
  DatasetSpec spec;
  spec.grid = {32, 32, 32};
  spec.part1 = {8, 8, 8};
  spec.part2 = {8, 8, 8};
  spec.num_storage_nodes = 4;
  auto ds = generate_dataset(spec);
  ClusterSpec cspec;
  cspec.num_storage = 4;
  cspec.num_compute = 4;
  cspec.hw.net_msg_overhead = 1e-3;

  QesOptions options;
  options.batch_bytes = 4096;
  JoinQuery query{spec.table1_id, spec.table2_id, {"x", "y", "z"}, {}};

  auto run_gh = [&](const net::AggregatorConfig* agg_cfg) {
    sim::Engine engine;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    std::optional<net::MessageAggregator> agg;
    std::optional<net::ScopedAggregator> scoped;
    if (agg_cfg != nullptr) {
      agg.emplace(cluster, *agg_cfg);
      scoped.emplace(*agg);
    }
    return run_grace_hash(cluster, bds, ds.meta, query, options);
  };

  const QesResult base = run_gh(nullptr);
  net::AggregatorConfig cfg;
  cfg.flush_batches = 16;
  // Per-flow batch inter-arrival here is above the default 1 ms timeout,
  // which would fragment frames; the model's frames-per-flush prediction
  // assumes frames fill, so flush on size/drain only.
  cfg.flush_timeout = 0;
  const QesResult agg = run_gh(&cfg);

  EXPECT_EQ(agg.result_fingerprint, base.result_fingerprint);
  EXPECT_GE(static_cast<double>(base.net_frames_sent),
            8.0 * static_cast<double>(agg.net_frames_sent));
  EXPECT_LE(agg.elapsed, 0.85 * base.elapsed);

  // CostParams::from picks the gamma off the hardware profile; with the
  // flush knob the extended model must track the aggregated run within
  // the PlanValidation band, just like the unaggregated pair.
  CostParams p = CostParams::from(cspec, ds.stats, 16, 16);
  p.batch_bytes = static_cast<double>(options.batch_bytes);
  EXPECT_DOUBLE_EQ(p.msg_overhead, 1e-3);
  const double model_base = cost(Algorithm::GraceHash, p).total();
  EXPECT_GT(base.elapsed, 0.95 * model_base);
  EXPECT_LT(base.elapsed, 1.40 * model_base);
  p.agg_flush_batches = 16;
  const double model_agg = cost(Algorithm::GraceHash, p).total();
  EXPECT_GT(agg.elapsed, 0.95 * model_agg);
  EXPECT_LT(agg.elapsed, 1.40 * model_agg);
}

}  // namespace
}  // namespace orv
