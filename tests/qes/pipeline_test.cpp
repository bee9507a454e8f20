// Overlapped fetch/compute pipelining: the prefetching Indexed Join and
// the double-buffered Grace Hash must produce byte-identical results to
// the serial paths at every lookahead depth, actually overlap Transfer
// with Cpu (lower virtual time, nonzero overlap ratio), keep the pin
// accounting leak-free, and stay within the serial cost models' accuracy
// band when the pipelined models predict them.

#include <gtest/gtest.h>

#include "cost/cost_model.hpp"
#include "datagen/generator.hpp"
#include "qes/qes.hpp"
#include "qes/session.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

struct TestRig {
  GeneratedDataset ds;
  sim::Engine engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<BdsService> bds;
  ConnectivityGraph graph;
  JoinQuery query;

  TestRig(DatasetSpec spec, ClusterSpec cspec,
          std::vector<std::string> join_attrs = {"x", "y", "z"},
          std::vector<AttrRange> ranges = {}) {
    spec.num_storage_nodes = cspec.num_storage;
    ds = generate_dataset(spec);
    cluster = std::make_unique<Cluster>(engine, cspec);
    bds = std::make_unique<BdsService>(*cluster, ds.meta, ds.stores);
    query.left_table = spec.table1_id;
    query.right_table = spec.table2_id;
    query.join_attrs = std::move(join_attrs);
    query.ranges = std::move(ranges);
    graph = ConnectivityGraph::build(ds.meta, query.left_table,
                                     query.right_table, query.join_attrs,
                                     query.ranges);
  }
};

/// The overlap-friendly configuration: big enough for multi-pair
/// components, cpu_work_factor 8 puts Cpu in the same ballpark as
/// Transfer on the default (network-dominated) hardware profile.
DatasetSpec overlap_spec() {
  DatasetSpec spec;
  spec.grid = {16, 16, 8};
  spec.part1 = {4, 4, 4};
  spec.part2 = {2, 2, 2};
  return spec;
}

ClusterSpec overlap_cluster() {
  ClusterSpec c;
  c.num_storage = 2;
  c.num_compute = 2;
  return c;
}

QesResult run_ij(const QesOptions& options) {
  TestRig rig(overlap_spec(), overlap_cluster());
  return run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta, rig.graph,
                          rig.query, options);
}

QesResult run_gh(const QesOptions& options) {
  TestRig rig(overlap_spec(), overlap_cluster());
  return run_grace_hash(*rig.cluster, *rig.bds, rig.ds.meta, rig.query,
                        options);
}

TEST(PipelinedIj, FingerprintIdenticalToSerialAcrossLookaheads) {
  QesOptions serial;
  serial.cpu_work_factor = 8;
  // The accumulators the result is assembled from: the tuple count is the
  // join stats' count, and every scheduled pair is joined exactly once.
  TestRig rig(overlap_spec(), overlap_cluster());
  std::uint64_t scheduled = 0;
  for (const auto& list :
       make_schedule(rig.graph, rig.cluster->num_compute(), serial.assign,
                     serial.pair_order, serial.seed)
           .pairs_per_node) {
    scheduled += list.size();
  }
  ASSERT_GT(scheduled, 0u);
  auto expect_accumulators = [&](const QesResult& res) {
    EXPECT_EQ(res.result_tuples, res.join_stats.result_tuples);
    std::uint64_t joined = 0;
    for (const auto& nw : res.node_work) joined += nw.items;
    EXPECT_EQ(joined, scheduled);
  };
  const QesResult base = run_ij(serial);
  ASSERT_GT(base.result_tuples, 0u);
  EXPECT_EQ(base.prefetch_issued, 0u);
  EXPECT_EQ(base.overlap_ratio, 0.0);
  expect_accumulators(base);

  for (std::size_t la : {1u, 2u, 4u, 8u}) {
    for (bool coalesce : {false, true}) {
      QesOptions opt = serial;
      opt.prefetch_lookahead = la;
      opt.coalesce_fetches = coalesce;
      const QesResult res = run_ij(opt);
      ASSERT_EQ(res.result_tuples, base.result_tuples)
          << "lookahead " << la << " coalesce " << coalesce;
      ASSERT_EQ(res.result_fingerprint, base.result_fingerprint)
          << "lookahead " << la << " coalesce " << coalesce;
      EXPECT_GT(res.prefetch_issued, 0u);
      EXPECT_EQ(res.prefetch_wasted, 0u);  // fault-free: every pin consumed
      EXPECT_LE(res.elapsed, base.elapsed + 1e-12);
      expect_accumulators(res);
    }
  }
}

TEST(PipelinedIj, AtLeast15PercentFasterWhenTransferCpuComparable) {
  QesOptions serial;
  serial.cpu_work_factor = 8;
  const QesResult base = run_ij(serial);

  QesOptions pipe = serial;
  pipe.prefetch_lookahead = 2;
  const QesResult la2 = run_ij(pipe);
  EXPECT_EQ(la2.result_fingerprint, base.result_fingerprint);
  EXPECT_LT(la2.elapsed, 0.85 * base.elapsed)
      << "lookahead 2: " << la2.elapsed << " vs serial " << base.elapsed;

  pipe.prefetch_lookahead = 4;
  const QesResult la4 = run_ij(pipe);
  EXPECT_LT(la4.elapsed, 0.85 * base.elapsed)
      << "lookahead 4: " << la4.elapsed << " vs serial " << base.elapsed;
  // Deeper lookahead cannot hurt.
  EXPECT_LE(la4.elapsed, la2.elapsed + 1e-12);
}

TEST(PipelinedIj, OverlapRatioGrowsWithLookahead) {
  QesOptions opt;
  opt.cpu_work_factor = 8;
  opt.prefetch_lookahead = 1;
  const double shallow = run_ij(opt).overlap_ratio;
  opt.prefetch_lookahead = 8;
  const double deep = run_ij(opt).overlap_ratio;
  EXPECT_GT(shallow, 0.0);
  EXPECT_LE(deep, 1.0);
  EXPECT_GT(deep, shallow);
}

TEST(PipelinedIj, CoalescingSavesSeeksWithPositiveSeekTime) {
  // With a per-op seek charge, batching adjacent chunk reads into one
  // reservation pays fewer seeks; results stay identical.
  ClusterSpec cspec = overlap_cluster();
  cspec.hw.disk_seek = 0.002;
  auto run_with = [&](bool coalesce) {
    TestRig rig(overlap_spec(), cspec);
    QesOptions opt;
    opt.cpu_work_factor = 8;
    opt.prefetch_lookahead = 8;
    opt.coalesce_fetches = coalesce;
    return run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta, rig.graph,
                            rig.query, opt);
  };
  const QesResult separate = run_with(false);
  const QesResult coalesced = run_with(true);
  EXPECT_EQ(coalesced.result_fingerprint, separate.result_fingerprint);
  EXPECT_EQ(coalesced.result_tuples, separate.result_tuples);
  EXPECT_LT(coalesced.elapsed, separate.elapsed);
}

TEST(PipelinedIj, TightCacheWithPinsStillCorrect) {
  // A cache far smaller than the working set forces eviction pressure
  // against pinned prefetched entries (pins may overshoot capacity); the
  // result must not change and no pin may leak into a wasted count.
  auto run_tight = [](const QesOptions& options) {
    TestRig rig(overlap_spec(), overlap_cluster());
    QesSession session(*rig.cluster, *rig.bds, rig.ds.meta,
                       {.share_cache = false, .cache_bytes = 8 * 1024});
    return session.run(rig.query, options, Algorithm::IndexedJoin).result;
  };
  QesOptions serial;
  serial.cpu_work_factor = 8;
  const QesResult base = run_tight(serial);

  QesOptions pipe = serial;
  pipe.prefetch_lookahead = 4;
  const QesResult res = run_tight(pipe);
  EXPECT_EQ(res.result_tuples, base.result_tuples);
  EXPECT_EQ(res.result_fingerprint, base.result_fingerprint);
  EXPECT_EQ(res.prefetch_wasted, 0u);
}

TEST(PipelinedIj, ShuffledScheduleAndSelectionStillCorrect) {
  std::vector<AttrRange> ranges = {{"x", {1.0, 9.0}}, {"y", {0.0, 6.0}}};
  auto run_with = [&](std::size_t lookahead) {
    TestRig rig(overlap_spec(), overlap_cluster(), {"x", "y", "z"}, ranges);
    QesOptions opt;
    opt.cpu_work_factor = 8;
    opt.pair_order = PairOrder::Shuffled;
    opt.assign = ComponentAssign::Random;
    opt.seed = 11;
    opt.prefetch_lookahead = lookahead;
    return run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta, rig.graph,
                            rig.query, opt);
  };
  const QesResult base = run_with(0);
  const QesResult pipe = run_with(4);
  EXPECT_EQ(pipe.result_tuples, base.result_tuples);
  EXPECT_EQ(pipe.result_fingerprint, base.result_fingerprint);
}

TEST(PipelinedIj, NonKeySelectionComposesWithPrefetch) {
  std::vector<AttrRange> ranges = {{"x", {0, 7}}, {"wp", {0.0, 0.5}}};
  auto run_with = [&](std::size_t lookahead) {
    TestRig rig(overlap_spec(), overlap_cluster(), {"x", "y", "z"}, ranges);
    QesOptions opt;
    opt.cpu_work_factor = 8;
    opt.prefetch_lookahead = lookahead;
    return run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta, rig.graph,
                            rig.query, opt);
  };
  const QesResult base = run_with(0);
  const QesResult pipe = run_with(4);
  EXPECT_EQ(pipe.result_tuples, base.result_tuples);
  EXPECT_EQ(pipe.result_fingerprint, base.result_fingerprint);
  // The compute side filters on the value attribute exactly as the
  // reference join does.
  const TestRig rig(overlap_spec(), overlap_cluster(), {"x", "y", "z"}, ranges);
  const ReferenceResult ref =
      reference_join(rig.ds.meta, rig.ds.stores, rig.query);
  ASSERT_GT(ref.result_tuples, 0u);
  EXPECT_EQ(base.result_tuples, ref.result_tuples);
  EXPECT_EQ(base.result_fingerprint, ref.result_fingerprint);
}

TEST(PipelinedGh, DoubleBufferIdenticalResultAndFaster) {
  QesOptions serial;
  serial.cpu_work_factor = 8;
  serial.bucket_pair_bytes = 16 * 1024;  // several buckets → read-ahead bites
  const QesResult base = run_gh(serial);
  ASSERT_GT(base.result_tuples, 0u);

  QesOptions pipe = serial;
  pipe.gh_double_buffer = true;
  const QesResult res = run_gh(pipe);
  EXPECT_EQ(res.result_tuples, base.result_tuples);
  EXPECT_EQ(res.result_fingerprint, base.result_fingerprint);
  EXPECT_LT(res.elapsed, base.elapsed);
  // Both phases shrink or hold: the spill overlap helps partitioning, the
  // read-ahead helps the bucket-join phase.
  EXPECT_LE(res.partition_phase, base.partition_phase + 1e-12);
  EXPECT_LE(res.join_phase, base.join_phase + 1e-12);
}

TEST(PipelinedGh, SingleBucketStillCorrect) {
  // Nothing to read-ahead (one bucket) and ingress-bound spills: the
  // double-buffer must degrade to the serial behaviour, not break.
  QesOptions serial;
  const QesResult base = run_gh(serial);
  QesOptions pipe;
  pipe.gh_double_buffer = true;
  const QesResult res = run_gh(pipe);
  EXPECT_EQ(res.result_tuples, base.result_tuples);
  EXPECT_EQ(res.result_fingerprint, base.result_fingerprint);
  EXPECT_LE(res.elapsed, base.elapsed + 1e-12);
}

TEST(PipelinedModels, AccuracyWithinSerialBand) {
  // The pipelined cost models must predict the pipelined executions as
  // well as the serial models predict the serial ones: the ratio of
  // predicted to measured stays within a 1.1x band of the serial ratio.
  const DatasetSpec spec = overlap_spec();
  const ClusterSpec cspec = overlap_cluster();
  const double wf = 8;

  QesOptions serial;
  serial.cpu_work_factor = wf;
  serial.bucket_pair_bytes = 16 * 1024;
  QesOptions pipe = serial;
  pipe.prefetch_lookahead = 4;
  pipe.gh_double_buffer = true;

  const QesResult ij_serial = run_ij(serial);
  const QesResult ij_pipe = run_ij(pipe);
  const QesResult gh_serial = run_gh(serial);
  const QesResult gh_pipe = run_gh(pipe);

  TestRig rig(spec, cspec);  // for stats + record sizes only
  const std::size_t rs_l =
      rig.ds.meta.table_schema(rig.query.left_table)->record_size();
  const std::size_t rs_r =
      rig.ds.meta.table_schema(rig.query.right_table)->record_size();
  CostParams p =
      CostParams::from(cspec, rig.ds.stats, rs_l, rs_r, 1.0 / wf);
  p.bucket_pair_bytes = static_cast<double>(pipe.bucket_pair_bytes);
  p.batch_bytes = static_cast<double>(pipe.batch_bytes);
  CostParams pp = p;
  pp.prefetch_lookahead = static_cast<double>(pipe.prefetch_lookahead);
  pp.gh_double_buffer = pipe.gh_double_buffer;

  const double ij_serial_ratio =
      cost(Algorithm::IndexedJoin, p).total() / ij_serial.elapsed;
  const double ij_pipe_ratio =
      cost(Algorithm::IndexedJoin, pp).total() / ij_pipe.elapsed;
  EXPECT_GT(ij_pipe_ratio, ij_serial_ratio / 1.1);
  EXPECT_LT(ij_pipe_ratio, ij_serial_ratio * 1.1);

  const double gh_serial_ratio =
      cost(Algorithm::GraceHash, p).total() / gh_serial.elapsed;
  const double gh_pipe_ratio =
      cost(Algorithm::GraceHash, pp).total() / gh_pipe.elapsed;
  EXPECT_GT(gh_pipe_ratio, gh_serial_ratio / 1.1);
  EXPECT_LT(gh_pipe_ratio, gh_serial_ratio * 1.1);
}

TEST(PipelinedModels, PipelinedNeverExceedsSerialAndLookahead0Coincides) {
  CostParams p;
  p.T = 1e5;
  p.c_R = p.c_S = 1e3;
  p.n_e = 400;
  p.RS_R = p.RS_S = 16;
  p.net_bw = 1e7;
  p.read_io_bw = p.write_io_bw = 1e7;
  p.n_s = p.n_j = 2;
  p.alpha_build = p.alpha_lookup = 1e-7;
  p.memory_bytes = 512 * 1024;

  // Lookahead 0 ⇒ no overlap ⇒ the pipelined IJ model is the serial one.
  p.prefetch_lookahead = 0;
  const CostBreakdown ij_serial = cost(Algorithm::IndexedJoin, p);
  EXPECT_DOUBLE_EQ(ij_serial.overlap, 0.0);
  EXPECT_DOUBLE_EQ(ij_serial.total(), ij_serial.transfer + ij_serial.cpu());

  double prev = ij_serial.total();
  for (double la : {1.0, 2.0, 4.0, 8.0, 64.0}) {
    p.prefetch_lookahead = la;
    const CostBreakdown c = cost(Algorithm::IndexedJoin, p);
    EXPECT_LE(c.total(), prev + 1e-12) << "lookahead " << la;
    // Never below the max-of-stages floor.
    EXPECT_GE(c.total(), std::max(c.transfer, c.cpu()) - 1e-12);
    prev = c.total();
  }

  const CostBreakdown gh_serial = cost(Algorithm::GraceHash, p);
  p.gh_double_buffer = true;
  const CostBreakdown gh_pipe = cost(Algorithm::GraceHash, p);
  EXPECT_LT(gh_pipe.total(), gh_serial.total());
  EXPECT_GE(gh_pipe.total(),
            std::max(gh_serial.transfer, gh_serial.write) +
                std::max(gh_serial.read, gh_serial.cpu()) - 1e-12);
  // The stage terms themselves are unchanged; only `overlap` differs.
  EXPECT_DOUBLE_EQ(gh_pipe.transfer, gh_serial.transfer);
  EXPECT_DOUBLE_EQ(gh_pipe.write, gh_serial.write);
  EXPECT_DOUBLE_EQ(gh_pipe.read, gh_serial.read);
  EXPECT_GT(gh_pipe.overlap, 0.0);
}

}  // namespace
}  // namespace orv
