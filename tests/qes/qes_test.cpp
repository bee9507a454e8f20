// End-to-end distributed join tests: the Indexed Join and Grace Hash QES
// must produce exactly the reference join's row multiset across dataset
// shapes, layouts, node counts and options — while the simulation's
// accounting stays consistent (no cache evictions under the paper's memory
// assumption, bytes moved equal to table bytes, etc.).

#include "qes/qes.hpp"

#include <gtest/gtest.h>

#include "cost/cost_model.hpp"
#include "datagen/generator.hpp"
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

  ReferenceResult reference() {
    return reference_join(ds.meta, ds.stores, query);
  }

  /// A forced Indexed Join with private per-query caches of `cache_bytes`.
  QesResult run_ij_with_cache(const QesOptions& options,
                              std::uint64_t cache_bytes) {
    QesSession session(*cluster, *bds, ds.meta,
                       {.share_cache = false, .cache_bytes = cache_bytes});
    return session.run(query, options, Algorithm::IndexedJoin).result;
  }
};

DatasetSpec tiny_spec() {
  DatasetSpec spec;
  spec.grid = {8, 8, 8};
  spec.part1 = {4, 4, 4};
  spec.part2 = {2, 2, 2};
  return spec;
}

ClusterSpec tiny_cluster() {
  ClusterSpec c;
  c.num_storage = 2;
  c.num_compute = 2;
  return c;
}

TEST(IndexedJoin, MatchesReferenceOnTinyDataset) {
  TestRig rig(tiny_spec(), tiny_cluster());
  const auto ref = rig.reference();
  const auto res = run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                    rig.graph, rig.query);
  EXPECT_EQ(res.result_tuples, ref.result_tuples);
  EXPECT_EQ(res.result_fingerprint, ref.result_fingerprint);
  EXPECT_EQ(res.result_tuples, 8u * 8 * 8);  // selectivity 1
  EXPECT_GT(res.elapsed, 0.0);
}

TEST(GraceHash, MatchesReferenceOnTinyDataset) {
  TestRig rig(tiny_spec(), tiny_cluster());
  const auto ref = rig.reference();
  const auto res =
      run_grace_hash(*rig.cluster, *rig.bds, rig.ds.meta, rig.query);
  EXPECT_EQ(res.result_tuples, ref.result_tuples);
  EXPECT_EQ(res.result_fingerprint, ref.result_fingerprint);
  EXPECT_GT(res.elapsed, 0.0);
  EXPECT_GT(res.scratch_write_bytes, 0.0);
  EXPECT_DOUBLE_EQ(res.scratch_write_bytes, res.scratch_read_bytes);
}

TEST(IndexedJoin, NoEvictionsUnderPaperMemoryAssumption) {
  // Memory >= 2 c_R + b c_S rows: with 512 MB nodes and tiny tables the
  // assumption holds by a wide margin -> the two-stage schedule + LRU must
  // incur zero evictions and exactly one fetch per needed sub-table copy.
  TestRig rig(tiny_spec(), tiny_cluster());
  const auto res = run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                    rig.graph, rig.query);
  EXPECT_EQ(res.cache_stats.evictions, 0u);
  // Each component is joined on one node; a sub-table in one component is
  // fetched at most once.
  const auto& stats = rig.ds.stats;
  const std::uint64_t needed =
      rig.graph.num_components() * (stats.a + stats.b);
  EXPECT_EQ(res.subtable_fetches, needed);
  // One hash table per left sub-table per component.
  EXPECT_EQ(res.hash_tables_built, rig.graph.num_components() * stats.a);
}

TEST(IndexedJoin, LookupCountMatchesCostModelTerm) {
  // Lookup_IJ ~ n_e * c_S probes in total (paper Section 5.1).
  TestRig rig(tiny_spec(), tiny_cluster());
  const auto res = run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                    rig.graph, rig.query);
  EXPECT_EQ(res.join_stats.probe_tuples,
            rig.ds.stats.num_edges * rig.ds.stats.c_S);
  // Build touches each left sub-table once: T tuples total.
  EXPECT_EQ(res.join_stats.build_tuples, rig.ds.stats.T);
}

TEST(GraceHash, CpuTouchesEachTupleOnce) {
  TestRig rig(tiny_spec(), tiny_cluster());
  const auto res =
      run_grace_hash(*rig.cluster, *rig.bds, rig.ds.meta, rig.query);
  EXPECT_EQ(res.join_stats.build_tuples, rig.ds.stats.T);
  EXPECT_EQ(res.join_stats.probe_tuples, rig.ds.stats.T);
}

TEST(BothAlgorithms, AgreeUnderRangeSelection) {
  std::vector<AttrRange> ranges = {{"x", {1.0, 5.0}}, {"y", {0.0, 3.0}}};
  TestRig rig(tiny_spec(), tiny_cluster(), {"x", "y", "z"}, ranges);
  const auto ref = rig.reference();
  ASSERT_GT(ref.result_tuples, 0u);
  ASSERT_LT(ref.result_tuples, 8u * 8 * 8);
  const auto ij = run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                   rig.graph, rig.query);
  const auto gh =
      run_grace_hash(*rig.cluster, *rig.bds, rig.ds.meta, rig.query);
  EXPECT_EQ(ij.result_tuples, ref.result_tuples);
  EXPECT_EQ(ij.result_fingerprint, ref.result_fingerprint);
  EXPECT_EQ(gh.result_tuples, ref.result_tuples);
  EXPECT_EQ(gh.result_fingerprint, ref.result_fingerprint);
}

TEST(BothAlgorithms, JoinOnTwoAttributesXY) {
  // V1 = T1 (+)_xy T2 as in the paper's Section 2 example: each (x,y)
  // column of one table joins the full z-column of the other.
  DatasetSpec spec;
  spec.grid = {4, 4, 4};
  spec.part1 = {2, 2, 4};
  spec.part2 = {2, 2, 4};
  TestRig rig(spec, tiny_cluster(), {"x", "y"});
  const auto ref = rig.reference();
  EXPECT_EQ(ref.result_tuples, 4u * 4 * 4 * 4);  // 4 z-matches per (x,y,z)
  const auto ij = run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                   rig.graph, rig.query);
  const auto gh =
      run_grace_hash(*rig.cluster, *rig.bds, rig.ds.meta, rig.query);
  EXPECT_EQ(ij.result_tuples, ref.result_tuples);
  EXPECT_EQ(gh.result_tuples, ref.result_tuples);
  EXPECT_EQ(ij.result_fingerprint, gh.result_fingerprint);
}

TEST(BothAlgorithms, DeterministicReplay) {
  auto run_once = []() {
    TestRig rig(tiny_spec(), tiny_cluster());
    const auto ij = run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                     rig.graph, rig.query);
    const auto gh =
        run_grace_hash(*rig.cluster, *rig.bds, rig.ds.meta, rig.query);
    return std::make_tuple(ij.elapsed, ij.result_fingerprint, gh.elapsed,
                           gh.result_fingerprint);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(GraceHash, SmallBucketsStillCorrect) {
  TestRig rig(tiny_spec(), tiny_cluster());
  QesOptions options;
  options.bucket_pair_bytes = 512;  // force many buckets
  const auto ref = rig.reference();
  const auto res =
      run_grace_hash(*rig.cluster, *rig.bds, rig.ds.meta, rig.query, options);
  EXPECT_EQ(res.result_tuples, ref.result_tuples);
  EXPECT_EQ(res.result_fingerprint, ref.result_fingerprint);
}

TEST(GraceHash, TinyBatchesStillCorrect) {
  TestRig rig(tiny_spec(), tiny_cluster());
  QesOptions options;
  options.batch_bytes = 64;  // many small messages
  const auto ref = rig.reference();
  const auto res =
      run_grace_hash(*rig.cluster, *rig.bds, rig.ds.meta, rig.query, options);
  EXPECT_EQ(res.result_tuples, ref.result_tuples);
  EXPECT_EQ(res.result_fingerprint, ref.result_fingerprint);
}

TEST(IndexedJoin, WorkFactorScalesCpuTime) {
  auto run_with = [](double factor) {
    TestRig rig(tiny_spec(), tiny_cluster());
    QesOptions options;
    options.cpu_work_factor = factor;
    return run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta, rig.graph,
                            rig.query, options)
        .elapsed;
  };
  // Doubling the per-tuple work cannot shrink the runtime, and with CPU a
  // non-trivial share it must grow.
  EXPECT_GT(run_with(8.0), run_with(1.0));
}

TEST(IndexedJoin, GreedyLocalityOrderCorrectAndNoWorseFetches) {
  TestRig rig(tiny_spec(), tiny_cluster());
  QesOptions options;
  options.pair_order = PairOrder::GreedyLocality;
  const auto greedy = rig.run_ij_with_cache(options, 8 * 1024);  // tight
  EXPECT_EQ(greedy.result_tuples, 8u * 8 * 8);

  TestRig rig2(tiny_spec(), tiny_cluster());
  QesOptions shuffled;
  shuffled.pair_order = PairOrder::Shuffled;
  shuffled.seed = 5;
  const auto shuf = rig2.run_ij_with_cache(shuffled, 8 * 1024);
  EXPECT_LE(greedy.subtable_fetches, shuf.subtable_fetches);
}

TEST(IndexedJoin, RefetchModelTracksConstrainedCacheRuns) {
  // The paper's cache-miss extension: with a tiny cache the measured time
  // should track the IJ model priced with the measured re-fetch factor.
  DatasetSpec spec;
  spec.grid = {32, 32, 32};
  spec.part1 = {16, 2, 8};  // sizeable components: refetches under pressure
  spec.part2 = {2, 16, 8};
  ClusterSpec cspec;
  cspec.num_storage = 2;
  cspec.num_compute = 2;
  TestRig rig(spec, cspec);
  QesOptions options;
  options.pair_order = PairOrder::Shuffled;  // provoke misses
  options.seed = 3;
  const auto res = rig.run_ij_with_cache(options, 64 * 1024);
  const auto& stats = rig.ds.stats;
  const std::uint64_t minimal =
      rig.graph.num_components() * (stats.a + stats.b);
  ASSERT_GT(res.subtable_fetches, minimal);  // the cache really thrashed
  const double refetch =
      static_cast<double>(res.subtable_fetches) / minimal;
  auto params = CostParams::from(cspec, stats, 16, 16);
  params.refetch_factor = refetch;
  const double predicted = cost(Algorithm::IndexedJoin, params).total();
  EXPECT_GT(res.elapsed, 0.8 * predicted);
  EXPECT_LT(res.elapsed, 1.5 * predicted);
}

TEST(BothAlgorithms, ShuffledScheduleStillCorrect) {
  TestRig rig(tiny_spec(), tiny_cluster());
  QesOptions options;
  options.pair_order = PairOrder::Shuffled;
  options.assign = ComponentAssign::Random;
  options.seed = 7;
  const auto ref = rig.reference();
  const auto res = run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                    rig.graph, rig.query, options);
  EXPECT_EQ(res.result_tuples, ref.result_tuples);
  EXPECT_EQ(res.result_fingerprint, ref.result_fingerprint);
}

// ------------------------------------------------------------------
// Parameterized sweep across dataset/cluster shapes and layouts.
// ------------------------------------------------------------------

struct SweepCase {
  Dim3 grid, p, q;
  std::size_t n_s, n_j;
  LayoutId layout1, layout2;
};

class QesSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(QesSweep, BothAlgorithmsMatchReference) {
  const auto& c = GetParam();
  DatasetSpec spec;
  spec.grid = c.grid;
  spec.part1 = c.p;
  spec.part2 = c.q;
  spec.layout1 = c.layout1;
  spec.layout2 = c.layout2;
  ClusterSpec cspec;
  cspec.num_storage = c.n_s;
  cspec.num_compute = c.n_j;
  TestRig rig(spec, cspec);
  const auto ref = rig.reference();
  const auto ij = run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                   rig.graph, rig.query);
  const auto gh =
      run_grace_hash(*rig.cluster, *rig.bds, rig.ds.meta, rig.query);
  EXPECT_EQ(ij.result_tuples, ref.result_tuples);
  EXPECT_EQ(ij.result_fingerprint, ref.result_fingerprint);
  EXPECT_EQ(gh.result_tuples, ref.result_tuples);
  EXPECT_EQ(gh.result_fingerprint, ref.result_fingerprint);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QesSweep,
    ::testing::Values(
        SweepCase{{8, 8, 8}, {4, 4, 4}, {2, 2, 2}, 1, 1,
                  LayoutId::RowMajor, LayoutId::RowMajor},
        SweepCase{{8, 8, 8}, {2, 2, 2}, {4, 4, 4}, 3, 2,
                  LayoutId::ColMajor, LayoutId::BlockedRows},
        SweepCase{{16, 16, 4}, {4, 4, 4}, {4, 4, 4}, 2, 5,
                  LayoutId::RowMajor, LayoutId::ColMajor},
        SweepCase{{8, 8, 4}, {8, 8, 4}, {2, 2, 2}, 2, 3,
                  LayoutId::BlockedRows, LayoutId::RowMajor},
        SweepCase{{16, 8, 8}, {4, 8, 2}, {8, 2, 8}, 4, 4,
                  LayoutId::RowMajor, LayoutId::RowMajor},
        SweepCase{{16, 16, 8}, {2, 2, 2}, {4, 4, 8}, 5, 5,
                  LayoutId::ColMajor, LayoutId::ColMajor}));

// Shared-filesystem mode (Fig. 9 setup): still correct, and GH pays for
// funnelling every bucket write through the single server.
TEST(SharedFilesystem, BothCorrectAndGhSlower) {
  DatasetSpec spec = tiny_spec();
  ClusterSpec cspec = tiny_cluster();
  cspec.shared_filesystem = true;
  TestRig rig(spec, cspec);
  const auto ref = rig.reference();
  // Every storage_disk(i) and compute_disk(j) is the one NFS server: disk
  // totals must count it once, not n_s or n_c times.
  Disk& nfs = rig.cluster->storage_disk(0);
  ASSERT_EQ(&nfs, &rig.cluster->compute_disk(0));
  const double ij_r0 = nfs.bytes_read();
  const auto ij = run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                   rig.graph, rig.query);
  EXPECT_EQ(ij.storage_disk_read_bytes, nfs.bytes_read() - ij_r0);
  const double gh_r0 = nfs.bytes_read();
  const double gh_w0 = nfs.bytes_written();
  const std::uint64_t chunks0 = rig.bds->total_stats().chunk_bytes_read;
  const auto gh =
      run_grace_hash(*rig.cluster, *rig.bds, rig.ds.meta, rig.query);
  EXPECT_EQ(gh.storage_disk_read_bytes, nfs.bytes_read() - gh_r0);
  EXPECT_EQ(gh.scratch_read_bytes, nfs.bytes_read() - gh_r0);
  EXPECT_EQ(gh.scratch_write_bytes, nfs.bytes_written() - gh_w0);
  EXPECT_GT(gh.scratch_write_bytes, 0.0);
  // Every bucket byte written is read back. The server's reads also hold
  // the chunk reads, so scratch write equals scratch read once those are
  // taken out.
  const auto chunk_bytes = static_cast<double>(
      rig.bds->total_stats().chunk_bytes_read - chunks0);
  EXPECT_GT(chunk_bytes, 0.0);
  EXPECT_EQ(gh.scratch_write_bytes, gh.scratch_read_bytes - chunk_bytes);
  EXPECT_EQ(ij.result_tuples, ref.result_tuples);
  EXPECT_EQ(gh.result_tuples, ref.result_tuples);
  EXPECT_EQ(ij.result_fingerprint, ref.result_fingerprint);
  EXPECT_EQ(gh.result_fingerprint, ref.result_fingerprint);
  EXPECT_GT(gh.elapsed, ij.elapsed);
}

}  // namespace
}  // namespace orv
