// Cross-query session caches (paper future work, "caching strategies"):
// repeated queries against warm per-node caches skip transfers entirely
// while staying exactly correct — including under changed predicates,
// because entries are cached raw and selection moves to the join output.

#include <gtest/gtest.h>

#include "datagen/generator.hpp"
#include "qes/session.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

struct Rig {
  GeneratedDataset ds;
  sim::Engine engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<BdsService> bds;
  std::unique_ptr<QesSession> session;  // shared, memory-sized LRU caches

  Rig() {
    DatasetSpec spec;
    spec.grid = {8, 8, 8};
    spec.part1 = {4, 4, 4};
    spec.part2 = {2, 2, 2};
    spec.num_storage_nodes = 2;
    ds = generate_dataset(spec);
    ClusterSpec cspec;
    cspec.num_storage = 2;
    cspec.num_compute = 2;
    cluster = std::make_unique<Cluster>(engine, cspec);
    bds = std::make_unique<BdsService>(*cluster, ds.meta, ds.stores);
    session = std::make_unique<QesSession>(*cluster, *bds, ds.meta);
  }

  QesResult run(const JoinQuery& query, const QesOptions& options = {}) {
    return session->run(query, options, Algorithm::IndexedJoin).result;
  }
};

TEST(SessionCache, SecondRunTransfersNothing) {
  Rig rig;
  JoinQuery query{1, 2, {"x", "y", "z"}, {}};
  const auto cold = rig.run(query);
  const auto warm = rig.run(query);
  EXPECT_EQ(cold.result_tuples, 512u);
  EXPECT_EQ(warm.result_tuples, 512u);
  EXPECT_EQ(warm.result_fingerprint, cold.result_fingerprint);
  EXPECT_GT(cold.subtable_fetches, 0u);
  EXPECT_EQ(warm.subtable_fetches, 0u);         // all hits
  EXPECT_DOUBLE_EQ(warm.network_bytes, 0.0);    // nothing on the wire
  EXPECT_LT(warm.elapsed, cold.elapsed);
  EXPECT_EQ(warm.cache_stats.misses, 0u);
  // Hash tables were cached too: none rebuilt.
  EXPECT_EQ(warm.hash_tables_built, 0u);
}

TEST(SessionCache, DifferentPredicateStillCorrectOnWarmCache) {
  Rig rig;
  JoinQuery full{1, 2, {"x", "y", "z"}, {}};
  const auto cold = rig.run(full);  // warm the caches raw

  JoinQuery narrow{1, 2, {"x", "y", "z"}, {{"x", {0, 3}}, {"wp", {0.0, 0.5}}}};
  const auto res = rig.run(narrow);
  const auto ref = reference_join(rig.ds.meta, rig.ds.stores, narrow);
  EXPECT_EQ(res.result_tuples, ref.result_tuples);
  EXPECT_EQ(res.result_fingerprint, ref.result_fingerprint);
  // Mostly served from cache; a few components land on a different node
  // under the pruned graph's round-robin and re-fetch.
  EXPECT_LT(res.network_bytes, 0.5 * cold.network_bytes);
}

TEST(SessionCache, ColdRunWithPredicateMatchesReference) {
  Rig rig;
  JoinQuery narrow{1, 2, {"x", "y", "z"}, {{"y", {2, 5}}}};
  const auto res = rig.run(narrow);
  const auto ref = reference_join(rig.ds.meta, rig.ds.stores, narrow);
  EXPECT_EQ(res.result_tuples, ref.result_tuples);
  EXPECT_EQ(res.result_fingerprint, ref.result_fingerprint);
}

TEST(SessionCache, StatsReportPerRunDeltas) {
  Rig rig;
  JoinQuery query{1, 2, {"x", "y", "z"}, {}};
  const auto cold = rig.run(query);
  const auto warm = rig.run(query);
  // The warm run's stats must not include the cold run's misses.
  EXPECT_GT(cold.cache_stats.misses, 0u);
  EXPECT_EQ(warm.cache_stats.misses, 0u);
  EXPECT_GT(warm.cache_stats.hits, 0u);
}

TEST(SessionCache, CacheAffinityEliminatesPrunedGraphRefetches) {
  Rig rig;
  JoinQuery full{1, 2, {"x", "y", "z"}, {}};
  rig.run(full);  // warm

  JoinQuery narrow{1, 2, {"x", "y", "z"}, {{"x", {0, 3}}}};
  QesOptions options;
  options.assign = ComponentAssign::CacheAffinity;
  const auto res = rig.run(narrow, options);
  const auto ref = reference_join(rig.ds.meta, rig.ds.stores, narrow);
  EXPECT_EQ(res.result_tuples, ref.result_tuples);
  EXPECT_EQ(res.result_fingerprint, ref.result_fingerprint);
  EXPECT_EQ(res.subtable_fetches, 0u);        // affinity found every entry
  EXPECT_DOUBLE_EQ(res.network_bytes, 0.0);
}

TEST(SessionCache, CacheAffinityOnColdCachesFallsBackToRoundRobin) {
  Rig rig;
  JoinQuery query{1, 2, {"x", "y", "z"}, {}};
  QesOptions options;
  options.assign = ComponentAssign::CacheAffinity;
  const auto res = rig.run(query, options);
  EXPECT_EQ(res.result_tuples, 512u);
  EXPECT_GT(res.subtable_fetches, 0u);  // nothing cached yet
}

TEST(SessionCache, PrivateCachesApplyTheSessionCacheSettings) {
  // With sharing off, the session's size and policy still configure the
  // per-query caches: a tight FIFO cache thrashes where the default
  // (memory-sized LRU) one fetches every sub-table once.
  Rig rig;
  JoinQuery query{1, 2, {"x", "y", "z"}, {}};
  QesOptions options;
  options.pair_order = PairOrder::Shuffled;
  options.seed = 3;
  QesSession roomy(*rig.cluster, *rig.bds, rig.ds.meta,
                   {.share_cache = false});
  QesSession tight(*rig.cluster, *rig.bds, rig.ds.meta,
                   {.share_cache = false,
                    .cache_bytes = 8 * 1024,
                    .cache_policy = CachePolicy::FIFO});
  const auto base = roomy.run(query, options, Algorithm::IndexedJoin).result;
  const auto res = tight.run(query, options, Algorithm::IndexedJoin).result;
  EXPECT_EQ(base.cache_stats.evictions, 0u);
  EXPECT_GT(res.cache_stats.evictions, 0u);
  EXPECT_GT(res.subtable_fetches, base.subtable_fetches);
  EXPECT_EQ(res.result_fingerprint, base.result_fingerprint);
  EXPECT_TRUE(tight.node_caches().empty());  // nothing persists
}

}  // namespace
}  // namespace orv
