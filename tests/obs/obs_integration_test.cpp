// End-to-end observability: run both QES algorithms on a tiny dataset
// with a context installed and check that the expected stages, counters
// and the QPS PlanValidation record come out — and that runs without a
// context record nothing.

#include <gtest/gtest.h>

#include <set>

#include "datagen/generator.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/sim_clock.hpp"
#include "qes/qes.hpp"
#include "qes/session.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

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

std::set<std::string> stage_names(const obs::ObsContext& ctx) {
  std::set<std::string> names;
  for (const auto& st : obs::aggregate_stages(ctx.tracer.snapshot())) {
    names.insert(st.name);
  }
  return names;
}

TEST(ObsIntegration, IndexedJoinEmitsStagesAndCounters) {
  auto spec = tiny_spec();
  auto cspec = tiny_cluster();
  spec.num_storage_nodes = cspec.num_storage;
  auto ds = generate_dataset(spec);

  sim::Engine engine;
  Cluster cluster(engine, cspec);
  BdsService bds(cluster, ds.meta, ds.stores);
  JoinQuery query{spec.table1_id, spec.table2_id, {"x", "y", "z"}, {}};
  const auto graph = ConnectivityGraph::build(ds.meta, query.left_table,
                                              query.right_table,
                                              query.join_attrs);

  obs::SimClock clock(engine);
  obs::ObsContext ctx(&clock);
  QesResult res;
  {
    obs::ScopedInstall install(ctx);
    res = run_indexed_join(cluster, bds, ds.meta, graph, query);
  }

  const auto names = stage_names(ctx);
  for (const char* expected :
       {"ij.node", "ij.fetch", "ij.build", "ij.probe", "bds.fetch"}) {
    EXPECT_TRUE(names.count(expected)) << "missing stage " << expected;
  }

  // Registry counters mirror the run's accounting.
  EXPECT_EQ(ctx.registry.counter("ij.subtable_fetches").value(),
            res.subtable_fetches);
  EXPECT_EQ(ctx.registry.counter("ij.hash_tables_built").value(),
            res.hash_tables_built);
  EXPECT_EQ(ctx.registry.counter("cache.misses").value(),
            res.cache_stats.misses);
  EXPECT_EQ(ctx.registry.counter("bds.subtables_served").value(),
            res.subtable_fetches);

  // Summed ij.node span time can exceed elapsed (nodes run in parallel)
  // but each node's span is bounded by the whole run.
  for (const auto& span : ctx.tracer.snapshot()) {
    EXPECT_TRUE(span.closed()) << span.name;
    EXPECT_LE(span.duration(), res.elapsed + 1e-9) << span.name;
    // fetch/build/probe spans hang off their node's span.
    if (span.name == "ij.fetch" || span.name == "ij.build" ||
        span.name == "ij.probe") {
      EXPECT_TRUE(span.parent) << span.name << " should have a parent";
    }
  }
}

TEST(ObsIntegration, GraceHashEmitsStagesAndCounters) {
  auto spec = tiny_spec();
  auto cspec = tiny_cluster();
  spec.num_storage_nodes = cspec.num_storage;
  auto ds = generate_dataset(spec);

  sim::Engine engine;
  Cluster cluster(engine, cspec);
  BdsService bds(cluster, ds.meta, ds.stores);
  JoinQuery query{spec.table1_id, spec.table2_id, {"x", "y", "z"}, {}};

  obs::SimClock clock(engine);
  obs::ObsContext ctx(&clock);
  QesResult res;
  {
    obs::ScopedInstall install(ctx);
    res = run_grace_hash(cluster, bds, ds.meta, query);
  }

  const auto names = stage_names(ctx);
  for (const char* expected :
       {"gh.partition", "gh.receive", "gh.bucket_join", "bds.produce"}) {
    EXPECT_TRUE(names.count(expected)) << "missing stage " << expected;
  }
  EXPECT_GT(ctx.registry.counter("gh.batches").value(), 0u);
  EXPECT_GT(ctx.registry.counter("gh.bucket_spill_bytes").value(), 0u);
  EXPECT_EQ(ctx.registry.counter("gh.bucket_spill_bytes").value(),
            ctx.registry.counter("gh.bucket_readback_bytes").value());
  EXPECT_EQ(ctx.registry.counter("gh.result_tuples").value(),
            res.result_tuples);
}

TEST(ObsIntegration, PlannerRecordsPlanValidation) {
  auto spec = tiny_spec();
  auto cspec = tiny_cluster();
  spec.num_storage_nodes = cspec.num_storage;
  auto ds = generate_dataset(spec);

  sim::Engine engine;
  Cluster cluster(engine, cspec);
  BdsService bds(cluster, ds.meta, ds.stores);
  JoinQuery query{spec.table1_id, spec.table2_id, {"x", "y", "z"}, {}};
  QesSession session(cluster, bds, ds.meta,
                     SessionConfig{.share_cache = false});

  obs::SimClock clock(engine);
  obs::ObsContext ctx(&clock);
  QesSession::Outcome outcome;
  {
    obs::ScopedInstall install(ctx);
    outcome = session.run(query, {});
  }
  const PlanDecision& decision = outcome.plan;
  const QesResult& res = outcome.result;

  const auto validations = ctx.plan_validations();
  ASSERT_EQ(validations.size(), 1u);
  const obs::PlanValidation& pv = validations[0];
  EXPECT_EQ(pv.chosen, algorithm_name(decision.chosen));
  EXPECT_EQ(pv.executed, pv.chosen);
  EXPECT_DOUBLE_EQ(pv.predicted, decision.predicted_seconds());
  EXPECT_DOUBLE_EQ(pv.measured, res.elapsed);
  EXPECT_GT(pv.measured, 0.0);
  EXPECT_GT(pv.error_ratio(), 0.0);

  // The profile assembled from this context's snapshot carries the plan
  // record.
  const auto profile =
      obs::build_profile(ctx.snapshot(), "q", pv.executed, res.elapsed);
  EXPECT_TRUE(profile.has_plan);
  EXPECT_DOUBLE_EQ(profile.plan.measured, res.elapsed);

  // A forced run reports the algorithm it ran and that algorithm's model
  // total, next to the plan's own choice.
  {
    obs::ScopedInstall install(ctx);
    outcome = session.run(query, {}, Algorithm::GraceHash);
  }
  ASSERT_EQ(outcome.plan.chosen, Algorithm::IndexedJoin);
  const auto forced = ctx.plan_validations();
  ASSERT_EQ(forced.size(), 2u);
  EXPECT_EQ(forced[1].chosen, algorithm_name(Algorithm::IndexedJoin));
  EXPECT_EQ(forced[1].executed, algorithm_name(Algorithm::GraceHash));
  EXPECT_NE(forced[1].executed, forced[1].chosen);
  EXPECT_DOUBLE_EQ(forced[1].predicted, outcome.plan.gh.total());
  EXPECT_DOUBLE_EQ(forced[1].measured, outcome.result.elapsed);
}

TEST(ObsIntegration, NoContextMeansNoRecording) {
  auto spec = tiny_spec();
  auto cspec = tiny_cluster();
  spec.num_storage_nodes = cspec.num_storage;
  auto ds = generate_dataset(spec);

  sim::Engine engine;
  Cluster cluster(engine, cspec);
  BdsService bds(cluster, ds.meta, ds.stores);
  JoinQuery query{spec.table1_id, spec.table2_id, {"x", "y", "z"}, {}};
  const auto graph = ConnectivityGraph::build(ds.meta, query.left_table,
                                              query.right_table,
                                              query.join_attrs);

  ASSERT_EQ(obs::context(), nullptr);
  const auto res = run_indexed_join(cluster, bds, ds.meta, graph, query);
  EXPECT_GT(res.result_tuples, 0u);  // runs fine, records nothing, no crash
}

}  // namespace
}  // namespace orv
