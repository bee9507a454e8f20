// Trace assembly + critical-path analysis: hand-built DAGs with known
// answers (chain, diamond, fan-in with ties, retry duplicates, open
// spans), then end-to-end on a Figure-4 configuration where the per-stage
// attribution must sum to the measured elapsed time and agree with the
// cost model about the dominant stage — for both algorithms — and the
// exported Chrome trace must carry cross-node links for every fetch and
// h1 transfer.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "datagen/generator.hpp"
#include "graph/connectivity.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/obs.hpp"
#include "obs/sim_clock.hpp"
#include "obs/trace.hpp"
#include "qes/analysis.hpp"
#include "qes/qes.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

obs::SpanRecord mk(std::uint32_t id, std::uint32_t parent, const char* name,
                   double start, double end, std::uint32_t link = 0) {
  obs::SpanRecord rec;
  rec.id = obs::SpanId{id};
  rec.parent = obs::SpanId{parent};
  rec.link = obs::SpanId{link};
  rec.name = name;
  rec.start = start;
  rec.end = end;
  return rec;
}

double sum_segments(const obs::CriticalPath& cp) {
  double total = 0;
  for (const auto& seg : cp.segments) total += seg.duration();
  return total;
}

void expect_contiguous(const obs::CriticalPath& cp, double begin,
                       double end) {
  ASSERT_FALSE(cp.segments.empty());
  EXPECT_DOUBLE_EQ(cp.segments.front().begin, begin);
  EXPECT_DOUBLE_EQ(cp.segments.back().end, end);
  for (std::size_t i = 1; i < cp.segments.size(); ++i) {
    EXPECT_DOUBLE_EQ(cp.segments[i].begin, cp.segments[i - 1].end);
  }
}

TEST(CriticalPath, ChainDescendsThroughNestedSpans) {
  // root[0,10] > ij.fetch[1,9] > bds.produce[2,8]; the walk attributes the
  // produce's disk time to it and the fetch/root get the uncovered edges.
  const auto dag = obs::TraceDag::assemble({
      mk(1, 0, "q", 0, 10),
      mk(2, 1, "ij.fetch", 1, 9),
      mk(3, 2, "bds.produce", 2, 8),
  });
  const auto cp = obs::critical_path(dag, obs::SpanId{1});
  EXPECT_DOUBLE_EQ(cp.total, 10);
  EXPECT_DOUBLE_EQ(sum_segments(cp), 10);
  expect_contiguous(cp, 0, 10);
  EXPECT_DOUBLE_EQ(cp.stage_seconds(obs::Stage::Disk), 6);     // produce
  EXPECT_DOUBLE_EQ(cp.stage_seconds(obs::Stage::Network), 2);  // fetch edges
  EXPECT_DOUBLE_EQ(cp.stage_seconds(obs::Stage::Other), 2);    // root edges
  EXPECT_EQ(cp.dominant(), obs::Stage::Disk);
}

TEST(CriticalPath, DiamondPicksLatestEndingBranchFirst) {
  // Two sequential children: the walk takes probe[5,9], then build[0,5],
  // leaving the root only its own [9,10] tail.
  const auto dag = obs::TraceDag::assemble({
      mk(1, 0, "q", 0, 10),
      mk(2, 1, "ij.build", 0, 5),
      mk(3, 1, "ij.probe", 5, 9),
  });
  const auto cp = obs::critical_path(dag, obs::SpanId{1});
  EXPECT_DOUBLE_EQ(cp.total, 10);
  expect_contiguous(cp, 0, 10);
  EXPECT_DOUBLE_EQ(cp.stage_seconds(obs::Stage::Cpu), 9);
  EXPECT_DOUBLE_EQ(cp.stage_seconds(obs::Stage::Other), 1);
  EXPECT_EQ(cp.dominant(), obs::Stage::Cpu);
  ASSERT_EQ(cp.segments.size(), 3u);
  EXPECT_EQ(cp.segments[0].name, "ij.build");
  EXPECT_EQ(cp.segments[1].name, "ij.probe");
  EXPECT_EQ(cp.segments[2].name, "q");
}

TEST(CriticalPath, FanInTieBreaksTowardLongerSpanThenLowerId) {
  // a and b both end at 6; a is longer so it wins the tie and b never
  // appears on the path.
  const auto dag = obs::TraceDag::assemble({
      mk(1, 0, "q", 0, 10),
      mk(2, 1, "a", 0, 6),
      mk(3, 1, "b", 2, 6),
  });
  const auto cp = obs::critical_path(dag, obs::SpanId{1});
  EXPECT_DOUBLE_EQ(cp.total, 10);
  expect_contiguous(cp, 0, 10);
  for (const auto& seg : cp.segments) EXPECT_NE(seg.name, "b");

  // Equal end AND equal duration: the lower id is chosen, so the result
  // stays deterministic across snapshot orderings.
  const auto dag2 = obs::TraceDag::assemble({
      mk(1, 0, "q", 0, 10),
      mk(4, 1, "late", 2, 6),
      mk(3, 1, "early", 2, 6),
  });
  const auto cp2 = obs::critical_path(dag2, obs::SpanId{1});
  bool saw_early = false;
  for (const auto& seg : cp2.segments) {
    EXPECT_NE(seg.name, "late");
    saw_early |= seg.name == "early";
  }
  EXPECT_TRUE(saw_early);
  EXPECT_DOUBLE_EQ(sum_segments(cp2), 10);
}

TEST(CriticalPath, RetryDuplicatesBothAppearAndZeroDurationTerminates) {
  // A retried fetch leaves two sibling spans with the same name; both lie
  // on the path. The zero-duration marker at t=10 must not loop the walk.
  const auto dag = obs::TraceDag::assemble({
      mk(1, 0, "q", 0, 10),
      mk(2, 1, "ij.fetch", 0, 4),
      mk(3, 1, "ij.fetch", 4, 8),  // retry of the same sub-table
      mk(4, 1, "marker", 10, 10),
      mk(5, 1, "marker", 10, 10),
  });
  const auto cp = obs::critical_path(dag, obs::SpanId{1});
  EXPECT_DOUBLE_EQ(cp.total, 10);
  EXPECT_DOUBLE_EQ(sum_segments(cp), 10);
  EXPECT_DOUBLE_EQ(cp.stage_seconds(obs::Stage::Network), 8);
}

TEST(CriticalPath, OpenSpansAreNeverChosenAndOpenRootYieldsEmpty) {
  const auto dag = obs::TraceDag::assemble({
      mk(1, 0, "q", 0, 10),
      mk(2, 1, "ij.fetch", 0, -1),  // still open: ignored
  });
  EXPECT_EQ(dag.open_count(), 1u);
  const auto cp = obs::critical_path(dag, obs::SpanId{1});
  EXPECT_DOUBLE_EQ(cp.total, 10);
  ASSERT_EQ(cp.segments.size(), 1u);
  EXPECT_EQ(cp.segments[0].name, "q");

  const auto open_root = obs::TraceDag::assemble({mk(1, 0, "q", 0, -1)});
  const auto cp2 = obs::critical_path(open_root, obs::SpanId{1});
  EXPECT_TRUE(cp2.segments.empty());
  EXPECT_DOUBLE_EQ(cp2.total, 0);
}

TEST(CriticalPath, LinkParentIsFollowedAcrossNodes) {
  // Receiver-side ingest[4,8] links to the sender's send[1,7] on another
  // track: the walk hops across and attributes the sender's time.
  const auto dag = obs::TraceDag::assemble({
      mk(1, 0, "q", 0, 10),
      mk(2, 1, "gh.receive", 0, 9),
      mk(3, 2, "gh.ingest", 4, 8, /*link=*/4),
      mk(4, 0, "gh.send", 1, 7),
  });
  const auto cp = obs::critical_path(dag, obs::SpanId{1});
  EXPECT_DOUBLE_EQ(cp.total, 10);
  EXPECT_DOUBLE_EQ(sum_segments(cp), 10);
  bool saw_send = false;
  for (const auto& seg : cp.segments) saw_send |= seg.name == "gh.send";
  EXPECT_TRUE(saw_send);
}

TEST(TraceDag, MissingParentBecomesRootAndDuplicateIdsKeepLast) {
  const auto dag = obs::TraceDag::assemble({
      mk(1, 0, "a", 0, 5),
      mk(2, 99, "orphan-parented", 1, 2),  // parent not in snapshot
      mk(3, 1, "dup", 0, 1),
      mk(3, 1, "dup", 2, 3),  // duplicate id: last write wins
  });
  EXPECT_EQ(dag.find(obs::SpanId{99}), nullptr);
  ASSERT_EQ(dag.roots().size(), 2u);
  const obs::SpanRecord* dup = dag.find(obs::SpanId{3});
  ASSERT_NE(dup, nullptr);
  EXPECT_DOUBLE_EQ(dup->start, 2);
}

// ---------------------------------------------------------------------
// End-to-end on a Figure-4 configuration (paper setup: 64^3 grid, 5+5
// nodes). The critical-path stage attribution must sum to the measured
// query time and agree with the cost model's dominant term.

struct Fig4Run {
  QesResult result;
  std::vector<obs::SpanRecord> spans;
  std::vector<obs::TimeSeries> series;
  CostBreakdown model;
};

Fig4Run run_fig4(bool indexed_join, std::uint64_t part_scale,
                 double sample_interval = 0) {
  DatasetSpec spec;
  spec.grid = {64, 64, 64};
  spec.part1 = {32, 32 / part_scale, 8};
  spec.part2 = {32 / part_scale, 32, 8};
  ClusterSpec cspec;
  cspec.num_storage = 5;
  cspec.num_compute = 5;
  spec.num_storage_nodes = cspec.num_storage;
  auto ds = generate_dataset(spec);

  Fig4Run out;
  CostParams params = CostParams::from(
      cspec, ds.stats, table1_schema(spec)->record_size(),
      table2_schema(spec)->record_size(), 1.0);
  const QesOptions options;  // serial: additive cost models apply
  params.batch_bytes = static_cast<double>(options.batch_bytes);
  params.bucket_pair_bytes = static_cast<double>(options.bucket_pair_bytes);
  out.model = cost(
      indexed_join ? Algorithm::IndexedJoin : Algorithm::GraceHash, params);

  sim::Engine engine;
  Cluster cluster(engine, cspec);
  BdsService bds(cluster, ds.meta, ds.stores);
  JoinQuery query{spec.table1_id, spec.table2_id, {"x", "y", "z"}, {}};

  obs::SimClock clock(engine);
  obs::ObsContext ctx(&clock);
  ctx.sample_interval = sample_interval;
  {
    obs::ScopedInstall install(ctx);
    if (indexed_join) {
      const auto graph = ConnectivityGraph::build(
          ds.meta, query.left_table, query.right_table, query.join_attrs);
      out.result = run_indexed_join(cluster, bds, ds.meta, graph, query,
                                    options);
    } else {
      out.result = run_grace_hash(cluster, bds, ds.meta, query, options);
    }
  }
  out.spans = ctx.tracer.snapshot();
  out.series = ctx.time_series();
  return out;
}

void check_attribution(const Fig4Run& run, Algorithm algorithm) {
  EXPECT_EQ(obs::TraceDag::assemble(run.spans).open_count(), 0u);
  const QueryAnalysis a =
      analyze_query(run.spans, algorithm, run.result, run.model);
  const obs::CriticalPath& cp = a.diag.path;
  ASSERT_FALSE(cp.segments.empty());
  // Stage attribution must account for the measured query time within 5%
  // (contiguity makes it exact; the tolerance guards double rounding).
  EXPECT_NEAR(cp.total, run.result.elapsed, 0.05 * run.result.elapsed);
  EXPECT_NEAR(sum_segments(cp), cp.total, 1e-9);

  // One accuracy record per stage; the measured side covers the whole
  // critical path and the predicted side is the model's term for it.
  ASSERT_EQ(a.stages.size(), obs::kNumStages);
  const double terms[] = {run.model.transfer, run.model.read,
                          run.model.write,    run.model.cpu(),
                          0.0,                0.0};
  const char* names[] = {"network", "disk", "spill",
                         "cpu",     "cache_wait", "other"};
  double measured = 0;
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].stage, names[i]);
    EXPECT_DOUBLE_EQ(a.stages[i].predicted, terms[i]) << names[i];
    measured += a.stages[i].measured;
  }
  EXPECT_NEAR(measured, cp.total, 1e-9);

  // The critical path agrees with the cost model about the dominant stage
  // (the model's largest term; ties go to the earlier stage).
  std::size_t model_dom = 0;
  for (std::size_t i = 1; i < a.stages.size(); ++i) {
    if (a.stages[i].predicted > a.stages[model_dom].predicted) model_dom = i;
  }
  EXPECT_EQ(a.stages[model_dom].stage, obs::stage_name(cp.dominant()));
}

TEST(TraceEndToEnd, Fig4IndexedJoinAttributionMatchesModel) {
  // Left of the crossover (s=1): the IJ is transfer-bound.
  check_attribution(run_fig4(true, 1), Algorithm::IndexedJoin);
  // Right of the crossover (s=32): the lookup term dominates.
  check_attribution(run_fig4(true, 32), Algorithm::IndexedJoin);
}

TEST(TraceEndToEnd, Fig4GraceHashAttributionMatchesModel) {
  check_attribution(run_fig4(false, 1), Algorithm::GraceHash);
}

TEST(TraceEndToEnd, CrossNodeLinksCoverEveryFetchAndTransfer) {
  const Fig4Run ij = run_fig4(true, 1);
  const auto ij_dag = obs::TraceDag::assemble(ij.spans);
  std::size_t fetches = 0;
  for (const auto& s : ij.spans) {
    if (s.name != "bds.fetch") continue;
    ++fetches;
    // Every storage-side fetch span parents on the compute-side request.
    ASSERT_TRUE(s.parent) << "bds.fetch without a requesting span";
    const obs::SpanRecord* parent = ij_dag.find(s.parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->name, "ij.fetch");
  }
  EXPECT_GT(fetches, 0u);

  const Fig4Run gh = run_fig4(false, 1);
  const auto gh_dag = obs::TraceDag::assemble(gh.spans);
  std::size_t ingests = 0;
  for (const auto& s : gh.spans) {
    if (s.name != "gh.ingest") continue;
    ++ingests;
    // Every h1 batch ingest links back to the sender's flush span.
    ASSERT_TRUE(s.link) << "gh.ingest without a causal link";
    const obs::SpanRecord* sender = gh_dag.find(s.link);
    ASSERT_NE(sender, nullptr);
    EXPECT_EQ(sender->name, "gh.send");
  }
  EXPECT_GT(ingests, 0u);
}

TEST(TraceEndToEnd, ChromeTraceExportIsWellFormedWithFlows) {
  const Fig4Run gh = run_fig4(false, 1, /*sample_interval=*/0.01);
  const std::string json = obs::chrome_trace_json(
      {obs::ChromeTraceQuery{"fig4/gh", gh.spans, gh.series}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"openSpans\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Cross-node edges exported as flow event pairs: h1 transfers and RPCs.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"h1\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"rpc\""), std::string::npos);
  // Occupancy samples exported as counter events.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("occupancy.storage_disk"), std::string::npos);
}

TEST(TraceEndToEnd, SamplerDoesNotPerturbMeasuredElapsed) {
  const Fig4Run plain = run_fig4(false, 1);
  const Fig4Run sampled = run_fig4(false, 1, /*sample_interval=*/0.01);
  EXPECT_DOUBLE_EQ(plain.result.elapsed, sampled.result.elapsed);
  EXPECT_EQ(plain.result.result_tuples, sampled.result.result_tuples);
  EXPECT_EQ(plain.result.result_fingerprint,
            sampled.result.result_fingerprint);
  ASSERT_FALSE(sampled.series.empty());
  bool saw_occupancy = false;
  for (const auto& ts : sampled.series) {
    saw_occupancy |= ts.name == "occupancy.storage_disk";
    EXPECT_FALSE(ts.points.empty()) << ts.name;
  }
  EXPECT_TRUE(saw_occupancy);
}

}  // namespace
}  // namespace orv
