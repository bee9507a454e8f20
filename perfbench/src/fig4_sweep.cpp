// fig4_sweep: the paper's Fig. 4 dataset family. Six shapes of a 64^3
// grid, p = (32, 32/s, 8) and q = (32/s, 32, 8) for s in {1,...,32}, on
// MemoryChunkStores; every shape's full-view join runs through Indexed
// Join and Grace Hash, serial and pipelined, each on a fresh simulated
// 5 storage + 5 compute cluster: 24 executions per pass.

#include <cmath>
#include <cstdio>
#include <optional>

#include "cluster/cluster.hpp"
#include "common/strings.hpp"
#include "datagen/generator.hpp"
#include "graph/connectivity.hpp"
#include "qes/qes.hpp"
#include "qps/planner.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using orv::Algorithm;

constexpr std::uint64_t kScales[] = {1, 2, 4, 8, 16, 32};
constexpr std::size_t kShapes = std::size(kScales);
constexpr std::size_t kExecutions = kShapes * 4;

/// Host seconds budgeted per timed pass; the number of passes is derived
/// from --seconds with it, so a given --seconds always runs the same work.
constexpr double kPassBudgetSeconds = 3.6;

/// Set-up repetitions whose median is setup_s.
constexpr int kSetupRepeats = 5;

orv::ClusterSpec cluster_spec() {
  orv::ClusterSpec c;
  c.num_storage = 5;
  c.num_compute = 5;
  return c;
}

struct Shape {
  orv::DatasetSpec spec;
  orv::MetaDataService meta;
  std::vector<std::shared_ptr<orv::ChunkStore>> stores;
  std::optional<orv::ConnectivityGraph> graph;
  orv::JoinQuery query;
};

struct SetupStats {
  double datagen_seconds = 0;
  double datagen_bytes = 0;
  double graph_ms = 0;
  std::uint64_t edges = 0;
};

std::vector<Shape> build_shapes(std::uint64_t seed, bool timed,
                                SetupStats& stats) {
  std::vector<Shape> shapes(kShapes);
  for (std::size_t i = 0; i < kShapes; ++i) {
    Shape& sh = shapes[i];
    const std::uint64_t s = kScales[i];
    sh.spec.grid = {64, 64, 64};
    sh.spec.part1 = {32, 32 / s, 8};
    sh.spec.part2 = {32 / s, 32, 8};
    sh.spec.num_storage_nodes = 5;
    sh.spec.seed = seed;
    for (std::size_t n = 0; n < sh.spec.num_storage_nodes; ++n) {
      sh.stores.push_back(std::make_shared<orv::MemoryChunkStore>());
    }
    if (timed) sh.stores = timed_stores(sh.stores);
    {
      Span span("datagen.generate");
      const std::int64_t t0 = now_ns();
      orv::generate_dataset_into(sh.spec, sh.meta, sh.stores);
      stats.datagen_seconds += static_cast<double>(now_ns() - t0) / 1e9;
    }
    stats.datagen_bytes +=
        static_cast<double>(sh.meta.table_bytes(sh.spec.table1_id) +
                            sh.meta.table_bytes(sh.spec.table2_id));
    sh.query = {sh.spec.table1_id, sh.spec.table2_id, {"x", "y", "z"}, {}};
    {
      Span span("graph.build");
      const std::int64_t t0 = now_ns();
      sh.graph.emplace(orv::ConnectivityGraph::build(
          sh.meta, sh.query.left_table, sh.query.right_table,
          sh.query.join_attrs));
      stats.graph_ms += ms_since(t0);
    }
    stats.edges += sh.graph->num_edges();
  }
  return shapes;
}

struct Execution {
  std::size_t shape = 0;
  Algorithm algorithm = Algorithm::IndexedJoin;
  bool pipelined = false;

  std::string label() const {
    return orv::strformat("s=%-2llu %-2s %s",
                          static_cast<unsigned long long>(kScales[shape]),
                          algorithm == Algorithm::IndexedJoin ? "IJ" : "GH",
                          pipelined ? "pipelined" : "serial");
  }
};

std::vector<Execution> pass_order() {
  std::vector<Execution> out;
  for (std::size_t i = 0; i < kShapes; ++i) {
    for (const Algorithm a : {Algorithm::IndexedJoin, Algorithm::GraceHash}) {
      for (const bool p : {false, true}) out.push_back({i, a, p});
    }
  }
  return out;
}

struct ExecResult {
  HostInterval host;
  orv::QesResult qes;
  std::uint64_t events = 0;
  orv::BdsStats bds;
};

ExecResult execute(const Shape& sh, const Execution& e) {
  orv::QesOptions options;
  if (e.pipelined) {
    options.prefetch_lookahead = 4;
    options.gh_double_buffer = true;
  }
  ExecResult r;
  tracer().begin_query();
  {
    Span span("qes.query");
    const std::int64_t start = now_ns();
    try {
      orv::sim::Engine engine;
      orv::Cluster cluster(engine, cluster_spec());
      orv::BdsService bds(cluster, sh.meta, sh.stores);
      r.qes = e.algorithm == Algorithm::IndexedJoin
                  ? orv::run_indexed_join(cluster, bds, sh.meta, *sh.graph,
                                          sh.query, options)
                  : orv::run_grace_hash(cluster, bds, sh.meta, sh.query,
                                        options);
      r.events = engine.events_processed();
      r.bds = bds.total_stats();
    } catch (const std::exception& ex) {
      // The empty result fails its check, which counts the failure.
      std::fprintf(stderr, "perfbench: %s: %s\n", e.label().c_str(),
                   ex.what());
    }
    r.host = {start, now_ns()};
  }
  tracer().end_query();
  return r;
}

/// One pass over all 24 executions; every result is checked against its
/// shape's reference when `report` is given (the warm-up pass is not).
std::vector<ExecResult> run_pass(
    const std::vector<Shape>& shapes,
    const std::vector<orv::ReferenceResult>& refs, Report* report) {
  std::vector<ExecResult> out;
  for (const Execution& e : pass_order()) {
    gauge().maybe_sample();
    ExecResult r = execute(shapes[e.shape], e);
    if (report) {
      const auto& ref = refs[e.shape];
      report->check(r.qes.result_fingerprint, r.qes.result_tuples,
                    ref.result_fingerprint, ref.result_tuples);
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::size_t passes_for(double seconds) {
  return static_cast<std::size_t>(
      std::max(2.0, std::round(seconds / kPassBudgetSeconds)));
}

/// Timed passes, indexed [pass][execution].
struct Timed {
  std::vector<std::vector<ExecResult>> passes;

  std::vector<HostInterval> intervals() const {
    std::vector<HostInterval> v;
    for (const auto& pass : passes) {
      for (const auto& r : pass) v.push_back(r.host);
    }
    return v;
  }
  /// Executions per scaled host second.
  double host_qps() const {
    return static_cast<double>(passes.size() * kExecutions) /
           scaled_seconds(intervals());
  }
};

Timed timed_passes(const std::vector<Shape>& shapes,
                   const std::vector<orv::ReferenceResult>& refs,
                   std::size_t n, Report& report) {
  Timed t;
  for (std::size_t p = 0; p < n; ++p) {
    t.passes.push_back(run_pass(shapes, refs, &report));
  }
  gauge().sample();
  return t;
}

std::vector<orv::ReferenceResult> references(const std::vector<Shape>& shapes) {
  std::vector<orv::ReferenceResult> refs;
  for (const Shape& sh : shapes) {
    refs.push_back(orv::reference_join(sh.meta, sh.stores, sh.query));
  }
  return refs;
}

void report_end_to_end(const Options& options, Report& report) {
  gauge().sample();
  std::vector<HostInterval> setups;
  std::vector<Shape> shapes;
  for (int i = 0; i < kSetupRepeats; ++i) {
    shapes.clear();
    SetupStats stats;
    gauge().maybe_sample();
    const std::int64_t start = now_ns();
    shapes = build_shapes(options.seed, false, stats);
    setups.push_back({start, now_ns()});
  }
  const auto refs = references(shapes);
  reset_peak_rss();
  run_pass(shapes, refs, nullptr);  // warm-up
  const Timed t =
      timed_passes(shapes, refs, passes_for(options.seconds), report);

  // p50: median of the 24 per-execution-class medians, so it never rests
  // on one sample at the boundary between two classes of different cost.
  const auto order = pass_order();
  std::vector<double> class_medians, raw_class_medians, all, all_raw;
  for (std::size_t e = 0; e < kExecutions; ++e) {
    std::vector<double> v, raw;
    for (const auto& pass : t.passes) {
      v.push_back(gauge().scaled_ms(pass[e].host));
      raw.push_back(raw_seconds({pass[e].host}) * 1e3);
    }
    all.insert(all.end(), v.begin(), v.end());
    all_raw.insert(all_raw.end(), raw.begin(), raw.end());
    class_medians.push_back(median(v));
    raw_class_medians.push_back(median(raw));
    report.note(orv::strformat("class %-22s host_ms_p50 %9.3f  sim_ms %9.3f",
                               order[e].label().c_str(), median(v),
                               t.passes[0][e].qes.elapsed * 1e3));
  }
  const Tail host_tail = tail(all);
  report.note(orv::strformat(
      "query_host_ms_tail is p%.2f over %zu executions (%zu passes)",
      host_tail.percentile, host_tail.samples, t.passes.size()));
  report.note(orv::strformat(
      "unscaled: setup_s %.4f, query_host_ms p50 %.3f tail %.3f, "
      "host_qps %.4f",
      median_seconds(setups, false), median(raw_class_medians),
      tail(all_raw).value,
      static_cast<double>(all_raw.size()) / raw_seconds(t.intervals())));
  note_gauge(report);

  report.metric("setup_s", median_seconds(setups, true), "s");
  report.metric("host_qps", t.host_qps(), "q/s");
  report.metric("query_host_ms_p50", median(class_medians), "ms");
  report.metric("query_host_ms_tail", host_tail.value, "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_per_layer(const Options& options, Report& report) {
  gauge().sample();
  const std::size_t n =
      std::max<std::size_t>(1, passes_for(options.seconds) / 2);

  // Untraced phase on plain stores: the baseline the traced phase must
  // reproduce exactly, and the denominator of the tracing overhead.
  std::vector<orv::ReferenceResult> refs;
  Timed untraced;
  {
    SetupStats stats;
    const auto shapes = build_shapes(options.seed, false, stats);
    refs = references(shapes);
    run_pass(shapes, refs, nullptr);  // warm-up
    untraced = timed_passes(shapes, refs, n, report);
  }

  // Traced phase: timed stores, timed extractors, spans on.
  install_timed_extractors();
  tracer().set_enabled(true);
  SetupStats stats;
  const auto shapes = build_shapes(options.seed, true, stats);
  const Timed traced = timed_passes(shapes, refs, n, report);
  tracer().set_enabled(false);

  // Every fingerprint and virtual time must match the untraced run.
  std::uint64_t mismatches = 0;
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t e = 0; e < kExecutions; ++e) {
      const auto& a = untraced.passes[p][e].qes;
      const auto& b = traced.passes[p][e].qes;
      if (a.elapsed != b.elapsed || a.result_fingerprint !=
                                        b.result_fingerprint ||
          untraced.passes[p][e].events != traced.passes[p][e].events) {
        ++mismatches;
      }
    }
  }
  std::vector<std::shared_ptr<orv::ChunkStore>> all_stores;
  for (const auto& sh : shapes) {
    all_stores.insert(all_stores.end(), sh.stores.begin(), sh.stores.end());
  }
  report_traced_run(report,
                    {mismatches, untraced.host_qps(), traced.host_qps(),
                     stats.datagen_bytes, stats.datagen_seconds},
                    all_stores);

  // Per-pass counts from the first traced pass (exact, repeatable).
  const auto& pass = traced.passes[0];
  orv::QesResult sum;
  std::uint64_t events = 0;
  orv::BdsStats bds;
  std::vector<double> sim_ms;
  for (const auto& r : pass) {
    sum.join_stats += r.qes.join_stats;
    sum.hash_tables_built += r.qes.hash_tables_built;
    sum.network_bytes += r.qes.network_bytes;
    sum.net_frames_sent += r.qes.net_frames_sent;
    sum.cache_stats.hits += r.qes.cache_stats.hits;
    sum.cache_stats.misses += r.qes.cache_stats.misses;
    sum.cache_stats.evictions += r.qes.cache_stats.evictions;
    events += r.events;
    bds.subtables_served += r.bds.subtables_served;
    bds.chunk_bytes_read += r.bds.chunk_bytes_read;
    sim_ms.push_back(r.qes.elapsed * 1e3);
  }
  report.metric("join.tuples_probed",
                static_cast<double>(sum.join_stats.probe_tuples), "count");
  report.metric("join.hash_tables_built",
                static_cast<double>(sum.hash_tables_built), "count");
  report.metric("sim.events",
                static_cast<double>(events) / static_cast<double>(kExecutions),
                "count");
  double sim_seconds = 0;
  for (const double ms : sim_ms) sim_seconds += ms / 1e3;
  report.metric("sim.latency_ms_p50", median(sim_ms), "virtual_ms");
  report.metric("sim.latency_ms_tail", tail(sim_ms).value, "virtual_ms");
  report.metric("sim.qps", static_cast<double>(kExecutions) / sim_seconds,
                "q/virtual_s");
  report.unmeasured("sim.qps_at_slo", "q/virtual_s");
  report.metric("exec.self_ms_p50",
                median(tracer().self_ms_excluding(
                    "qes.query", {"chunkio.", "extract."})),
                "ms");
  report.metric("bds.subtables_served",
                static_cast<double>(bds.subtables_served), "count");
  report.metric("bds.chunk_bytes_read",
                static_cast<double>(bds.chunk_bytes_read), "B");
  report.metric("net.bytes", sum.network_bytes, "B");
  report.metric("net.frames", static_cast<double>(sum.net_frames_sent),
                "count");
  const auto lookups = sum.cache_stats.hits + sum.cache_stats.misses;
  report.metric("cache.hits", static_cast<double>(sum.cache_stats.hits),
                "count");
  report.metric("cache.lookups", static_cast<double>(lookups), "count");
  report.metric("cache.hit_ratio",
                lookups ? static_cast<double>(sum.cache_stats.hits) /
                              static_cast<double>(lookups)
                        : 0.0,
                "ratio");
  report.metric("cache.evictions",
                static_cast<double>(sum.cache_stats.evictions), "count");
  report.metric("graph.build_ms", stats.graph_ms, "ms");
  report.metric("graph.edges", static_cast<double>(stats.edges), "count");

  // Planner: timed plan() per shape, model error against the serial
  // simulated times, and whether the pick matches the simulated winner.
  const orv::QueryPlanner planner(cluster_spec());
  std::vector<double> plan_us, ij_err, gh_err;
  std::size_t agrees = 0;
  const auto order = pass_order();
  for (std::size_t i = 0; i < kShapes; ++i) {
    const Shape& sh = shapes[i];
    const std::int64_t t0 = now_ns();
    const orv::PlanDecision d = planner.plan(sh.meta, *sh.graph, sh.query);
    plan_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    double ij = 0, gh = 0;
    for (std::size_t e = 0; e < kExecutions; ++e) {
      if (order[e].shape != i || order[e].pipelined) continue;
      (order[e].algorithm == Algorithm::IndexedJoin ? ij : gh) =
          pass[e].qes.elapsed;
    }
    ij_err.push_back(ij / d.ij.total());
    gh_err.push_back(gh / d.gh.total());
    const Algorithm winner =
        ij <= gh ? Algorithm::IndexedJoin : Algorithm::GraceHash;
    if (d.chosen == winner) ++agrees;
  }
  report.metric("qps.plan_us", median(plan_us), "us");
  report.metric("cost.ij_error_ratio", median(ij_err), "ratio");
  report.metric("cost.gh_error_ratio", median(gh_err), "ratio");
  report.metric("qps.choice_agrees", static_cast<double>(agrees), "count");
  // The parser on the full-view query written as SQL.
  report.metric("query.parse_us", median_parse_us({"SELECT * FROM V"}, 200),
                "us");

  // Layers only the other workloads exercise.
  report.unmeasured("obs.monitor_overhead_frac", "ratio");
  report.unmeasured("dds.rows_read_per_row_returned", "ratio");
  report.unmeasured("sched.queue_wait_ms_tail", "virtual_ms");
  report.unmeasured("sched.rejected", "count");
  report.unmeasured("workload.makespan_s", "virtual_s");

  std::vector<ReplaySource> sources;
  for (const Shape& sh : shapes) {
    sources.push_back({sh.meta, sh.stores, *sh.graph, sh.query.join_attrs});
  }
  report_join_replay(report, sources);
  finish_trace(report, options);
}

}  // namespace

void run_fig4_sweep(const Options& options, Report& report) {
  if (options.trace) {
    report_per_layer(options, report);
  } else {
    report_end_to_end(options, report);
  }
}

}  // namespace perfbench
