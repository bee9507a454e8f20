// session_mix: run_workload over one shared simulated cluster. Three
// clients with Poisson arrivals at fixed absolute virtual rates, one
// query each: the full view, a half-space slice and a narrow slab, with
// the planner choosing IJ or GH. The shared per-node session cache holds
// about half of the mix's working set, admission is bounded and the live
// monitor is on. Each timed iteration is one run_workload call on a fresh
// cluster with its own seeded arrivals.

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/cluster.hpp"
#include "common/strings.hpp"
#include "datagen/generator.hpp"
#include "qes/qes.hpp"
#include "qps/planner.hpp"
#include "sim/engine.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kStorage = 3;
constexpr std::size_t kCompute = 4;
constexpr std::size_t kClients = 3;

/// Offered load of the timed iterations, queries per virtual second over
/// all three clients.
constexpr double kOperatingRate = 36.0;
constexpr std::size_t kQueriesPerClient = 40;

/// Capacity ladder: offered rates (q per virtual s, all clients) tried in
/// ascending order; a rung passes when its tail latency is within the
/// limit and nothing was rejected.
constexpr double kLadder[] = {12, 24, 48, 96};
constexpr double kSloMs = 600;
constexpr std::size_t kLadderQueriesPerClient = 40;

/// Set-up is short here (under 10 ms), so it is repeated more often.
constexpr int kSetupRepeats = 25;

/// Host seconds budgeted per timed iteration; the iteration count is
/// derived from --seconds with it.
constexpr double kIterationBudgetSeconds = 1.0;

orv::ClusterSpec cluster_spec() {
  orv::ClusterSpec c;
  c.num_storage = kStorage;
  c.num_compute = kCompute;
  return c;
}

orv::DatasetSpec dataset_spec(std::uint64_t seed) {
  orv::DatasetSpec spec;
  spec.grid = {32, 32, 32};
  spec.part1 = {8, 8, 8};
  spec.part2 = {4, 4, 4};
  spec.num_storage_nodes = kStorage;
  spec.seed = seed;
  return spec;
}

struct Dataset {
  orv::DatasetSpec spec;
  orv::MetaDataService meta;
  std::vector<std::shared_ptr<orv::ChunkStore>> stores;
  std::vector<orv::JoinQuery> queries;  // one per client
  std::uint64_t working_set_bytes = 0;
  double datagen_seconds = 0;
  double graph_ms = 0;
  std::uint64_t edges = 0;
};

Dataset build(std::uint64_t seed, bool timed) {
  Dataset d;
  d.spec = dataset_spec(seed);
  for (std::size_t n = 0; n < kStorage; ++n) {
    d.stores.push_back(std::make_shared<orv::MemoryChunkStore>());
  }
  if (timed) d.stores = timed_stores(d.stores);
  {
    Span span("datagen.generate");
    const std::int64_t t0 = now_ns();
    orv::generate_dataset_into(d.spec, d.meta, d.stores);
    d.datagen_seconds = static_cast<double>(now_ns() - t0) / 1e9;
  }
  d.working_set_bytes = d.meta.table_bytes(d.spec.table1_id) +
                        d.meta.table_bytes(d.spec.table2_id);
  const orv::JoinQuery full{d.spec.table1_id, d.spec.table2_id,
                            {"x", "y", "z"}, {}};
  orv::JoinQuery half = full;
  half.ranges = {{"x", {0.0, 15.0}}};
  orv::JoinQuery slab = full;
  slab.ranges = {{"z", {12.0, 19.0}}};
  d.queries = {full, half, slab};
  // The session builds (and memoizes) these graphs itself; building them
  // here times the graph layer and puts the index build into setup.
  for (const auto& q : d.queries) {
    Span span("graph.build");
    const std::int64_t t0 = now_ns();
    const auto g = orv::ConnectivityGraph::build(d.meta, q.left_table,
                                                 q.right_table, q.join_attrs,
                                                 q.ranges);
    d.graph_ms += ms_since(t0);
    d.edges += g.num_edges();
  }
  return d;
}

/// Per-node session cache: half of the mix's working set, spread over the
/// compute nodes.
std::uint64_t cache_bytes_per_node(const Dataset& d) {
  return d.working_set_bytes / (2 * kCompute);
}

orv::WorkloadSpec workload(const Dataset& d, std::uint64_t seed, double rate,
                           std::size_t per_client, bool monitor) {
  orv::WorkloadSpec spec;
  spec.seed = seed;
  spec.session.share_cache = true;
  spec.session.cache_bytes = cache_bytes_per_node(d);
  spec.admission.max_running = 4;
  spec.admission.max_queued = 24;
  spec.monitor.enabled = monitor;
  for (std::size_t c = 0; c < kClients; ++c) {
    orv::WorkloadClientSpec client;
    client.name = orv::strformat("client%zu", c);
    client.mix.push_back({d.queries[c], std::nullopt, 1.0, 0.0});
    client.poisson_rate = rate / kClients;
    client.num_queries = per_client;
    spec.clients.push_back(std::move(client));
  }
  return spec;
}

struct RunResult {
  orv::WorkloadResult result;
  HostInterval host;
  std::uint64_t events = 0;
  orv::BdsStats bds;
  double network_bytes = 0;
};

RunResult run(const Dataset& d, const orv::WorkloadSpec& spec) {
  RunResult r;
  tracer().begin_query();
  {
    Span span("workload.run");
    const std::int64_t start = now_ns();
    orv::sim::Engine engine;
    orv::Cluster cluster(engine, cluster_spec());
    orv::BdsService bds(cluster, d.meta, d.stores);
    r.result = orv::run_workload(cluster, bds, d.meta, spec);
    r.host = {start, now_ns()};
    r.events = engine.events_processed();
    r.bds = bds.total_stats();
    r.network_bytes = cluster.network_bytes();
  }
  tracer().end_query();
  return r;
}

/// Checks every outcome of a run: a rejection, a failure or a wrong
/// fingerprint is a failed operation.
void check(const RunResult& r, const std::vector<orv::ReferenceResult>& refs,
           Report& report) {
  for (const auto& o : r.result.outcomes) {
    if (o.rejected || o.failed) {
      report.operation(false);
      continue;
    }
    const auto& ref = refs.at(o.client);
    report.check(o.fingerprint, o.result_tuples, ref.result_fingerprint,
                 ref.result_tuples);
  }
}

std::vector<orv::ReferenceResult> references(const Dataset& d) {
  std::vector<orv::ReferenceResult> refs;
  for (const auto& q : d.queries) {
    refs.push_back(orv::reference_join(d.meta, d.stores, q));
  }
  return refs;
}

std::size_t iterations_for(double seconds) {
  return static_cast<std::size_t>(
      std::max(2.0, std::round(seconds / kIterationBudgetSeconds)));
}

struct Timed {
  std::vector<RunResult> runs;

  std::size_t completed() const {
    std::size_t n = 0;
    for (const auto& r : runs) n += r.result.completed;
    return n;
  }
  std::vector<HostInterval> intervals() const {
    std::vector<HostInterval> v;
    for (const auto& r : runs) v.push_back(r.host);
    return v;
  }
  /// Completed queries per scaled host second.
  double host_qps() const {
    return static_cast<double>(completed()) / scaled_seconds(intervals());
  }
  /// Scaled host ms per completed query, one value per iteration (the
  /// queries of an iteration overlap, so they are not timed one by one).
  std::vector<double> host_ms_per_query() const {
    std::vector<double> v;
    for (const auto& r : runs) {
      v.push_back(gauge().scaled_ms(r.host) /
                  static_cast<double>(std::max<std::size_t>(
                      1, r.result.completed)));
    }
    return v;
  }
  std::vector<double> latencies_ms() const {
    std::vector<double> v;
    for (const auto& r : runs) {
      for (const auto& o : r.result.outcomes) {
        if (!o.rejected && !o.failed) v.push_back(o.latency() * 1e3);
      }
    }
    return v;
  }
};

/// Timed iterations at the operating rate; iteration k uses arrival seed
/// (seed, k), so one --seed always replays the same arrivals.
Timed timed_runs(const Dataset& d,
                 const std::vector<orv::ReferenceResult>& refs,
                 std::uint64_t seed, std::size_t n, bool monitor,
                 Report* report) {
  Timed t;
  for (std::size_t k = 0; k < n; ++k) {
    gauge().maybe_sample();
    t.runs.push_back(run(d, workload(d, seed * 1000 + k, kOperatingRate,
                                     kQueriesPerClient, monitor)));
    if (report) check(t.runs.back(), refs, *report);
  }
  gauge().sample();
  return t;
}

/// Walks the ladder upwards; returns the highest passing offered rate
/// (0 when none passes). Completed ladder queries are checked like any
/// other; rejections on a failing rung are that rung's verdict, not
/// failed operations.
double rate_at_slo(const Dataset& d,
                   const std::vector<orv::ReferenceResult>& refs,
                   std::uint64_t seed, Report& report) {
  double best = 0;
  for (const double rate : kLadder) {
    const RunResult r = run(d, workload(d, seed * 1000 + 999, rate,
                                        kLadderQueriesPerClient, true));
    for (const auto& o : r.result.outcomes) {
      if (o.rejected) continue;
      if (o.failed) {
        report.operation(false);
        continue;
      }
      const auto& ref = refs.at(o.client);
      report.check(o.fingerprint, o.result_tuples, ref.result_fingerprint,
                   ref.result_tuples);
    }
    Timed one;
    one.runs.push_back(r);
    const Tail t = tail(one.latencies_ms());
    const bool pass = r.result.rejected == 0 && t.value <= kSloMs;
    report.note(orv::strformat(
        "ladder %6.1f q/s: p%.1f latency %9.3f ms, rejected %zu -> %s", rate,
        t.percentile, t.value, r.result.rejected, pass ? "pass" : "fail"));
    if (!pass) break;
    best = rate;
  }
  return best;
}

void report_end_to_end(const Options& options, Report& report) {
  gauge().sample();
  std::vector<HostInterval> setups;
  Dataset d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d = Dataset{};
    gauge().maybe_sample();
    const std::int64_t start = now_ns();
    d = build(options.seed, false);
    setups.push_back({start, now_ns()});
  }
  const auto refs = references(d);
  reset_peak_rss();
  timed_runs(d, refs, options.seed + 1, 1, true, nullptr);  // warm-up
  const Timed t = timed_runs(d, refs, options.seed,
                             iterations_for(options.seconds), true, &report);

  double makespan = 0;
  for (const auto& r : t.runs) makespan += r.result.makespan;
  const auto lat = t.latencies_ms();
  const Tail lat_tail = tail(lat);
  const auto per_query = t.host_ms_per_query();
  const Tail host_tail = tail(per_query);
  report.note(orv::strformat(
      "session cache %llu B per node x %zu nodes; mix working set %llu B",
      (unsigned long long)cache_bytes_per_node(d), kCompute,
      (unsigned long long)d.working_set_bytes));
  report.note(orv::strformat(
      "query_host_ms_tail is p%.2f over %zu iterations (host ms per "
      "completed query in each)",
      host_tail.percentile, host_tail.samples));
  report.note(orv::strformat(
      "virtual: latency p50 %.3f ms, p%.2f %.3f ms over %zu queries; "
      "%.3f q per virtual s",
      median(lat), lat_tail.percentile, lat_tail.value, lat_tail.samples,
      static_cast<double>(t.completed()) / makespan));
  report.note(orv::strformat(
      "unscaled: setup_s %.4f, host_qps %.4f", median_seconds(setups, false),
      static_cast<double>(t.completed()) / raw_seconds(t.intervals())));
  note_gauge(report);

  report.metric("setup_s", median_seconds(setups, true), "s");
  report.metric("host_qps", t.host_qps(), "q/s");
  report.metric("query_host_ms_p50", median(per_query), "ms");
  report.metric("query_host_ms_tail", host_tail.value, "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_per_layer(const Options& options, Report& report) {
  gauge().sample();
  const std::size_t n =
      std::max<std::size_t>(1, iterations_for(options.seconds) / 3);

  std::vector<orv::ReferenceResult> refs;
  Timed untraced, no_monitor;
  double slo_rate = 0;
  {
    const Dataset d = build(options.seed, false);
    refs = references(d);
    timed_runs(d, refs, options.seed + 1, 1, true, nullptr);  // warm-up
    untraced = timed_runs(d, refs, options.seed, n, true, &report);
    no_monitor = timed_runs(d, refs, options.seed, n, false, &report);
    slo_rate = rate_at_slo(d, refs, options.seed, report);
  }

  install_timed_extractors();
  tracer().set_enabled(true);
  const Dataset d = build(options.seed, true);
  const Timed traced = timed_runs(d, refs, options.seed, n, true, &report);
  tracer().set_enabled(false);

  // Tracing and the monitor must both leave every outcome unchanged.
  std::uint64_t mismatches = 0;
  for (std::size_t k = 0; k < n; ++k) {
    for (const Timed* other :
         {&traced, static_cast<const Timed*>(&no_monitor)}) {
      const auto& a = untraced.runs[k].result.outcomes;
      const auto& b = other->runs[k].result.outcomes;
      bool same = a.size() == b.size();
      for (std::size_t i = 0; same && i < a.size(); ++i) {
        same = a[i].fingerprint == b[i].fingerprint &&
               a[i].finish == b[i].finish && a[i].admit_time == b[i].admit_time;
      }
      if (!same) ++mismatches;
    }
  }
  report_traced_run(report,
                    {mismatches, untraced.host_qps(), traced.host_qps(),
                     static_cast<double>(d.working_set_bytes),
                     d.datagen_seconds},
                    d.stores);
  report.metric("obs.monitor_overhead_frac",
                no_monitor.host_qps() / untraced.host_qps() - 1.0, "ratio");

  // Counts from the first traced iteration (exact, repeatable).
  const RunResult& first = traced.runs[0];
  const auto& wr = first.result;
  report.metric("sim.events",
                static_cast<double>(first.events) /
                    static_cast<double>(std::max<std::size_t>(1, wr.completed)),
                "count");
  report.metric("bds.subtables_served",
                static_cast<double>(first.bds.subtables_served), "count");
  report.metric("bds.chunk_bytes_read",
                static_cast<double>(first.bds.chunk_bytes_read), "B");
  report.metric("net.bytes", first.network_bytes, "B");
  const auto lookups = wr.cache.hits + wr.cache.misses;
  report.metric("cache.hits", static_cast<double>(wr.cache.hits), "count");
  report.metric("cache.lookups", static_cast<double>(lookups), "count");
  report.metric("cache.hit_ratio",
                lookups ? static_cast<double>(wr.cache.hits) /
                              static_cast<double>(lookups)
                        : 0.0,
                "ratio");
  report.metric("cache.evictions", static_cast<double>(wr.cache.evictions),
                "count");
  report.metric("graph.build_ms", d.graph_ms, "ms");
  report.metric("graph.edges", static_cast<double>(d.edges), "count");

  std::vector<double> waits, makespans;
  std::size_t rejected = 0;
  for (const auto& r : traced.runs) {
    for (const auto& o : r.result.outcomes) {
      if (!o.rejected) waits.push_back(o.queue_wait() * 1e3);
    }
    rejected += r.result.rejected;
    makespans.push_back(r.result.makespan);
  }
  report.metric("sched.queue_wait_ms_tail", tail(waits).value, "virtual_ms");
  report.metric("sched.rejected", static_cast<double>(rejected), "count");
  report.metric("workload.makespan_s", median(makespans), "virtual_s");

  // Virtual times of the untraced phase (the traced one repeats them).
  double makespan = 0;
  for (const auto& r : untraced.runs) makespan += r.result.makespan;
  const auto lat = untraced.latencies_ms();
  report.metric("sim.latency_ms_p50", median(lat), "virtual_ms");
  report.metric("sim.latency_ms_tail", tail(lat).value, "virtual_ms");
  report.metric("sim.qps",
                static_cast<double>(untraced.completed()) / makespan,
                "q/virtual_s");
  report.metric("sim.qps_at_slo", slo_rate, "q/virtual_s");

  // Simulated service time over the planner's estimate for the plan it
  // chose, per algorithm, under the mix's contention.
  std::vector<double> ij_err, gh_err;
  for (const auto& r : untraced.runs) {
    for (const auto& o : r.result.outcomes) {
      if (o.rejected || o.failed || o.predicted <= 0) continue;
      (o.algorithm == "IndexedJoin" ? ij_err : gh_err)
          .push_back(o.service() / o.predicted);
    }
  }
  for (const auto& [name, err] :
       {std::pair{"cost.ij_error_ratio", &ij_err},
        std::pair{"cost.gh_error_ratio", &gh_err}}) {
    if (err->empty()) {
      report.unmeasured(name, "ratio");
    } else {
      report.metric(name, median(*err), "ratio");
    }
  }

  // Host ms per completed query outside chunk reads and extraction.
  const auto self = tracer().self_ms_excluding("workload.run",
                                               {"chunkio.", "extract."});
  std::vector<double> self_per_query;
  for (std::size_t k = 0; k < self.size() && k < traced.runs.size(); ++k) {
    self_per_query.push_back(
        self[k] / static_cast<double>(std::max<std::size_t>(
                      1, traced.runs[k].result.completed)));
  }
  report.metric("exec.self_ms_p50", median(self_per_query), "ms");

  const orv::QueryPlanner planner(cluster_spec());
  std::vector<double> plan_us;
  for (const auto& q : d.queries) {
    const auto g = orv::ConnectivityGraph::build(d.meta, q.left_table,
                                                 q.right_table, q.join_attrs,
                                                 q.ranges);
    const std::int64_t t0 = now_ns();
    const orv::PlanDecision decision = planner.plan(d.meta, g, q);
    plan_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    sink = static_cast<std::uint64_t>(decision.chosen);
  }
  report.metric("qps.plan_us", median(plan_us), "us");
  // The parser on the three queries written as SQL.
  report.metric("query.parse_us",
                median_parse_us({"SELECT * FROM V",
                                 "SELECT * FROM V WHERE x IN [0, 15]",
                                 "SELECT * FROM V WHERE z IN [12, 19]"},
                                100),
                "us");

  // run_workload does not expose per-query join counts or frame counts;
  // the planner is not compared with forced runs here; no DDS.
  report.unmeasured("join.tuples_probed", "count");
  report.unmeasured("join.hash_tables_built", "count");
  report.unmeasured("net.frames", "count");
  report.unmeasured("qps.choice_agrees", "count");
  report.unmeasured("dds.rows_read_per_row_returned", "ratio");

  const auto graph = orv::ConnectivityGraph::build(
      d.meta, d.queries[0].left_table, d.queries[0].right_table,
      d.queries[0].join_attrs);
  report_join_replay(report,
                     {{d.meta, d.stores, graph, d.queries[0].join_attrs}});
  finish_trace(report, options);
}

}  // namespace

void run_session_mix(const Options& options, Report& report) {
  if (options.trace) {
    report_per_layer(options, report);
  } else {
    report_end_to_end(options, report);
  }
}

}  // namespace perfbench
