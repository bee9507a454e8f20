#pragma once

// Shared harness for the per-figure benchmarks: builds a dataset, plans
// it with the QPS, runs both QES algorithms on a fresh simulated cluster,
// and prints paper-style series rows.
//
// Instrumentation: when any bench sink variable is set (see Sinks), each
// scenario run installs an observability context (virtual-time clock on
// the scenario's engine), analyses the run once, and hands the result to
// every sink that is set.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "cost/cost_model.hpp"
#include "datagen/generator.hpp"
#include "graph/connectivity.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/prometheus.hpp"
#include "obs/sim_clock.hpp"
#include "qes/analysis.hpp"
#include "qes/qes.hpp"
#include "qps/planner.hpp"
#include "sim/engine.hpp"

namespace orv::bench {

/// The bench sink variables, read once per process. Each one works on its
/// own: setting any of ORV_PROFILE, ORV_TRACE, ORV_PROM or ORV_DIAG makes
/// run_scenario instrument its runs.
///   ORV_PROFILE=<file>   per-query execution profiles, {"profiles": [...]}
///   ORV_TRACE=<file>     one Chrome trace-event file over every query
///   ORV_SAMPLE_INTERVAL  occupancy sampling period for ORV_TRACE
///                        (simulated seconds; 0 disables sampling)
///   ORV_PROM=<file>      Prometheus exposition of the last query's registry
///   ORV_DIAG=1           each instrumented query's diagnosis on stdout
struct Sinks {
  std::string profile;
  std::string trace;
  std::string prom;
  bool diag = false;
  // Default chosen so the sub-second figure queries still get tens of
  // points per counter track; only read when ORV_TRACE is set.
  double sample_interval = 0.01;

  bool any() const {
    return !profile.empty() || !trace.empty() || !prom.empty() || diag;
  }
};

inline const Sinks& sinks() {
  static const Sinks s = [] {
    Sinks out;
    if (const char* v = std::getenv("ORV_PROFILE")) out.profile = v;
    if (const char* v = std::getenv("ORV_TRACE")) out.trace = v;
    if (const char* v = std::getenv("ORV_SAMPLE_INTERVAL")) {
      out.sample_interval = std::atof(v);
    }
    if (const char* v = std::getenv("ORV_PROM")) out.prom = v;
    out.diag = std::getenv("ORV_DIAG") != nullptr;
    return out;
  }();
  return s;
}

struct Scenario {
  DatasetSpec data;
  ClusterSpec cluster;
  /// Executor knobs; options.cpu_work_factor is the Fig. 8 knob.
  QesOptions options;
};

struct ScenarioResult {
  ConnectivityStats stats;
  /// The planner's decision for the scenario's options: the priced
  /// params, both model breakdowns and the chosen algorithm.
  PlanDecision plan;
  QesResult sim_ij;
  QesResult sim_gh;

  /// Bottleneck diagnoses, filled on instrumented runs only (any sink
  /// set): uninstrumented runs assemble no trace DAG to walk.
  bool diag_valid = false;
  obs::Diagnosis diag_ij;
  obs::Diagnosis diag_gh;

  double ne_cs() const {
    return static_cast<double>(stats.num_edges) *
           static_cast<double>(stats.c_S);
  }

  /// Model accuracy per algorithm (simulated / predicted); computable with
  /// or without instrumentation, so benches can always emit it.
  double ij_error_ratio() const {
    return plan.ij.total() > 0 ? sim_ij.elapsed / plan.ij.total() : 0.0;
  }
  double gh_error_ratio() const {
    return plan.gh.total() > 0 ? sim_gh.elapsed / plan.gh.total() : 0.0;
  }
};

/// Accumulates per-query execution profiles and rewrites the ORV_PROFILE
/// file after each addition, so a partially completed bench still leaves
/// valid JSON behind.
class ProfileReport {
 public:
  static ProfileReport& instance() {
    static ProfileReport report;
    return report;
  }

  bool enabled() const { return !sinks().profile.empty(); }

  void set_figure(std::string figure) { figure_ = std::move(figure); }

  /// One label per scenario; the two algorithm runs share it.
  std::string next_label() {
    return strformat("%s#%zu", figure_.c_str(), seq_++);
  }

  void add(obs::ExecutionProfile profile) {
    profiles_.push_back(std::move(profile));
    write();
  }

 private:
  ProfileReport() = default;

  void write() const {
    const std::string& path = sinks().profile;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "ORV_PROFILE: cannot open %s\n", path.c_str());
      return;
    }
    std::string out = "{\"schema_version\":" +
                      std::to_string(obs::kObsSchemaVersion) +
                      ",\"profiles\":[";
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
      if (i) out += ',';
      out += profiles_[i].to_json();
    }
    out += "]}\n";
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
  }

  std::string figure_ = "bench";
  std::size_t seq_ = 0;
  std::vector<obs::ExecutionProfile> profiles_;
};

/// Accumulates one Chrome trace-event file across every query of a bench
/// run when ORV_TRACE names a file. Each query becomes one "process" in
/// the trace (one track per simulated node inside it), so the file opens
/// directly in Perfetto / chrome://tracing. Rewritten after each query so
/// a partially completed bench still leaves valid JSON behind.
class TraceReport {
 public:
  static TraceReport& instance() {
    static TraceReport report;
    return report;
  }

  bool enabled() const { return !sinks().trace.empty(); }

  void add(std::string label, std::vector<obs::SpanRecord> spans,
           std::vector<obs::TimeSeries> series) {
    queries_.push_back(obs::ChromeTraceQuery{
        std::move(label), std::move(spans), std::move(series)});
    write();
  }

 private:
  TraceReport() = default;

  void write() const {
    const std::string& path = sinks().trace;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "ORV_TRACE: cannot open %s\n", path.c_str());
      return;
    }
    const std::string out = obs::chrome_trace_json(queries_);
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
  }

  std::vector<obs::ChromeTraceQuery> queries_;
};

/// The ORV_DIAG form of a diagnosis: findings, confidences and knob
/// suggestions.
inline void print_diagnosis(const obs::Diagnosis& d) {
  std::printf("[diag] %s/%s: %s\n", d.query.c_str(), d.algorithm.c_str(),
              d.to_string().c_str());
  for (const auto& f : d.findings) {
    std::printf("  - %s (conf %.2f): %s\n      knob: %s\n", f.kind.c_str(),
                f.confidence, f.detail.c_str(), f.suggestion.c_str());
  }
}

namespace detail {

/// Runs one algorithm under a freshly installed obs context (virtual-time
/// clock), analyses the run once and feeds every sink that is set. When
/// `diag_out` is non-null it receives the run's bottleneck diagnosis.
template <typename RunFn>
QesResult run_profiled(const sim::Engine& engine, const std::string& label,
                       Algorithm algorithm, const PlanDecision& plan,
                       RunFn&& run, bool placement_affinity = false,
                       obs::Diagnosis* diag_out = nullptr) {
  obs::SimClock clock(engine);
  obs::ObsContext ctx(&clock);
  const bool tracing = TraceReport::instance().enabled();
  if (tracing) ctx.sample_interval = sinks().sample_interval;
  QesResult result;
  obs::Diagnosis diag;
  {
    obs::ScopedInstall install(ctx);
    result = run();
    QueryAnalysis analysis = analyze_query(
        ctx.tracer.snapshot(), algorithm, result,
        algorithm == Algorithm::IndexedJoin ? plan.ij : plan.gh, label);
    obs::PlanValidation pv = plan_validation(plan, algorithm, result, label);
    pv.stages = std::move(analysis.stages);
    ctx.add_plan_validation(std::move(pv));
    analysis.diag.series = ctx.time_series();
    analysis.diag.placement_affinity = placement_affinity;
    diag = obs::diagnose(analysis.diag);
    if (diag_out != nullptr) *diag_out = diag;
    if (sinks().diag) print_diagnosis(diag);
  }
  if (ProfileReport::instance().enabled()) {
    obs::ExecutionProfile profile = obs::build_profile(
        ctx, label, algorithm_name(algorithm), result.elapsed);
    profile.has_diagnosis = true;
    profile.diagnosis = diag;
    ProfileReport::instance().add(std::move(profile));
  }
  if (tracing) {
    TraceReport::instance().add(
        label + "/" + algorithm_name(algorithm), ctx.tracer.snapshot(),
        ctx.time_series());
  }
  // ORV_PROM: the query's registry snapshot, rewritten per query (a
  // scraper pulls the current state, so last-writer-wins matches the
  // scrape model).
  if (const std::string& prom = sinks().prom; !prom.empty()) {
    if (std::FILE* f = std::fopen(prom.c_str(), "w")) {
      const std::string text = obs::prometheus_text(ctx.registry.snapshot());
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "ORV_PROM: cannot open %s\n", prom.c_str());
    }
  }
  return result;
}

}  // namespace detail

/// Runs both algorithms (each on a fresh engine+cluster so resource stats
/// and virtual clocks do not interact) and plans the scenario with the
/// QPS, so the recorded models are exactly what the planner prices.
inline ScenarioResult run_scenario(Scenario sc) {
  sc.data.num_storage_nodes = sc.cluster.num_storage;
  auto ds = generate_dataset(sc.data);

  JoinQuery query{sc.data.table1_id, sc.data.table2_id, {"x", "y", "z"}, {}};
  const auto graph = ConnectivityGraph::build(
      ds.meta, query.left_table, query.right_table, query.join_attrs);

  ScenarioResult out;
  out.stats = ds.stats;
  out.plan = QueryPlanner(sc.cluster).plan(ds.meta, graph, query, &sc.options);

  const bool instrumented = sinks().any();
  const bool affinity =
      sc.options.assign == ComponentAssign::PlacementAffinity;
  const std::string label =
      instrumented ? ProfileReport::instance().next_label() : std::string();
  {
    sim::Engine engine;
    Cluster cluster(engine, sc.cluster);
    BdsService bds(cluster, ds.meta, ds.stores);
    auto run = [&] {
      return run_indexed_join(cluster, bds, ds.meta, graph, query,
                              sc.options);
    };
    out.sim_ij = instrumented
                     ? detail::run_profiled(engine, label,
                                            Algorithm::IndexedJoin, out.plan,
                                            run, affinity, &out.diag_ij)
                     : run();
  }
  {
    sim::Engine engine;
    Cluster cluster(engine, sc.cluster);
    BdsService bds(cluster, ds.meta, ds.stores);
    auto run = [&] {
      return run_grace_hash(cluster, bds, ds.meta, query, sc.options);
    };
    out.sim_gh = instrumented
                     ? detail::run_profiled(engine, label,
                                            Algorithm::GraceHash, out.plan,
                                            run, affinity, &out.diag_gh)
                     : run();
  }
  out.diag_valid = instrumented;
  return out;
}

/// Serial-vs-pipelined series emitter: each fig bench that supports it
/// accepts `--out <path.json>` and writes {"figure":..., "rows":[...]} so
/// the repo can commit reference BENCH_*.json snapshots.
class SeriesJson {
 public:
  explicit SeriesJson(std::string figure) : figure_(std::move(figure)) {}

  void add_row(std::string row_json) { rows_.push_back(std::move(row_json)); }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::string out = "{\"figure\":\"" + figure_ + "\",\"rows\":[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += "  " + rows_[i];
      if (i + 1 < rows_.size()) out += ',';
      out += '\n';
    }
    out += "]}\n";
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    return true;
  }

 private:
  std::string figure_;
  std::vector<std::string> rows_;
};

/// Parses the optional `--out <path>` argument shared by the fig benches.
inline std::string parse_out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") return argv[i + 1];
  }
  return {};
}

/// The standard pipelined configuration the serial-vs-pipelined series
/// compare against: bounded prefetch in IJ, double-buffered spills in GH.
inline QesOptions pipelined_options() {
  QesOptions o;
  o.prefetch_lookahead = 4;
  o.gh_double_buffer = true;
  return o;
}

inline void print_banner(const char* figure, const char* description) {
  ProfileReport::instance().set_figure(figure);
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("(times are simulated seconds on the paper's 2006 hardware "
              "profile)\n");
  std::printf("==============================================================="
              "=================\n");
}

}  // namespace orv::bench
