#pragma once

// Shared harness for the per-figure benchmarks: builds a dataset, plans
// it with the QPS, runs both QES algorithms on a fresh simulated cluster,
// and prints paper-style series rows.
//
// Instrumentation: when a bench sink is set (obs::Sinks), each
// scenario run installs an observability context (virtual-time clock on
// the scenario's engine), takes one snapshot of it, analyses the run once,
// and hands the snapshot and the analysis to every sink that is set.

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
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/prometheus.hpp"
#include "obs/sim_clock.hpp"
#include "obs/sinks.hpp"
#include "qes/analysis.hpp"
#include "qes/qes.hpp"
#include "qps/planner.hpp"
#include "sim/engine.hpp"

namespace orv::bench {

using obs::sinks;

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

/// Scenario labels, "<figure>#<n>": one per scenario, shared by its two
/// algorithm runs. print_banner names the figure.
struct ScenarioLabels {
  std::string figure = "bench";
  std::size_t seq = 0;

  std::string next() { return strformat("%s#%zu", figure.c_str(), seq++); }
};

inline ScenarioLabels& scenario_labels() {
  static ScenarioLabels labels;
  return labels;
}

/// The ORV_PROFILE and ORV_TRACE documents of a bench run, complete JSON
/// after every query. Each query is one "process" in the trace (one track
/// per simulated node inside it), so the file opens directly in Perfetto
/// / chrome://tracing.
inline obs::DocumentFile<obs::ProfileStream>& profile_report() {
  static obs::DocumentFile<obs::ProfileStream> file(sinks().profile);
  return file;
}

inline obs::DocumentFile<obs::ChromeTraceStream>& trace_report() {
  static obs::DocumentFile<obs::ChromeTraceStream> file(sinks().trace);
  return file;
}

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
/// clock), takes one snapshot of what it recorded, analyses it once and
/// feeds every sink that is set from that snapshot. When `diag_out` is
/// non-null it receives the run's bottleneck diagnosis.
template <typename RunFn>
QesResult run_profiled(const sim::Engine& engine, const std::string& label,
                       Algorithm algorithm, const PlanDecision& plan,
                       RunFn&& run, bool placement_affinity = false,
                       obs::Diagnosis* diag_out = nullptr) {
  obs::SimClock clock(engine);
  obs::ObsContext ctx(&clock);
  const bool tracing = trace_report().enabled();
  if (tracing) ctx.sample_interval = obs::kTraceSampleSeconds;
  QesResult result;
  {
    obs::ScopedInstall install(ctx);
    result = run();
  }
  obs::ObsSnapshot snap = ctx.snapshot();
  QueryAnalysis analysis = analyze_query(
      snap.spans, algorithm, result,
      algorithm == Algorithm::IndexedJoin ? plan.ij : plan.gh, label);
  obs::PlanValidation pv = plan_validation(plan, algorithm, result, label);
  pv.stages = std::move(analysis.stages);
  snap.plans.push_back(std::move(pv));
  analysis.diag.series = snap.series;
  analysis.diag.placement_affinity = placement_affinity;
  const obs::Diagnosis diag = obs::diagnose(analysis.diag);
  if (diag_out != nullptr) *diag_out = diag;
  if (sinks().diag) print_diagnosis(diag);
  if (profile_report().enabled()) {
    obs::ExecutionProfile profile = obs::build_profile(
        snap, label, algorithm_name(algorithm), result.elapsed);
    profile.has_diagnosis = true;
    profile.diagnosis = diag;
    profile_report().add(profile);
  }
  // ORV_PROM: the query's snapshot, rewritten per query (a scraper pulls
  // the current state, so last-writer-wins matches the scrape model).
  if (const std::string& prom = sinks().prom; !prom.empty()) {
    obs::write_file(prom, obs::prometheus_text(snap.metrics, snap.spans));
  }
  if (tracing) {
    trace_report().add(obs::ChromeTraceQuery{
        label + "/" + algorithm_name(algorithm), std::move(snap.spans),
        std::move(snap.series)});
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

  const bool instrumented = sinks().instruments_bench();
  const bool affinity =
      sc.options.assign == ComponentAssign::PlacementAffinity;
  const std::string label =
      instrumented ? scenario_labels().next() : std::string();
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
    std::string out = "{\"figure\":\"" + figure_ + "\",\"rows\":[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += "  " + rows_[i];
      if (i + 1 < rows_.size()) out += ',';
      out += '\n';
    }
    out += "]}\n";
    return obs::write_file(path, out);
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
  scenario_labels().figure = figure;
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("(times are simulated seconds on the paper's 2006 hardware "
              "profile)\n");
  std::printf("==============================================================="
              "=================\n");
}

}  // namespace orv::bench
