#pragma once

// Chaos/differential test harness.
//
// One 64-bit seed deterministically derives a whole scenario — dataset
// shape, cluster size, query predicate — and (for chaos sweeps) a
// FaultPlan. A scenario is executed once fault-free to establish the
// oracle fingerprint, then again under injected faults; the results must
// be byte-identical (same row multiset → same order-independent
// fingerprint, same tuple count). The single-threaded simulation engine
// makes every run replayable bit-for-bit, so a failing seed printed by a
// sweep reproduces with one command:
//
//   ORV_CHAOS_SEED=<seed> ORV_CHAOS_N=1 ./tests/test_fault --gtest_filter='Chaos.*'
//
// Sweep width and base seed come from ORV_CHAOS_N / ORV_CHAOS_SEED so CI
// can run a reduced nightly sweep without recompiling.

#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bds/bds.hpp"
#include "common/prng.hpp"
#include "datagen/generator.hpp"
#include "fault/fault.hpp"
#include "graph/connectivity.hpp"
#include "obs/obs.hpp"
#include "obs/sim_clock.hpp"
#include "obs/span.hpp"
#include "qes/qes.hpp"
#include "sim/engine.hpp"
#include "workload/workload.hpp"

namespace orv::chaos {

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 0);
}

/// Everything a run needs, derived deterministically from one seed.
struct Scenario {
  DatasetSpec spec;
  ClusterSpec cspec;
  std::vector<std::string> join_attrs;
  std::vector<AttrRange> ranges;

  /// The scenario's cluster, with `plan` and `agg` where given.
  ClusterSpec cluster(const fault::FaultPlan* plan,
                      const net::AggregatorConfig* agg = nullptr) const {
    ClusterSpec c = cspec;
    if (plan != nullptr) c.faults = *plan;
    if (agg != nullptr) c.aggregation = *agg;
    return c;
  }
};

/// Random-but-valid scenario: partition sizes are powers of two dividing
/// the grid, so DatasetSpec::validate()'s regular-partitioning requirement
/// (min divides max per dimension) holds by construction.
inline Scenario make_scenario(std::uint64_t seed) {
  Xoshiro256StarStar rng(seed ^ 0xC0A05EEDFACEull);
  Scenario sc;

  const std::uint64_t dims[2] = {8, 16};
  auto pick_part = [&](std::uint64_t grid) {
    const std::uint64_t divisors[3] = {2, 4, 8};
    std::uint64_t p = divisors[rng.below(3)];
    while (p > grid) p /= 2;
    return p;
  };
  sc.spec.grid = {dims[rng.below(2)], dims[rng.below(2)], 8};
  sc.spec.part1 = {pick_part(sc.spec.grid.x), pick_part(sc.spec.grid.y),
                   pick_part(sc.spec.grid.z)};
  sc.spec.part2 = {pick_part(sc.spec.grid.x), pick_part(sc.spec.grid.y),
                   pick_part(sc.spec.grid.z)};
  sc.spec.extra_attrs1 = 1 + rng.below(2);
  sc.spec.extra_attrs2 = 1 + rng.below(2);
  sc.spec.seed = rng();

  sc.cspec.num_storage = 1 + rng.below(3);  // 1..3
  sc.cspec.num_compute = 2 + rng.below(3);  // 2..4: one crash is survivable
  sc.spec.num_storage_nodes = sc.cspec.num_storage;

  sc.join_attrs = {"x", "y", "z"};
  if (rng.below(2) == 0) {
    // Range predicate over one or two coordinate attributes.
    const char* attrs[3] = {"x", "y", "z"};
    const std::size_t n_ranges = 1 + rng.below(2);
    for (std::size_t i = 0; i < n_ranges; ++i) {
      const char* attr = attrs[rng.below(3)];
      const double g = static_cast<double>(sc.spec.grid.x);
      double lo = rng.uniform(0.0, g);
      double hi = rng.uniform(0.0, g);
      if (lo > hi) std::swap(lo, hi);
      sc.ranges.push_back({attr, {lo, hi}});
    }
  }
  return sc;
}

/// Holds the (engine-independent) dataset for one scenario; each run gets
/// a fresh engine + cluster + BDS so injected faults cannot leak between
/// runs.
struct ChaosRig {
  Scenario sc;
  GeneratedDataset ds;
  JoinQuery query;
  ConnectivityGraph graph;

  /// Span snapshot of one traced run, deposited even when the run throws.
  /// `open_spans` counts spans nobody closed — the chaos sweeps assert it
  /// is zero, i.e. a crashed node's spans are ended (orphan-tagged), never
  /// leaked.
  struct TraceCapture {
    std::vector<obs::SpanRecord> spans;
    std::size_t open_spans = 0;
  };
  /// When set, run() executes under a fresh ObsContext on the run's
  /// engine and deposits the tracer state here afterwards.
  TraceCapture* capture = nullptr;

  /// When set, each run's fresh cluster aggregates its messages with this
  /// config, so chaos and differential sweeps can exercise the aggregated
  /// send paths.
  const net::AggregatorConfig* agg = nullptr;

  explicit ChaosRig(std::uint64_t scenario_seed)
      : ChaosRig(make_scenario(scenario_seed)) {}

  /// Targeted tests build the scenario by hand.
  explicit ChaosRig(Scenario scenario)
      : sc(std::move(scenario)), ds(generate_dataset(sc.spec)) {
    query.left_table = sc.spec.table1_id;
    query.right_table = sc.spec.table2_id;
    query.join_attrs = sc.join_attrs;
    query.ranges = sc.ranges;
    graph = ConnectivityGraph::build(ds.meta, query.left_table,
                                     query.right_table, query.join_attrs,
                                     query.ranges);
  }

  /// Runs one algorithm, optionally under a fault plan. Exceptions
  /// propagate to the caller (sweeps catch them to record the seed).
  QesResult run(bool indexed_join, const fault::FaultPlan* plan = nullptr,
                const QesOptions& options = {}) {
    if (capture == nullptr) return run_inner(indexed_join, plan, options);
    // Clock and context are declared BEFORE the engine: a failed query
    // abandons coroutine frames that ~Engine destroys, and their span
    // guards stamp end times through this clock on the way out. The
    // Unbind guard (inside run_inner, declared after the engine) freezes
    // the clock at the last engine time before the engine goes away.
    obs::SimClock clock;
    obs::ObsContext ctx(&clock);
    try {
      const QesResult r = run_inner(indexed_join, plan, options, &clock, &ctx);
      deposit(ctx);
      return r;
    } catch (...) {
      deposit(ctx);
      throw;
    }
  }

  ReferenceResult hash_reference() {
    return reference_join(ds.meta, ds.stores, query);
  }

  ReferenceResult nested_loop() {
    return nested_loop_reference(ds.meta, ds.stores, query);
  }

 private:
  void deposit(obs::ObsContext& ctx) {
    capture->spans = ctx.tracer.snapshot();
    capture->open_spans = ctx.tracer.num_open_spans();
  }

  QesResult run_inner(bool indexed_join, const fault::FaultPlan* plan,
                      const QesOptions& options,
                      obs::SimClock* clock = nullptr,
                      obs::ObsContext* ctx = nullptr) {
    sim::Engine engine;
    if (clock) clock->bind(engine);
    struct Unbind {
      obs::SimClock* clock;
      ~Unbind() {
        if (clock) clock->unbind();
      }
    } unbind{clock};
    std::optional<obs::ScopedInstall> install;
    if (ctx) install.emplace(*ctx);
    Cluster cluster(engine, sc.cluster(plan, agg));
    BdsService bds(cluster, ds.meta, ds.stores);
    if (indexed_join) {
      return run_indexed_join(cluster, bds, ds.meta, graph, query, options);
    }
    return run_grace_hash(cluster, bds, ds.meta, query, options);
  }
};

/// Chaos × concurrency: runs a whole concurrent workload over the rig's
/// dataset on a fresh engine, optionally under a FaultPlan — node crashes
/// and I/O errors land while several queries are in flight. Each query's
/// recovery is its own (supervisor rounds, retries), so every query must
/// still resolve into its outcome record; the engine run always drains.
/// With `capture` set, the whole run is traced and the span table
/// deposited (sweeps assert zero open spans across all concurrent DAGs).
inline WorkloadResult run_workload_under_plan(
    const ChaosRig& rig, const WorkloadSpec& spec,
    const fault::FaultPlan* plan,
    ChaosRig::TraceCapture* capture = nullptr,
    const net::AggregatorConfig* agg = nullptr) {
  // Same declaration-order contract as ChaosRig::run: clock and context
  // outlive the engine so span guards unwound by ~Engine can stamp times.
  obs::SimClock clock;
  obs::ObsContext ctx(&clock);
  WorkloadResult result;
  {
    sim::Engine engine;
    clock.bind(engine);
    struct Unbind {
      obs::SimClock* clock;
      ~Unbind() { clock->unbind(); }
    } unbind{&clock};
    std::optional<obs::ScopedInstall> install;
    if (capture != nullptr) install.emplace(ctx);
    Cluster cluster(engine, rig.sc.cluster(plan, agg));
    BdsService bds(cluster, rig.ds.meta, rig.ds.stores);
    result = run_workload(cluster, bds, rig.ds.meta, spec);
  }
  if (capture != nullptr) {
    capture->spans = ctx.tracer.snapshot();
    capture->open_spans = ctx.tracer.num_open_spans();
  }
  return result;
}

/// Failing-seed record: printed for one-command reproduction and appended
/// to chaos_failures.txt (uploaded as a CI artifact).
inline std::string describe_failure(const char* algo, std::uint64_t seed,
                                    const fault::FaultPlan& plan,
                                    const std::string& detail) {
  std::string s = "chaos failure: algo=";
  s += algo;
  s += " seed=" + std::to_string(seed);
  s += " plan=" + plan.to_string();
  s += " detail=" + detail;
  s += "\n  reproduce: ORV_CHAOS_SEED=" + std::to_string(seed) +
       " ORV_CHAOS_N=1 ./tests/test_fault --gtest_filter='Chaos.*'";
  return s;
}

inline void record_failure(const std::string& line) {
  std::ofstream out("chaos_failures.txt", std::ios::app);
  out << line << "\n";
}

}  // namespace orv::chaos
