#pragma once

// Open-loop concurrent workload driver (the SkyServer-style community
// load the paper's DDS exists to serve): N clients submit streams of
// IJ/GH queries into one QesSession over the shared simulated cluster.
// Arrivals are open-loop on the *virtual* clock — Poisson with a
// per-client rate, or an explicit trace of arrival times — so offered
// load is independent of completion rate and queueing is real. Every
// source of randomness flows through one seed; a workload replays
// bit-identically.
//
// Each query's life cycle: arrive → plan (optionally contention-aware:
// the planner sees live busy fractions sampled from the cluster) →
// admission (bounded run queue, FIFO / shortest-cost / fair-share;
// rejection = backpressure) → execute concurrently → SLO accounting
// (queue wait vs service, deadline met/missed) into per-query outcomes,
// exact latency quantiles, and the obs histogram registry.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "obs/flight.hpp"
#include "obs/monitor.hpp"
#include "qes/session.hpp"
#include "sched/admission.hpp"

namespace orv {

/// One entry of a client's query mix.
struct WorkloadQuerySpec {
  JoinQuery query;
  /// Pin the algorithm; nullopt lets the QPS cost models choose.
  std::optional<Algorithm> force;
  /// Selection weight within the client's mix (relative).
  double weight = 1.0;
  /// SLO deadline in virtual seconds from *arrival*; 0 = no deadline.
  double deadline = 0;
};

struct WorkloadClientSpec {
  std::string name;
  std::vector<WorkloadQuerySpec> mix;
  /// Open-loop Poisson arrivals at this rate (queries per virtual
  /// second); `num_queries` arrivals are generated.
  double poisson_rate = 1.0;
  std::size_t num_queries = 0;
  /// Explicit arrival times (virtual seconds from workload start). When
  /// non-empty this trace replaces the Poisson process.
  std::vector<double> trace_arrivals;
};

/// Live-monitoring configuration for one workload run. Monitoring is
/// perturbation-free: every input is a pure read (busy-time deltas,
/// registry snapshots) and the tick coroutine only sleeps, so outcomes
/// with monitoring on are bit-identical to monitoring off.
struct WorkloadMonitorOptions {
  bool enabled = false;
  /// Virtual seconds between monitor ticks (rule evaluation, occupancy
  /// sampling, dashboard lines). Rules are additionally evaluated after
  /// every query outcome, so alerting is not quantized to the tick.
  double tick_seconds = 0.25;
  /// Window of the driver's windowed latency/service histograms.
  double hist_window_seconds = 5.0;
  /// Rule set; empty selects obs::default_workload_rules().
  std::vector<obs::Rule> rules;
  obs::NodeHealthConfig health;
  /// Flight-recorder dump directory (also set via ORV_FLIGHT); empty
  /// keeps dumps in memory only.
  std::string flight_dir;
  /// Dashboard JSON-lines path (also set via ORV_DASH).
  std::string dash_path;
  /// Test hook: use this recorder instead of an internally owned one
  /// (not owned; must outlive the run).
  obs::FlightRecorder* flight = nullptr;
};

struct WorkloadSpec {
  std::uint64_t seed = 0;
  std::vector<WorkloadClientSpec> clients;
  AdmissionConfig admission;
  QesSession::Config session;
  /// Base execution options applied to every query (the driver overlays
  /// contention when enabled).
  QesOptions base_options;
  /// Re-plan each query against live busy fractions sampled from the
  /// cluster at submission (cost/cost_model.hpp's apply_contention).
  bool contention_aware = false;
  /// Let the live monitor's per-node health scores derate the admission
  /// controller's concurrency, so sick nodes shrink capacity instead of
  /// collecting queries that will straggle. Default off.
  bool health_aware_admission = false;
  /// Live monitor / flight recorder / dashboard (ORV_DASH and ORV_FLIGHT
  /// enable this implicitly). health_aware_admission also forces it on:
  /// the admission controller needs the health tracker.
  WorkloadMonitorOptions monitor;
};

/// SLO accounting for one submitted query.
struct QueryOutcome {
  std::size_t client = 0;
  std::size_t index = 0;  // global submission index, arrival order
  double arrival = 0;     // virtual time the query entered the system
  double admit_time = 0;  // virtual time execution began
  double finish = 0;      // virtual time the result (or failure) landed
  double deadline = 0;    // absolute-from-arrival SLO; 0 = none

  bool rejected = false;  // admission backpressure: never executed
  bool failed = false;
  bool degraded = false;       // completed, but leaned on fault recovery
  bool deadline_met = true;    // false when rejected/failed or late
  std::string algorithm;       // "IndexedJoin" / "GraceHash" / "" (rejected)
  std::string error;
  double predicted = 0;        // planner estimate for the executed plan
  std::uint64_t result_tuples = 0;
  std::uint64_t fingerprint = 0;

  double queue_wait() const { return admit_time - arrival; }
  double service() const { return finish - admit_time; }
  double latency() const { return finish - arrival; }
};

struct WorkloadResult {
  std::vector<QueryOutcome> outcomes;  // submission order

  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
  std::size_t degraded = 0;
  std::size_t deadlines_missed = 0;  // among queries that had one

  // Exact empirical quantiles over *completed* queries.
  double mean_latency = 0;
  double p50_latency = 0;
  double p95_latency = 0;
  double p99_latency = 0;
  double mean_queue_wait = 0;
  double p99_queue_wait = 0;

  double makespan = 0;    // last completion time, virtual seconds
  double throughput = 0;  // completed queries per virtual second

  /// Aggregated shared-cache stats (zero when cache sharing is off).
  CachingService::Stats cache;

  // Live-monitor products (empty / zero when monitoring is off).
  /// Every alert transition in deterministic firing order.
  std::vector<obs::Alert> alerts;
  /// Final per-node health scores at the last monitor evaluation.
  std::vector<double> storage_health;
  std::vector<double> compute_health;
  std::size_t flight_dumps = 0;
  std::size_t dash_lines = 0;

  std::string to_string() const;
};

/// Live busy fractions of the shared cluster, measured as busy-time
/// deltas between samples (a pure read of Resource/Disk counters: no
/// events are scheduled, so sampling never perturbs the simulation).
class ContentionMonitor {
 public:
  explicit ContentionMonitor(Cluster& cluster);

  /// Busy fractions over the window since the previous sample (or since
  /// construction). A zero-length window yields all-zero factors.
  ContentionFactors sample();

 private:
  Cluster& cluster_;
  std::size_t n_nics_ = 0;
  double last_t_ = 0;
  double last_disk_ = 0;
  double last_nic_ = 0;
  double last_switch_ = 0;
  double last_cpu_ = 0;
};

/// Runs the whole workload on the cluster's engine (one Engine::run) and
/// blocks until every query resolved. Deterministic per (spec, cluster).
WorkloadResult run_workload(Cluster& cluster, BdsService& bds,
                            const MetaDataService& meta,
                            const WorkloadSpec& spec);

}  // namespace orv
