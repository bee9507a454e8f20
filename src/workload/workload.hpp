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
// Each query's life cycle: arrive → admission (bounded FIFO run queue;
// rejection = backpressure) → plan and execute concurrently → SLO
// accounting (queue wait vs service, deadline met/missed) into per-query
// outcomes and exact nearest-rank latency quantiles (obs::exact_quantile).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "obs/flight.hpp"
#include "obs/monitor.hpp"
#include "obs/sinks.hpp"
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
/// outcome records) and the tick coroutine only sleeps, so outcomes with
/// monitoring on are bit-identical to monitoring off. The obs::Monitor
/// evaluates its four rules every 0.25 virtual seconds and after every
/// query outcome, over this run's outcomes only; the sinks say where it
/// writes.
struct WorkloadMonitorOptions {
  bool enabled = false;
  /// Test hook: use this recorder instead of an internally owned one
  /// (not owned; must outlive the run).
  obs::FlightRecorder* flight = nullptr;
};

struct WorkloadSpec {
  std::uint64_t seed = 0;
  std::vector<WorkloadClientSpec> clients;
  AdmissionConfig admission;
  QesSession::Config session;
  /// Execution options applied to every query.
  QesOptions base_options;
  /// Live monitor / flight recorder / dashboard (a flight or dash sink
  /// enables this implicitly).
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
  double predicted = 0;        // planner estimate for the executed plan;
                               // 0 when rejected (never planned)
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

/// Runs the whole workload on the cluster's engine (one Engine::run) and
/// blocks until every query resolved. Deterministic per (spec, cluster).
/// `sinks` says where the monitor's flight dumps and dashboard go.
WorkloadResult run_workload(Cluster& cluster, BdsService& bds,
                            const MetaDataService& meta,
                            const WorkloadSpec& spec,
                            const obs::Sinks& sinks = obs::sinks());

}  // namespace orv
