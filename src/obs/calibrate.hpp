#pragma once

// Online cost-model calibration: after each instrumented query, effective
// hardware parameters (IO bandwidths, network bandwidth, local-bus
// bandwidth, per-tuple CPU costs, per-message overhead) are extracted from
// the measured stage timings and folded into robust per-parameter
// estimators. The planner can then optionally consult the resulting
// CalibrationState (QesOptions::calibrator, default null — the paper
// paths never see calibrated numbers), closing the predict → measure →
// correct loop the PlanValidation records only reported on.
//
// Estimator design: one EWMA per parameter with relative outlier
// rejection. Samples are per-query point estimates with direct physical
// meaning (e.g. alpha_build = summed build-span seconds / build tuples),
// so a single clean query already lands near the true value and the EWMA
// mostly smooths scheduling noise. Degraded queries (retries, node loss —
// PR 3's query.degraded accounting) are excluded wholesale: recovery time
// is not hardware time.

#include <cstdint>
#include <string>

namespace orv::obs {

/// EWMA with relative outlier rejection: a sample whose ratio to the
/// current estimate falls outside [1/band, band] is rejected (counted, not
/// folded in). The first accepted sample replaces the prior outright so
/// one observation suffices to leave a badly mis-set prior; `band <= 0`
/// disables rejection (used for residual-style parameters whose honest
/// value may be 0).
class RobustEwma {
 public:
  explicit RobustEwma(double prior, double alpha = 0.5, double band = 8.0)
      : value_(prior), alpha_(alpha), band_(band) {}

  /// Returns false when the sample was rejected as an outlier.
  bool update(double sample);

  double value() const { return value_; }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t rejected() const { return rejected_; }

 private:
  double value_;
  double alpha_;
  double band_;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
};

/// Effective hardware parameters, in CostParams units. A default-
/// constructed state is "everything uncalibrated"; fields the planner
/// applies are only those > 0 (msg_overhead applies at >= 0 once any
/// query has been observed).
struct CalibrationState {
  double read_io_bw = 0;    // bytes/s per disk
  double write_io_bw = 0;   // bytes/s per disk
  double net_bw = 0;        // aggregate bytes/s between cluster sides
  double local_bus_bw = 0;  // bytes/s per node-local bus
  double alpha_build = 0;   // seconds per build tuple
  double alpha_lookup = 0;  // seconds per probe tuple
  double msg_overhead = 0;  // seconds per message (Grappa-style gamma)
  std::uint64_t queries_observed = 0;

  std::string to_json() const;
};

/// One instrumented query's measurements, reduced to plain numbers so the
/// calibrator depends on no executor or cost-model type. CPU and scratch
/// IO fields are *summed across nodes* (their estimators divide by work,
/// not by wall time); transfer fields are wall-clock (the phase runs in
/// parallel across nodes).
struct QueryObservation {
  std::string query;         // label, for the residual log only
  bool indexed_join = true;  // which algorithm produced the measurements
  bool degraded = false;     // excluded from calibration when true

  // CPU: summed span seconds and processed tuple counts.
  double build_seconds = 0;
  std::uint64_t build_tuples = 0;
  double probe_seconds = 0;
  std::uint64_t probe_tuples = 0;

  // Transfer: bytes moved vs. the wall seconds the critical path spent in
  // network stages. local_bytes is the node-local-bus share of the bytes.
  double transfer_bytes = 0;
  double transfer_wall_seconds = 0;
  double local_bytes = 0;

  // Grace-Hash scratch IO: summed bytes vs. summed span seconds.
  double spill_bytes = 0;
  double spill_seconds = 0;
  double read_bytes = 0;
  double read_seconds = 0;

  // Messaging: h1 batch count for the per-message overhead residual.
  std::uint64_t messages = 0;

  // Topology and prior-model binding: when the prior model says the
  // network (not the aggregate storage read bandwidth) bounds the
  // transfer phase, the effective transfer bandwidth is attributed to
  // net_bw, otherwise to read_io_bw / n_s.
  double n_s = 0;
  double n_j = 0;
  bool net_bound = true;
};

/// The online calibrator. Thread-compatible (one writer); reads through
/// state() copy out a consistent snapshot. When an obs context is
/// installed, every observe() publishes the current estimates as
/// calib.<param> gauges plus calib.samples / calib.excluded /
/// calib.rejected counters and per-stage residual gauges, so the
/// calibration loop is itself observable.
class Calibrator {
 public:
  explicit Calibrator(const CalibrationState& priors, double alpha = 0.5,
                      double band = 8.0);

  /// Folds one query's measurements in (no-op for degraded queries beyond
  /// counting the exclusion).
  void observe(const QueryObservation& o);

  CalibrationState state() const;
  const CalibrationState& priors() const { return priors_; }

  std::uint64_t observed() const { return observed_; }
  std::uint64_t excluded() const { return excluded_; }
  std::uint64_t rejected() const;

 private:
  void publish(const QueryObservation& o) const;

  CalibrationState priors_;
  RobustEwma read_io_;
  RobustEwma write_io_;
  RobustEwma net_;
  RobustEwma local_;
  RobustEwma a_build_;
  RobustEwma a_lookup_;
  RobustEwma msg_;
  std::uint64_t observed_ = 0;
  std::uint64_t excluded_ = 0;
};

}  // namespace orv::obs
