#include "obs/calibrate.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace orv::obs {

bool RobustEwma::update(double sample) {
  if (!std::isfinite(sample) || sample < 0) {
    ++rejected_;
    return false;
  }
  if (value_ > 0 && sample > 0 && band_ > 0) {
    const double ratio = sample / value_;
    if (ratio < 1.0 / band_ || ratio > band_) {
      ++rejected_;
      return false;
    }
  }
  // First accepted sample replaces the prior outright: a point estimate
  // with direct physical meaning beats a guessed constant immediately.
  value_ = accepted_ == 0 ? sample : value_ + alpha_ * (sample - value_);
  ++accepted_;
  return true;
}

Calibrator::Calibrator(const CalibrationState& priors, double alpha,
                       double band)
    : priors_(priors),
      read_io_(priors.read_io_bw, alpha, band),
      write_io_(priors.write_io_bw, alpha, band),
      net_(priors.net_bw, alpha, band),
      local_(priors.local_bus_bw, alpha, band),
      a_build_(priors.alpha_build, alpha, band),
      a_lookup_(priors.alpha_lookup, alpha, band),
      // Residual-based: the honest value may be 0, so no rejection band.
      msg_(priors.msg_overhead, alpha, /*band=*/0) {}

void Calibrator::observe(const QueryObservation& o) {
  auto* ctx = obs::context();
  if (o.degraded) {
    // Recovery time (retries, reassignment, repartitioning) is not
    // hardware time; folding it in would poison every bandwidth estimate.
    ++excluded_;
    if (ctx) ctx->registry.counter("calib.excluded").add(1);
    return;
  }

  // Per-message overhead residual, computed against the *pre-update*
  // state so the same wall seconds are not attributed twice (once to a
  // lower bandwidth and once to message overhead). In a system with no
  // per-message cost the residual hovers at ~0 and the estimator decays
  // there, which is the correct answer.
  if (o.messages > 0 && o.transfer_bytes > 0 && o.transfer_wall_seconds > 0 &&
      o.n_s > 0) {
    const double bw_state =
        std::min(net_.value(), read_io_.value() * o.n_s);
    if (bw_state > 0) {
      const double residual =
          o.transfer_wall_seconds - o.transfer_bytes / bw_state;
      msg_.update(std::max(0.0, residual) * o.n_s /
                  static_cast<double>(o.messages));
    }
  }

  if (o.build_tuples > 0 && o.build_seconds > 0) {
    a_build_.update(o.build_seconds / static_cast<double>(o.build_tuples));
  }
  if (o.probe_tuples > 0 && o.probe_seconds > 0) {
    a_lookup_.update(o.probe_seconds / static_cast<double>(o.probe_tuples));
  }
  if (o.spill_bytes > 0 && o.spill_seconds > 0) {
    write_io_.update(o.spill_bytes / o.spill_seconds);
  }
  if (o.read_bytes > 0 && o.read_seconds > 0) {
    read_io_.update(o.read_bytes / o.read_seconds);
  }
  if (o.transfer_bytes > 0 && o.transfer_wall_seconds > 0) {
    const double eff = o.transfer_bytes / o.transfer_wall_seconds;
    if (o.local_bytes > 0.5 * o.transfer_bytes && o.n_j > 0) {
      // Mostly node-local traffic: the phase ran over n_j independent
      // buses, so the per-bus bandwidth is the aggregate divided by n_j.
      local_.update(eff / o.n_j);
    } else if (o.net_bound) {
      net_.update(eff);
    } else if (o.n_s > 0) {
      // The prior model says the n_s storage disks bound the phase; the
      // effective aggregate is n_s disks' worth of reads.
      read_io_.update(eff / o.n_s);
    }
  }

  ++observed_;
  if (ctx) publish(o);
}

std::uint64_t Calibrator::rejected() const {
  return read_io_.rejected() + write_io_.rejected() + net_.rejected() +
         local_.rejected() + a_build_.rejected() + a_lookup_.rejected() +
         msg_.rejected();
}

CalibrationState Calibrator::state() const {
  CalibrationState s;
  s.read_io_bw = read_io_.value();
  s.write_io_bw = write_io_.value();
  s.net_bw = net_.value();
  s.local_bus_bw = local_.value();
  s.alpha_build = a_build_.value();
  s.alpha_lookup = a_lookup_.value();
  s.msg_overhead = msg_.value();
  s.queries_observed = observed_;
  return s;
}

void Calibrator::publish(const QueryObservation& o) const {
  auto* ctx = obs::context();
  if (!ctx) return;
  Registry& reg = ctx->registry;
  reg.counter("calib.samples").add(1);
  const CalibrationState s = state();
  reg.gauge("calib.read_io_bw").set(s.read_io_bw);
  reg.gauge("calib.write_io_bw").set(s.write_io_bw);
  reg.gauge("calib.net_bw").set(s.net_bw);
  reg.gauge("calib.local_bus_bw").set(s.local_bus_bw);
  reg.gauge("calib.alpha_build").set(s.alpha_build);
  reg.gauge("calib.alpha_lookup").set(s.alpha_lookup);
  reg.gauge("calib.msg_overhead").set(s.msg_overhead);
  reg.gauge("calib.rejected").set(static_cast<double>(rejected()));

  // Per-stage residuals of *this* query against the just-updated state:
  // measured / state-predicted, 1.0 = the estimate explains the stage.
  if (o.transfer_bytes > 0 && o.transfer_wall_seconds > 0 && o.n_s > 0) {
    const double bw = std::min(s.net_bw, s.read_io_bw * o.n_s);
    if (bw > 0) {
      double pred = o.transfer_bytes / bw;
      if (o.messages > 0) {
        pred += s.msg_overhead * static_cast<double>(o.messages) / o.n_s;
      }
      if (pred > 0) {
        reg.gauge("calib.residual.transfer")
            .set(o.transfer_wall_seconds / pred);
      }
    }
  }
  if (o.spill_bytes > 0 && o.spill_seconds > 0 && s.write_io_bw > 0) {
    reg.gauge("calib.residual.spill")
        .set(o.spill_seconds / (o.spill_bytes / s.write_io_bw));
  }
  if (o.read_bytes > 0 && o.read_seconds > 0 && s.read_io_bw > 0) {
    reg.gauge("calib.residual.read")
        .set(o.read_seconds / (o.read_bytes / s.read_io_bw));
  }
  const double cpu_pred =
      s.alpha_build * static_cast<double>(o.build_tuples) +
      s.alpha_lookup * static_cast<double>(o.probe_tuples);
  if (cpu_pred > 0 && o.build_seconds + o.probe_seconds > 0) {
    reg.gauge("calib.residual.cpu")
        .set((o.build_seconds + o.probe_seconds) / cpu_pred);
  }
}

std::string CalibrationState::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("read_io_bw");
  w.value(read_io_bw);
  w.key("write_io_bw");
  w.value(write_io_bw);
  w.key("net_bw");
  w.value(net_bw);
  w.key("local_bus_bw");
  w.value(local_bus_bw);
  w.key("alpha_build");
  w.value(alpha_build);
  w.key("alpha_lookup");
  w.value(alpha_lookup);
  w.key("msg_overhead");
  w.value(msg_overhead);
  w.key("queries_observed");
  w.value(queries_observed);
  w.end_object();
  return w.str();
}

}  // namespace orv::obs
