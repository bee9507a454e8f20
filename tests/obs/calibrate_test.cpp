// Online calibrator: the robust EWMA's replace-then-smooth and outlier
// band, per-parameter extraction from query observations, the degraded
// exclusion rule, and the calib.* gauge mirror published through an
// installed obs context.

#include "obs/calibrate.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "obs/obs.hpp"

namespace orv::obs {
namespace {

// ---------------------------------------------------------- RobustEwma

TEST(RobustEwmaTest, FirstAcceptedSampleReplacesPrior) {
  RobustEwma e(/*prior=*/100.0);  // alpha 0.5, band 8
  EXPECT_TRUE(e.update(40.0));  // within band [12.5, 800]
  EXPECT_DOUBLE_EQ(e.value(), 40.0);  // replaced, not averaged
  EXPECT_TRUE(e.update(60.0));
  EXPECT_DOUBLE_EQ(e.value(), 50.0);  // now EWMA: 40 + 0.5 * 20
  EXPECT_EQ(e.accepted(), 2u);
}

TEST(RobustEwmaTest, OutlierBandRejectsRelativeToCurrentEstimate) {
  RobustEwma e(100.0);
  EXPECT_FALSE(e.update(900.0));   // ratio 9 > band
  EXPECT_FALSE(e.update(10.0));    // ratio 0.1 < 1/band
  EXPECT_DOUBLE_EQ(e.value(), 100.0);
  EXPECT_EQ(e.rejected(), 2u);
  EXPECT_TRUE(e.update(200.0));    // ratio 2, fine
  EXPECT_DOUBLE_EQ(e.value(), 200.0);
}

TEST(RobustEwmaTest, NonFiniteAndNegativeSamplesRejected) {
  RobustEwma e(1.0);
  EXPECT_FALSE(e.update(-1.0));
  EXPECT_FALSE(e.update(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(e.update(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(e.rejected(), 3u);
  EXPECT_DOUBLE_EQ(e.value(), 1.0);
}

TEST(RobustEwmaTest, ZeroBandDisablesRejection) {
  RobustEwma e(1.0, /*reject_outliers=*/false);
  EXPECT_TRUE(e.update(1000.0));  // 1000x jump accepted
  EXPECT_DOUBLE_EQ(e.value(), 1000.0);
  EXPECT_TRUE(e.update(0.0));  // an honest zero is a valid residual
  EXPECT_DOUBLE_EQ(e.value(), 500.0);
}

// ---------------------------------------------------------- Calibrator

CalibrationState test_priors() {
  CalibrationState s;
  s.read_io_bw = 35e6;
  s.write_io_bw = 30e6;
  s.net_bw = 62.5e6;
  s.local_bus_bw = 400e6;
  s.alpha_build = 160e-9;
  s.alpha_lookup = 128e-9;
  s.msg_overhead = 0;
  return s;
}

/// A clean observation whose point estimates all differ ~2x from the
/// priors, in directions a mis-stated spec sheet would produce.
QueryObservation clean_obs() {
  QueryObservation o;
  o.indexed_join = false;
  o.build_seconds = 0.32;
  o.build_tuples = 1'000'000;  // alpha_build sample: 320e-9
  o.probe_seconds = 0.256;
  o.probe_tuples = 1'000'000;  // alpha_lookup sample: 256e-9
  o.transfer_bytes = 31.25e6;
  o.transfer_wall_seconds = 1.0;  // effective 31.25 MB/s
  o.spill_bytes = 15e6;
  o.spill_seconds = 1.0;  // write_io sample: 15 MB/s
  o.read_bytes = 11.6e6;
  o.read_seconds = 1.0;  // read_io sample: 11.6 MB/s
  o.n_s = 5;
  o.n_j = 5;
  o.net_bound = true;
  return o;
}

TEST(CalibratorTest, OneCleanQueryLandsOnTheTrueParameters) {
  Calibrator cal(test_priors());
  cal.observe(clean_obs());
  const CalibrationState s = cal.state();
  EXPECT_DOUBLE_EQ(s.alpha_build, 320e-9);
  EXPECT_DOUBLE_EQ(s.alpha_lookup, 256e-9);
  EXPECT_DOUBLE_EQ(s.write_io_bw, 15e6);
  EXPECT_DOUBLE_EQ(s.read_io_bw, 11.6e6);
  EXPECT_DOUBLE_EQ(s.net_bw, 31.25e6);  // net_bound transfer attribution
  EXPECT_EQ(s.queries_observed, 1u);
  EXPECT_EQ(cal.observed(), 1u);
}

TEST(CalibratorTest, DegradedQueriesAreExcludedWholesale) {
  Calibrator cal(test_priors());
  QueryObservation o = clean_obs();
  o.degraded = true;
  cal.observe(o);
  EXPECT_EQ(cal.observed(), 0u);
  EXPECT_EQ(cal.excluded(), 1u);
  // Nothing moved: the state still mirrors the priors.
  EXPECT_DOUBLE_EQ(cal.state().alpha_build, test_priors().alpha_build);
  EXPECT_DOUBLE_EQ(cal.state().net_bw, test_priors().net_bw);
}

TEST(CalibratorTest, DiskBoundTransferAttributesToReadIo) {
  // When the prior says aggregate reads bound the phase (net faster than
  // n_s disks), the effective transfer bandwidth teaches read_io, per
  // disk, not net.
  CalibrationState priors = test_priors();
  priors.net_bw = 1000e6;  // faster than 5 * 35 MB/s
  Calibrator cal(priors);
  QueryObservation o = clean_obs();
  o.net_bound = false;
  o.spill_bytes = o.read_bytes = 0;  // isolate the transfer attribution
  o.transfer_bytes = 60e6;
  o.transfer_wall_seconds = 1.0;
  cal.observe(o);
  EXPECT_DOUBLE_EQ(cal.state().read_io_bw, 12e6);   // 60 MB/s over 5 disks
  EXPECT_DOUBLE_EQ(cal.state().net_bw, 1000e6);     // untouched
}

TEST(CalibratorTest, MostlyLocalTransferAttributesToLocalBus) {
  Calibrator cal(test_priors());
  QueryObservation o = clean_obs();
  o.transfer_bytes = 1000e6;
  o.local_bytes = 900e6;  // > half the bytes rode node-local buses
  o.transfer_wall_seconds = 1.0;
  cal.observe(o);
  // Aggregate 1000 MB/s over n_j = 5 buses -> 200 MB/s per bus.
  EXPECT_DOUBLE_EQ(cal.state().local_bus_bw, 200e6);
  EXPECT_DOUBLE_EQ(cal.state().net_bw, test_priors().net_bw);  // untouched
}

TEST(CalibratorTest, MessageOverheadResidualUsesPreUpdateState) {
  // Transfer takes longer than the *current* bandwidth estimate explains;
  // the excess is attributed per message (scaled by n_s senders). Using
  // the pre-update state means the same seconds are not double-counted
  // into both a lower bandwidth and an overhead.
  Calibrator cal(test_priors());
  QueryObservation o = clean_obs();
  o.spill_bytes = o.read_bytes = 0;
  o.build_tuples = o.probe_tuples = 0;
  o.transfer_bytes = 62.5e6;     // exactly 1s at the prior net_bw
  o.transfer_wall_seconds = 1.5; // 0.5s unexplained
  o.messages = 250;
  cal.observe(o);
  // residual 0.5s * n_s / messages = 0.5 * 5 / 250 = 10ms per message.
  EXPECT_NEAR(cal.state().msg_overhead, 0.01, 1e-12);
}

TEST(CalibratorTest, PublishesGaugesThroughInstalledContext) {
  WallClock clock;
  ObsContext ctx(&clock);
  ScopedInstall install(ctx);
  Calibrator cal(test_priors());
  cal.observe(clean_obs());
  QueryObservation degraded = clean_obs();
  degraded.degraded = true;
  cal.observe(degraded);

  const auto snap = ctx.registry.snapshot();
  auto counter = [&](const char* name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return ~0ull;
  };
  auto gauge = [&](const char* name) -> double {
    for (const auto& [n, v] : snap.gauges) {
      if (n == name) return v;
    }
    return -1;
  };
  EXPECT_EQ(counter("calib.samples"), 1u);
  EXPECT_EQ(counter("calib.excluded"), 1u);
  EXPECT_DOUBLE_EQ(gauge("calib.net_bw"), 31.25e6);
  EXPECT_DOUBLE_EQ(gauge("calib.alpha_build"), 320e-9);
  // Residuals of the observation against the just-updated state: the
  // estimates were set from this very query, so each ratio is ~1.
  EXPECT_NEAR(gauge("calib.residual.spill"), 1.0, 1e-9);
  EXPECT_NEAR(gauge("calib.residual.read"), 1.0, 1e-9);
  EXPECT_NEAR(gauge("calib.residual.cpu"), 1.0, 1e-9);
}

TEST(CalibratorTest, StateJsonHasEveryParameter) {
  Calibrator cal(test_priors());
  const std::string js = cal.state().to_json();
  for (const char* key :
       {"read_io_bw", "write_io_bw", "net_bw", "local_bus_bw", "alpha_build",
        "alpha_lookup", "msg_overhead", "queries_observed"}) {
    EXPECT_NE(js.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace orv::obs
