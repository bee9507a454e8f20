// Time-windowed instruments and the Prometheus exporter: the shared
// bucket-quantile estimator's boundary behaviour, windowed counter /
// histogram expiry semantics (totals evaluated as-of the last event, old
// slots lazily zeroed), and the text exposition format.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"

namespace orv::obs {
namespace {

// --------------------------------------------- quantile_from_buckets

TEST(QuantileFromBuckets, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(quantile_from_buckets({1.0, 2.0}, {0, 0, 0}, 0, 0, 0, 0.5),
                   0.0);
}

TEST(QuantileFromBuckets, SingleSampleResolvesToOwningBucketUpperEdge) {
  // One observation of 1.5 lands in bucket (1, 2]. Every quantile has
  // rank 1, the sole sample of its bucket, so interpolation lands on the
  // bucket's upper edge — bounded estimate, never outside the bucket.
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> counts = {0, 1, 0, 0};
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(
        quantile_from_buckets(bounds, counts, 1, 1.5, 1.5, q), 2.0)
        << "q=" << q;
  }
}

TEST(QuantileFromBuckets, InterpolatesInsideOwningBucket) {
  // Four samples in bucket (10, 20]: ranks 1..4 spread linearly across
  // the bucket span.
  const std::vector<double> bounds = {10.0, 20.0};
  const std::vector<std::uint64_t> counts = {0, 4, 0};
  // rank(0.5) = 2 -> 10 + 20/4 * 2... exact interpolation form: lower +
  // width * rank_in_bucket / bucket_count.
  const double p50 = quantile_from_buckets(bounds, counts, 4, 11.0, 19.0, 0.5);
  EXPECT_GT(p50, 10.0);
  EXPECT_LT(p50, 20.0);
  const double p25 = quantile_from_buckets(bounds, counts, 4, 11.0, 19.0, 0.25);
  const double p99 = quantile_from_buckets(bounds, counts, 4, 11.0, 19.0, 0.99);
  EXPECT_LT(p25, p50);
  EXPECT_LT(p50, p99);
}

TEST(QuantileFromBuckets, FirstBucketLowerEdgeIsObservedMin) {
  // All samples in the first bucket: interpolation starts at the observed
  // minimum, not at 0, so low quantiles never undershoot the data.
  const std::vector<double> bounds = {100.0};
  const std::vector<std::uint64_t> counts = {10, 0};
  const double p10 = quantile_from_buckets(bounds, counts, 10, 42.0, 99.0, 0.1);
  EXPECT_GE(p10, 42.0);
}

TEST(QuantileFromBuckets, RankInOverflowBucketReturnsMax) {
  const std::vector<double> bounds = {1.0};
  const std::vector<std::uint64_t> counts = {1, 3};  // 3 samples beyond 1.0
  EXPECT_DOUBLE_EQ(
      quantile_from_buckets(bounds, counts, 4, 0.5, 123.0, 0.99), 123.0);
}

// --------------------------------------------------- WindowedCounter

TEST(WindowedCounterTest, TotalAndRateOverWindow) {
  WindowedCounter wc(/*slot_seconds=*/0.25, /*slots=*/4);  // 1s window
  wc.add(0.0, 2);
  wc.add(0.3, 3);
  wc.add(0.9, 5);
  EXPECT_EQ(wc.windowed_total(), 10u);
  EXPECT_DOUBLE_EQ(wc.window_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(wc.rate(), 10.0);
  EXPECT_DOUBLE_EQ(wc.last_time(), 0.9);
}

TEST(WindowedCounterTest, OldSlotsExpireAsTimeAdvances) {
  WindowedCounter wc(0.25, 4);
  wc.add(0.0, 100);
  wc.add(2.0, 7);  // 2.0 - 0.0 > window: the old slot is out of range
  EXPECT_EQ(wc.windowed_total(), 7u);
}

TEST(WindowedCounterTest, SnapshotIsAsOfLastEventNotNow) {
  // Nothing advances the window but an explicit event: repeated snapshots
  // see the same totals however long the caller waits, which keeps
  // sim-time runs deterministic.
  WindowedCounter wc(0.25, 4);
  wc.add(1.0, 4);
  const auto first = wc.windowed_total();
  const auto second = wc.windowed_total();
  EXPECT_EQ(first, 4u);
  EXPECT_EQ(first, second);
}

// ------------------------------------------------- WindowedHistogram

TEST(WindowedHistogramTest, MergedStatsOverWindow) {
  WindowedHistogram wh({1.0, 2.0, 4.0}, /*slot_seconds=*/0.5, /*slots=*/4);
  wh.observe(0.1, 0.5);
  wh.observe(0.6, 1.5);
  wh.observe(1.2, 3.0);
  const auto m = wh.merged();
  EXPECT_EQ(m.count, 3u);
  EXPECT_DOUBLE_EQ(m.sum, 5.0);
  EXPECT_DOUBLE_EQ(m.min, 0.5);
  EXPECT_DOUBLE_EQ(m.max, 3.0);
  EXPECT_GE(m.p50, 0.5);
  EXPECT_LE(m.p50, 3.0);
  EXPECT_LE(m.p50, m.p95);
  EXPECT_LE(m.p95, m.p99);
}

TEST(WindowedHistogramTest, ExpiredSlotsDropOut) {
  WindowedHistogram wh({1.0, 2.0}, 0.5, 4);  // 2s window
  wh.observe(0.0, 0.5);
  wh.observe(10.0, 1.5);  // far past the window: only this one remains
  const auto m = wh.merged();
  EXPECT_EQ(m.count, 1u);
  EXPECT_DOUBLE_EQ(m.min, 1.5);
  EXPECT_DOUBLE_EQ(m.max, 1.5);
}

// ------------------------------------------------------- Prometheus

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(prometheus_name("ij.fetch_seconds"), "ij_fetch_seconds");
  EXPECT_EQ(prometheus_name("a-b c"), "a_b_c");
  EXPECT_EQ(prometheus_name("9lives"), "_9lives");
}

TEST(Prometheus, TextExpositionCoversEveryInstrumentKind) {
  Registry reg;
  reg.counter("ij.pairs").add(42);
  reg.gauge("calib.net_bw").set(12.5);
  // Stage histograms come from spans: one closed 1.5 s "ij.fetch" span,
  // and an open one, which the exposition leaves out.
  SpanRecord fetch;
  fetch.name = "ij.fetch";
  fetch.start = 0.5;
  fetch.end = 2.0;
  SpanRecord open_fetch = fetch;
  open_fetch.end = -1;
  const std::string text =
      prometheus_text(reg.snapshot(), {fetch, open_fetch});

  EXPECT_NE(text.find("# TYPE orv_ij_pairs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("orv_ij_pairs_total 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE orv_calib_net_bw gauge"), std::string::npos);
  EXPECT_NE(text.find("orv_calib_net_bw 12.5"), std::string::npos);
  // Histogram buckets are cumulative at duration_bounds() and end with
  // +Inf == count.
  EXPECT_NE(text.find("# TYPE orv_ij_fetch_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("orv_ij_fetch_seconds_bucket{le=\"1.048576\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("orv_ij_fetch_seconds_bucket{le=\"2.097152\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("orv_ij_fetch_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("orv_ij_fetch_seconds_sum 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("orv_ij_fetch_seconds_count 1\n"), std::string::npos);
}

TEST(Prometheus, CustomPrefix) {
  Registry reg;
  reg.counter("c").add(1);
  const std::string text = prometheus_text(reg.snapshot(), {}, "qes");
  EXPECT_NE(text.find("qes_c_total 1"), std::string::npos);
  EXPECT_EQ(text.find("orv_"), std::string::npos);
}

// ------------------------------------------- ring wrap-around edges

TEST(WindowedCounterTest, RingWrapAroundKeepsOnlyWindowSlots) {
  // 4-slot ring, events across 10 slot epochs: every write past slot 3
  // wraps and reuses indices. Totals must always be the in-window sum,
  // no matter how many times the ring wrapped.
  WindowedCounter wc(1.0, 4);
  for (int e = 0; e < 10; ++e) {
    wc.add(static_cast<double>(e) + 0.5, 1);
  }
  // Window ends at epoch 9: epochs 6..9 are in range.
  EXPECT_EQ(wc.windowed_total(), 4u);
  EXPECT_DOUBLE_EQ(wc.rate(), 1.0);
}

TEST(WindowedCounterTest, SparseWrapSkipsStaleEpochs) {
  // A gap larger than the ring leaves stale slots whose *index* is in
  // range but whose epoch is not; they must read as zero.
  WindowedCounter wc(1.0, 4);
  wc.add(0.5, 100);   // epoch 0
  wc.add(9.5, 1);     // epoch 9 — same ring index as epoch... irrelevant
  wc.add(6.6, 50);    // late event in epoch 6, still inside the window
  EXPECT_EQ(wc.windowed_total(), 51u);
}

TEST(WindowedCounterTest, EventOnExactSlotBoundary) {
  // t = k * slot_seconds sits on the boundary between epochs k-1 and k;
  // floor() places it in epoch k, so a snapshot straddling the boundary
  // keeps both events distinct.
  WindowedCounter wc(1.0, 2);  // 2s window
  wc.add(1.0, 3);  // epoch 1 exactly
  wc.add(2.0, 4);  // epoch 2 exactly: window now epochs {1, 2}
  EXPECT_EQ(wc.windowed_total(), 7u);
  wc.add(3.0, 5);  // window slides to {2, 3}; the epoch-1 slot expires
  EXPECT_EQ(wc.windowed_total(), 9u);
}

TEST(WindowedHistogramTest, RingWrapAroundDropsOverwrittenSlots) {
  WindowedHistogram wh({1.0, 10.0}, 1.0, 4);
  for (int e = 0; e < 8; ++e) {
    wh.observe(static_cast<double>(e) + 0.5,
               static_cast<double>(e));  // one sample per epoch
  }
  const auto m = wh.merged();  // window = epochs 4..7
  EXPECT_EQ(m.count, 4u);
  EXPECT_DOUBLE_EQ(m.min, 4.0);
  EXPECT_DOUBLE_EQ(m.max, 7.0);
  EXPECT_DOUBLE_EQ(m.sum, 4.0 + 5.0 + 6.0 + 7.0);
}

TEST(WindowedHistogramTest, SnapshotStraddlingSlotBoundary) {
  // Observations on either side of a slot boundary: the merge must see
  // both slots until the window slides past the older one.
  WindowedHistogram wh({1.0, 2.0, 4.0}, 0.5, 2);  // 1s window
  wh.observe(0.49, 1.5);  // slot epoch 0
  wh.observe(0.51, 3.0);  // slot epoch 1
  auto m = wh.merged();
  EXPECT_EQ(m.count, 2u);
  EXPECT_DOUBLE_EQ(m.min, 1.5);
  wh.observe(1.01, 0.5);  // epoch 2: epoch 0 (the 1.5 sample) expires
  m = wh.merged();
  EXPECT_EQ(m.count, 2u);
  EXPECT_DOUBLE_EQ(m.min, 0.5);
  EXPECT_DOUBLE_EQ(m.max, 3.0);
}

TEST(WindowedHistogramTest, EmptyWindowMergesToZeros) {
  WindowedHistogram wh({1.0}, 0.5, 4);
  const auto m = wh.merged();  // no observations at all
  EXPECT_EQ(m.count, 0u);
  EXPECT_DOUBLE_EQ(m.p50, 0.0);
  EXPECT_DOUBLE_EQ(m.p99, 0.0);
  EXPECT_DOUBLE_EQ(m.sum, 0.0);
}

TEST(WindowedHistogramTest, PartialWindowQuantilesUseOnlyLiveSlots) {
  // Only one slot of a 4-slot window has data ("partial window"): the
  // quantiles must come from that slot alone, not read stale memory.
  WindowedHistogram wh({1.0, 2.0, 4.0}, 0.5, 4);
  wh.observe(0.1, 1.5);
  const auto m = wh.merged();
  EXPECT_EQ(m.count, 1u);
  EXPECT_GE(m.p50, 1.0);
  EXPECT_LE(m.p50, 2.0);
  EXPECT_DOUBLE_EQ(m.p50, m.p99);  // single sample: all quantiles agree
}

// Round trip: parse the rendered exposition back into (family, value)
// samples and check it reproduces the registry contents exactly, one
// TYPE line and one sample per family.
TEST(Prometheus, ExpositionRoundTrip) {
  Registry reg;
  reg.counter("workload.slo_total").add(40);
  reg.counter("workload.slo_missed").add(3);
  reg.counter("gh.bucket_readback_bytes").add(25);
  reg.gauge("calib.net_bw").set(0.4);
  reg.gauge("ij.pairs_per_node").set(12.5);

  std::map<std::string, double> samples;
  std::map<std::string, std::string> types;
  const std::string text = prometheus_text(reg.snapshot());
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(start, nl - start);
    start = nl + 1;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string family = line.substr(7, sp - 7);
      EXPECT_TRUE(types.emplace(family, line.substr(sp + 1)).second)
          << "family typed twice: " << family;
      continue;
    }
    const std::string family = line.substr(0, sp);
    EXPECT_TRUE(types.count(family)) << "sample before its TYPE: " << line;
    EXPECT_TRUE(samples.emplace(family, std::stod(line.substr(sp + 1))).second)
        << "repeated sample: " << line;
  }
  EXPECT_EQ(samples, (std::map<std::string, double>{
                         {"orv_workload_slo_total_total", 40},
                         {"orv_workload_slo_missed_total", 3},
                         {"orv_gh_bucket_readback_bytes_total", 25},
                         {"orv_calib_net_bw", 0.4},
                         {"orv_ij_pairs_per_node", 12.5}}));
  EXPECT_EQ(types["orv_workload_slo_total_total"], "counter");
  EXPECT_EQ(types["orv_calib_net_bw"], "gauge");
}

}  // namespace
}  // namespace orv::obs
