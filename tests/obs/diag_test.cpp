// Bottleneck diagnosis engine: each detector triggered and suppressed by
// purpose-built inputs, algorithm-aware knob suggestions, and the
// bit-identical-determinism guarantee the chaos sweep relies on.

#include "obs/diag.hpp"

#include <gtest/gtest.h>

namespace orv::obs {
namespace {

DiagnosisInput base_input(const char* algorithm = "IndexedJoin") {
  DiagnosisInput in;
  in.query = "q";
  in.algorithm = algorithm;
  in.elapsed = 1.0;
  return in;
}

CriticalPath network_heavy_path() {
  CriticalPath cp;
  cp.total = 1.0;
  cp.by_stage[static_cast<std::size_t>(Stage::Network)] = 0.7;
  cp.by_stage[static_cast<std::size_t>(Stage::Cpu)] = 0.2;
  cp.by_stage[static_cast<std::size_t>(Stage::Disk)] = 0.1;
  return cp;
}

TEST(Diag, DominantStageFromCriticalPath) {
  DiagnosisInput in = base_input();
  const CriticalPath cp = network_heavy_path();
  in.path = cp;
  const Diagnosis d = diagnose(in);
  EXPECT_EQ(d.dominant_stage, "network");
  EXPECT_DOUBLE_EQ(d.dominant_share, 0.7);
  ASSERT_TRUE(d.has("dominant stage"));
  EXPECT_DOUBLE_EQ(d.findings[0].confidence, 0.7);
  // IJ + network without placement affinity: the suggestion offers the
  // locality knob.
  EXPECT_NE(d.findings[0].suggestion.find("graph-partitioned"),
            std::string::npos);
}

TEST(Diag, SuggestionsAreAlgorithmAndPlacementAware) {
  const CriticalPath cp = network_heavy_path();
  DiagnosisInput ij = base_input("IndexedJoin");
  ij.path = cp;
  ij.placement_affinity = true;  // locality already on: suggest lookahead
  EXPECT_NE(diagnose(ij).findings[0].suggestion.find("prefetch_lookahead"),
            std::string::npos);
  DiagnosisInput gh = base_input("GraceHash");
  gh.path = cp;
  EXPECT_NE(diagnose(gh).findings[0].suggestion.find("batch_bytes"),
            std::string::npos);
}

TEST(Diag, NoTraceSkipsDominantStage) {
  const Diagnosis d = diagnose(base_input());
  EXPECT_TRUE(d.dominant_stage.empty());
  EXPECT_FALSE(d.has("dominant stage"));
  EXPECT_EQ(d.to_string(), "no-trace");
}

TEST(Diag, StragglerNeedsThreeNodesAndAClearOutlier) {
  DiagnosisInput in = base_input();
  in.nodes = {{0, 1.0, 100, 0}, {1, 1.0, 100, 0}, {2, 1.4, 100, 0}};
  EXPECT_FALSE(diagnose(in).has("straggler node"));  // 1.4x peers: fine
  in.nodes[2].busy_seconds = 3.0;
  const Diagnosis d = diagnose(in);
  ASSERT_TRUE(d.has("straggler node"));
  // Two nodes never trigger it (no meaningful peer mean).
  in.nodes.pop_back();
  EXPECT_FALSE(diagnose(in).has("straggler node"));
}

TEST(Diag, PartitionSkewOnWorkItemVariation) {
  DiagnosisInput in = base_input("GraceHash");
  in.nodes = {{0, 1.0, 1000, 0}, {1, 1.0, 1000, 0}};
  EXPECT_FALSE(diagnose(in).has("partition skew"));
  in.nodes[1].items = 10;  // CoV ~ 0.98
  const Diagnosis d = diagnose(in);
  ASSERT_TRUE(d.has("partition skew"));
  for (const auto& f : d.findings) {
    if (f.kind == "partition skew") {
      EXPECT_NE(f.suggestion.find("bucket_pair_bytes"), std::string::npos);
    }
  }
}

TEST(Diag, CacheThrashNeedsEvictionsAndPoorHits) {
  DiagnosisInput in = base_input();
  in.cache_puts = 100;
  in.cache_evictions = 80;
  in.cache_hits = 10;
  in.cache_misses = 90;
  EXPECT_TRUE(diagnose(in).has("cache thrash"));
  in.cache_hits = 90;
  in.cache_misses = 10;  // good hit rate: no thrash however many evictions
  EXPECT_FALSE(diagnose(in).has("cache thrash"));
}

TEST(Diag, SwitchSaturationFromOccupancySeries) {
  DiagnosisInput in = base_input();
  TimeSeries ts;
  ts.name = "occupancy.switch";
  for (int i = 0; i < 10; ++i) {
    ts.points.push_back({i * 0.1, i < 6 ? 0.95 : 0.2});
  }
  in.series.push_back(ts);
  EXPECT_TRUE(diagnose(in).has("switch saturation"));
  // Under half the samples saturated: quiet.
  in.series[0].points.assign({{0.0, 0.95}, {0.1, 0.2}, {0.2, 0.2}});
  EXPECT_FALSE(diagnose(in).has("switch saturation"));
  // Other series names are ignored.
  in.series[0].name = "occupancy.disk";
  in.series[0].points.assign(10, {0.0, 1.0});
  EXPECT_FALSE(diagnose(in).has("switch saturation"));
}

TEST(Diag, WastedPrefetchOverQuarterOfIssued) {
  DiagnosisInput in = base_input();
  in.prefetch_issued = 100;
  in.prefetch_wasted = 20;
  EXPECT_FALSE(diagnose(in).has("wasted prefetch"));
  in.prefetch_wasted = 30;
  EXPECT_TRUE(diagnose(in).has("wasted prefetch"));
}

TEST(Diag, RetryAmplificationAndNodeLossAreExactEvidence) {
  DiagnosisInput in = base_input();
  in.fetch_retries = 3;
  in.nodes_lost = 1;
  in.pairs_reassigned = 12;
  const Diagnosis d = diagnose(in);
  ASSERT_TRUE(d.has("retry amplification"));
  ASSERT_TRUE(d.has("node loss"));
  for (const auto& f : d.findings) {
    EXPECT_DOUBLE_EQ(f.confidence, 1.0) << f.kind;
  }
  // to_string lists every non-dominant finding.
  EXPECT_NE(d.to_string().find("retry amplification"), std::string::npos);
  EXPECT_NE(d.to_string().find("node loss"), std::string::npos);
}

TEST(Diag, DegradedRunAlwaysNamesACause) {
  // The chaos-sweep contract: a degraded result carries at least one of
  // the fault counters, so the diagnosis always names retry amplification
  // or node loss.
  DiagnosisInput in = base_input();
  in.degraded = true;
  in.rows_repartitioned = 500;
  const Diagnosis d = diagnose(in);
  EXPECT_TRUE(d.has("retry amplification") || d.has("node loss"));
}

TEST(Diag, DeterministicBitIdenticalOutput) {
  DiagnosisInput in = base_input("GraceHash");
  const CriticalPath cp = network_heavy_path();
  in.path = cp;
  in.nodes = {{0, 1.0, 1000, 5e6}, {1, 0.9, 10, 4e6}, {2, 3.1, 990, 6e6}};
  in.fetch_retries = 2;
  in.prefetch_issued = 8;
  in.prefetch_wasted = 7;
  const std::string a = diagnose(in).to_json();
  const std::string b = diagnose(in).to_json();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(Diag, JsonCarriesFindingsWithKnobs) {
  DiagnosisInput in = base_input();
  in.fetch_retries = 1;
  const std::string js = diagnose(in).to_json();
  for (const char* key : {"\"query\"", "\"algorithm\"", "\"dominant_stage\"",
                          "\"findings\"", "\"kind\"", "\"confidence\"",
                          "\"suggestion\""}) {
    EXPECT_NE(js.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace orv::obs
