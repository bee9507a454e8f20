// Observability layer: counters/gauges/histograms (bucket boundaries,
// quantiles, concurrency), span tracer (nesting, tags, StageScope), the
// pluggable clock (wall vs. sim virtual time), the global context guard,
// log-counter routing, the JSON writer, and the execution-profile
// aggregation.

#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "cache/caching_service.hpp"
#include "common/log.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/prometheus.hpp"
#include "obs/sim_clock.hpp"
#include "sim/engine.hpp"

namespace orv::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Counter, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(1.0);   // == bound 1.0 -> bucket 0
  h.observe(1.5);   // bucket 1
  h.observe(2.0);   // == bound 2.0 -> bucket 1
  h.observe(2.01);  // bucket 2
  h.observe(4.0);   // bucket 2
  h.observe(100.0); // +inf bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + implicit +inf
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Histogram, QuantilesInterpolateWithinBucket) {
  Histogram h({10.0, 20.0});
  // Ten observations in (10, 20]: every quantile lands in bucket 1, which
  // interpolates between its lower bound 10 and upper bound 20.
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  // rank = ceil(q*10); p50 -> rank 5 -> 10 + 10 * 5/10 = 15.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.1), 11.0);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);  // empty -> 0

  Histogram one({10.0});
  one.observe(3.0);
  // Single value in the first bucket: lower edge is the observed min.
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 10.0);  // rank clamps to 1
  EXPECT_DOUBLE_EQ(one.p50(), 10.0);

  Histogram overflow({1.0});
  overflow.observe(50.0);
  overflow.observe(60.0);
  // Ranks in the +inf bucket report the observed max.
  EXPECT_DOUBLE_EQ(overflow.p99(), 60.0);
}

TEST(Histogram, FirstBucketLowerEdgeIsObservedMin) {
  Histogram h({10.0});
  h.observe(4.0);
  h.observe(6.0);
  // rank(0.5 * 2) = 1 -> frac 1/2 over [min=4, 10] -> 7.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
}

TEST(Histogram, ExponentialBounds) {
  const auto b = exponential_bounds(1e-6, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1e-6);
  EXPECT_DOUBLE_EQ(b[3], 8e-6);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

TEST(Registry, SameNameReturnsSameInstrument) {
  Registry r;
  Counter& a = r.counter("x");
  a.add(7);
  EXPECT_EQ(r.counter("x").value(), 7u);
  EXPECT_EQ(&r.counter("x"), &a);
}

TEST(Registry, SnapshotListsEverything) {
  Registry r;
  r.counter("c1").add(3);
  r.gauge("g1").set(1.5);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "c1");
  EXPECT_EQ(snap.counters[0].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 1.5);
}

TEST(Registry, ConcurrentMutationIsExact) {
  Registry r;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      for (int i = 0; i < kPerThread; ++i) {
        r.counter("n").add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(r.counter("n").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------------------ spans

TEST(Tracer, NestedSpansLinkToParents) {
  WallClock clock;
  Tracer tracer(&clock);
  const SpanId root = tracer.begin("root");
  const SpanId child = tracer.begin("child", root);
  const SpanId grandchild = tracer.begin("grandchild", child);
  tracer.end(grandchild);
  tracer.end(child);
  tracer.end(root);

  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent.value, 0u);
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[1].parent.value, root.value);
  EXPECT_EQ(spans[2].name, "grandchild");
  EXPECT_EQ(spans[2].parent.value, child.value);
  for (const auto& s : spans) {
    EXPECT_TRUE(s.closed());
    EXPECT_GE(s.duration(), 0.0);
  }
}

TEST(Tracer, TagsAreRecorded) {
  WallClock clock;
  Tracer tracer(&clock);
  const SpanId id = tracer.begin("op");
  tracer.tag(id, "node", std::uint64_t{3});
  tracer.tag(id, "kind", std::string("fetch"));
  tracer.end(id);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans[0].tags.size(), 2u);
  EXPECT_EQ(spans[0].tags[0].first, "node");
  EXPECT_EQ(spans[0].tags[0].second, "3");
  EXPECT_EQ(spans[0].tags[1].second, "fetch");
}

TEST(SimClockSpans, MeasureVirtualTime) {
  sim::Engine engine;
  SimClock clock(engine);
  ObsContext ctx(&clock);

  auto proc = [](sim::Engine& eng, ObsContext& c) -> sim::Task<> {
    StageScope outer(&c, "outer");
    co_await eng.sleep(1.5);
    {
      StageScope inner(&c, "inner", outer.id());
      co_await eng.sleep(0.25);
    }
    co_await eng.sleep(1.0);
  };
  engine.spawn(proc(engine, ctx), "spans");
  engine.run();

  const auto spans = ctx.tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_DOUBLE_EQ(spans[0].duration(), 2.75);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_DOUBLE_EQ(spans[1].start, 1.5);
  EXPECT_DOUBLE_EQ(spans[1].duration(), 0.25);
  EXPECT_EQ(spans[1].parent.value, spans[0].id.value);
}

TEST(SimClockSpans, InterleavedCoroutinesKeepIndependentSpans) {
  sim::Engine engine;
  SimClock clock(engine);
  Tracer tracer(&clock);

  auto proc = [](sim::Engine& eng, Tracer& t, const char* name,
                 double delay) -> sim::Task<> {
    const SpanId span = t.begin(name);
    co_await eng.sleep(delay);
    t.end(span);
  };
  engine.spawn(proc(engine, tracer, "a", 2.0), "a");
  engine.spawn(proc(engine, tracer, "b", 0.5), "b");
  engine.run();

  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Both started at t=0 and measured only their own virtual delay, even
  // though the engine interleaved them on one thread.
  EXPECT_DOUBLE_EQ(spans[0].duration(), 2.0);
  EXPECT_DOUBLE_EQ(spans[1].duration(), 0.5);
}

// ---------------------------------------------------------------- context

TEST(ObsContextTest, InstallAndUninstall) {
  EXPECT_EQ(context(), nullptr);
  WallClock clock;
  ObsContext ctx(&clock);
  {
    ScopedInstall install(ctx);
    EXPECT_EQ(context(), &ctx);
  }
  EXPECT_EQ(context(), nullptr);
}

TEST(StageScope, DisabledIsNoOp) {
  StageScope scope(nullptr, "stage");
  scope.tag("k", std::uint64_t{1});
  EXPECT_DOUBLE_EQ(scope.close(), 0.0);
}

TEST(StageScope, RecordsSpanAndHistogram) {
  WallClock clock;
  ObsContext ctx(&clock);
  {
    StageScope scope(&ctx, "stage");
    scope.tag("node", std::uint64_t{1});
  }
  EXPECT_EQ(ctx.tracer.num_spans(), 1u);
  // The exposition builds the stage's histogram from its one span.
  const std::string text =
      prometheus_text(ctx.registry.snapshot(), ctx.tracer.snapshot());
  EXPECT_NE(text.find("# TYPE orv_stage_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("orv_stage_seconds_count 1\n"), std::string::npos);
}

TEST(ObsContextTest, LogEventsRoutedFromWarnAndAbove) {
  WallClock clock;
  ObsContext ctx(&clock);
  {
    ScopedInstall install(ctx);
    ORV_LOG(Warn) << "watch out";
    ORV_LOG(Error) << "it broke";
    ORV_LOG(Debug) << "not routed (below threshold)";
  }
  EXPECT_EQ(ctx.registry.counter("log.warn").value(), 1u);
  EXPECT_EQ(ctx.registry.counter("log.error").value(), 1u);
}

TEST(PlanValidationTest, ErrorRatio) {
  PlanValidation pv;
  pv.predicted = 2.0;
  pv.measured = 3.0;
  EXPECT_DOUBLE_EQ(pv.error_ratio(), 1.5);
  pv.predicted = 0;
  EXPECT_DOUBLE_EQ(pv.error_ratio(), 0.0);
}

// ------------------------------------------------------------------- JSON

TEST(Json, EscapesSpecials) {
  JsonWriter w;
  w.value("a\"b\\c\nd");
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, WriterProducesValidStructure) {
  JsonWriter w;
  w.begin_object();
  w.key("a");
  w.value(std::uint64_t{1});
  w.key("b");
  w.begin_array();
  w.value(2.5);
  w.value("x");
  w.value(true);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[2.5,\"x\",true]}");
}

// ---------------------------------------------------------------- profile

TEST(Profile, AggregatesSpansByName) {
  sim::Engine engine;
  SimClock clock(engine);
  ObsContext ctx(&clock);

  auto proc = [](sim::Engine& eng, ObsContext& c) -> sim::Task<> {
    // The root span is opened and closed on the tracer, as QueryFrame
    // opens a query's root, not through StageScope.
    const SpanId root = c.tracer.begin("query");
    for (int i = 0; i < 3; ++i) {
      StageScope s(&c, "fetch");
      co_await eng.sleep(1.0);
    }
    for (int i = 1; i <= 4; ++i) {
      StageScope s(&c, "build");
      co_await eng.sleep(static_cast<double>(i));
    }
    {
      StageScope s(&c, "probe");
      co_await eng.sleep(0.5);
    }
    c.tracer.end(root);
  };
  engine.spawn(proc(engine, ctx), "p");
  engine.run();

  const auto stages = aggregate_stages(ctx.tracer.snapshot());
  ASSERT_EQ(stages.size(), 4u);
  // Sorted by total seconds, descending.
  EXPECT_EQ(stages[0].name, "query");
  EXPECT_EQ(stages[1].name, "build");
  EXPECT_EQ(stages[2].name, "fetch");
  EXPECT_EQ(stages[3].name, "probe");
  // Quantiles are nearest-rank over the span durations, so each is one
  // of the durations exactly.
  EXPECT_EQ(stages[0].count, 1u);
  EXPECT_EQ(stages[0].seconds, 13.5);
  EXPECT_EQ(stages[0].p50, 13.5);
  EXPECT_EQ(stages[0].p99, 13.5);
  EXPECT_EQ(stages[1].count, 4u);
  EXPECT_EQ(stages[1].seconds, 10.0);
  EXPECT_EQ(stages[1].p50, 2.0);
  EXPECT_EQ(stages[1].p95, 4.0);
  EXPECT_EQ(stages[1].p99, 4.0);
  EXPECT_DOUBLE_EQ(stages[2].seconds, 3.0);
  EXPECT_EQ(stages[2].count, 3u);
  EXPECT_EQ(stages[2].p50, 1.0);
  EXPECT_EQ(stages[2].p99, 1.0);
  EXPECT_DOUBLE_EQ(stages[3].seconds, 0.5);

  const ExecutionProfile profile =
      build_profile(ctx.snapshot(), "q", "IndexedJoin", 13.5);
  const std::string json = profile.to_json();
  EXPECT_NE(json.find("\"fetch\""), std::string::npos);
  EXPECT_NE(json.find("\"probe\""), std::string::npos);
  EXPECT_NE(json.find("\"IndexedJoin\""), std::string::npos);
}

// ------------------------------------------------- cache stats publishing

TEST(CacheObs, StatsSnapshotAndRegistryMirror) {
  WallClock clock;
  ObsContext ctx(&clock);

  CachingService cache(1 << 20);
  {
    ScopedInstall install(ctx);
    cache.get(SubTableId{1, 0});  // miss
  }
  cache.get(SubTableId{1, 0});  // miss, not mirrored (no context)

  const CachingService::Stats snap = cache.stats();
  EXPECT_EQ(snap.misses, 2u);
  EXPECT_EQ(ctx.registry.counter("cache.misses").value(), 1u);
}

}  // namespace
}  // namespace orv::obs
