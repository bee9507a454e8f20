// Network message aggregator: flush policy unit tests over a bare
// cluster, fault semantics (whole-frame retransmit, exactly-once
// delivery), and integration with the Grace Hash / Indexed Join
// executors — fingerprints must be byte-identical at every flush size,
// fault-free and under chaos plans.
//
// Sweep widths honour the same env knobs as the fault suite:
//   ORV_CHAOS_N / ORV_CHAOS_SEED   aggregated chaos sweep (default 120)
//   ORV_DIFF_N  / ORV_DIFF_SEED    aggregated differential (default 50)

#include "net/aggregator.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "../chaos_util.hpp"
#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

ClusterSpec tiny_spec(std::size_t n_s = 1, std::size_t n_j = 1) {
  ClusterSpec s;
  s.num_storage = n_s;
  s.num_compute = n_j;
  return s;
}

TEST(Aggregator, SizeFlushCombinesMessagesIntoFewerFrames) {
  // Every frame fills to the threshold, however large: 100 messages make
  // one size flush, with none left over for the drain.
  struct Case {
    std::size_t flush;
    int posts;
    std::uint64_t frames;
  };
  for (const Case& c : {Case{4, 8, 2}, Case{100, 100, 1}}) {
    SCOPED_TRACE("flush_batches=" + std::to_string(c.flush));
    sim::Engine engine;
    Cluster cluster(engine, tiny_spec());
    net::AggregatorConfig cfg;
    cfg.flush_batches = c.flush;
    cfg.flush_timeout = 0;  // size/drain flushes only
    net::MessageAggregator agg(cluster, cfg);

    std::vector<int> delivered;
    auto producer = [&]() -> sim::Task<> {
      for (int i = 0; i < c.posts; ++i) {
        agg.post(0, 0, 1000.0, {}, [&delivered, i]() -> sim::Task<> {
          delivered.push_back(i);
          co_return;
        });
      }
      co_await agg.drain(0);
      // drain returns only after every constituent is delivered.
      EXPECT_EQ(delivered.size(), static_cast<std::size_t>(c.posts));
    };
    engine.spawn(producer(), "producer");
    engine.run();

    ASSERT_EQ(delivered.size(), static_cast<std::size_t>(c.posts));
    for (int i = 0; i < c.posts; ++i) EXPECT_EQ(delivered[i], i);  // FIFO
    EXPECT_EQ(agg.stats().frames_sent, c.frames);
    EXPECT_EQ(agg.stats().flush_size, c.frames);
    EXPECT_EQ(agg.stats().flush_drain, 0u);
    EXPECT_EQ(agg.stats().messages_posted,
              static_cast<std::uint64_t>(c.posts));
    EXPECT_EQ(agg.stats().messages_delivered,
              static_cast<std::uint64_t>(c.posts));
    EXPECT_DOUBLE_EQ(agg.stats().messages_per_frame(),
                     static_cast<double>(c.flush));
    // One switch operation per frame, not per logical message.
    EXPECT_EQ(cluster.network_switch().num_ops(), c.frames);
    EXPECT_DOUBLE_EQ(cluster.switch_bytes(), 1000.0 * c.posts);
  }
}

TEST(Aggregator, TimeoutFlushesAHalfFullFrame) {
  sim::Engine engine;
  Cluster cluster(engine, tiny_spec());
  net::AggregatorConfig cfg;
  cfg.flush_batches = 100;  // never reached
  cfg.flush_timeout = 2e-3;
  net::MessageAggregator agg(cluster, cfg);

  std::vector<double> delivered_at;
  auto producer = [&]() -> sim::Task<> {
    for (int i = 0; i < 3; ++i) {
      agg.post(0, 0, 500.0, {}, [&]() -> sim::Task<> {
        delivered_at.push_back(engine.now());
        co_return;
      });
    }
    co_return;
  };
  engine.spawn(producer(), "producer");
  engine.run();

  ASSERT_EQ(delivered_at.size(), 3u);
  EXPECT_EQ(agg.stats().frames_sent, 1u);
  EXPECT_EQ(agg.stats().flush_timeout, 1u);
  EXPECT_EQ(agg.stats().flush_size, 0u);
  // Nothing moved before the timer fired.
  for (double t : delivered_at) EXPECT_GE(t, 2e-3);
}

TEST(Aggregator, DrainFlushesWithoutWaitingForTheTimer) {
  sim::Engine engine;
  Cluster cluster(engine, tiny_spec());
  net::AggregatorConfig cfg;
  cfg.flush_batches = 100;
  cfg.flush_timeout = 1.0;  // a timer flush would dominate the runtime
  net::MessageAggregator agg(cluster, cfg);

  std::size_t delivered = 0;
  double drained_at = -1;
  auto producer = [&]() -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      agg.post(0, 0, 100.0, {}, [&]() -> sim::Task<> {
        ++delivered;
        co_return;
      });
    }
    co_await agg.drain(0);
    drained_at = engine.now();
    EXPECT_EQ(delivered, 5u);
  };
  engine.spawn(producer(), "producer");
  engine.run();

  EXPECT_EQ(agg.stats().flush_drain, 1u);
  EXPECT_EQ(agg.stats().frames_sent, 1u);
  ASSERT_GE(drained_at, 0.0);
  EXPECT_LT(drained_at, 1.0);  // did not wait out the armed timer
}

TEST(Aggregator, MultiProducerInterleaveIsDeterministicPerSeed) {
  // Two producers on the same storage node, two destinations, interleaved
  // posting paced in virtual time: the full delivery schedule (dst, id,
  // time) must replay bit-for-bit across runs.
  auto run_once = [] {
    std::vector<std::tuple<int, int, double>> schedule;
    sim::Engine engine;
    Cluster cluster(engine, tiny_spec(1, 2));
    net::AggregatorConfig cfg;
    cfg.flush_batches = 3;
    cfg.flush_timeout = 1e-3;
    net::MessageAggregator agg(cluster, cfg);
    auto producer = [&](int who) -> sim::Task<> {
      for (int i = 0; i < 10; ++i) {
        const int dst = (who + i) % 2;
        const int id = who * 100 + i;
        agg.post(0, static_cast<std::size_t>(dst), 2000.0, {},
                 [&schedule, dst, id, &engine]() -> sim::Task<> {
                   schedule.emplace_back(dst, id, engine.now());
                   co_return;
                 });
        co_await engine.sleep(1e-4 * (who + 1));
      }
      co_await agg.drain(0);
    };
    engine.spawn(producer(0), "p0");
    engine.spawn(producer(1), "p1");
    engine.run();
    EXPECT_EQ(schedule.size(), 20u);
    return schedule;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Aggregator, DroppedFramesAreResentWholeAndDeliveredExactlyOnce) {
  sim::Engine engine;
  Cluster cluster(engine, tiny_spec());
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.message_drop_prob = 0.5;
  plan.retransmit_timeout = 0.005;
  fault::FaultInjector inj(engine, plan);
  fault::ScopedInjector scoped(inj);

  net::AggregatorConfig cfg;
  cfg.flush_batches = 4;
  cfg.flush_timeout = 0;
  net::MessageAggregator agg(cluster, cfg);

  std::vector<int> delivery_count(32, 0);
  auto producer = [&]() -> sim::Task<> {
    for (int i = 0; i < 32; ++i) {
      agg.post(0, 0, 1000.0, {}, [&delivery_count, i]() -> sim::Task<> {
        ++delivery_count[static_cast<std::size_t>(i)];
        co_return;
      });
    }
    co_await agg.drain(0);
  };
  engine.spawn(producer(), "producer");
  engine.run();

  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(delivery_count[static_cast<std::size_t>(i)], 1)
        << "message " << i << " not delivered exactly once";
  }
  EXPECT_EQ(agg.stats().frames_sent, 8u);
  // At 50% drop over 8 frames the seeded dice drop at least one; a dropped
  // frame costs a second egress of the whole frame.
  EXPECT_GE(agg.stats().frames_retransmitted, 1u);
  EXPECT_EQ(cluster.network_switch().num_ops(),
            8u + agg.stats().frames_retransmitted);
}

// --- Executor integration -------------------------------------------------

TEST(AggregatedGraceHash, FingerprintByteIdenticalAtEveryFlushSize) {
  // Seed 115 derives a 3-storage/4-compute scenario shuffling 24 h1
  // batches — enough traffic that every flush size actually combines.
  chaos::ChaosRig rig(115);
  const QesResult base = rig.run(/*indexed_join=*/false);
  // Unaggregated: one switch frame per logical h1 batch.
  EXPECT_GT(base.h1_messages_sent, 0u);
  EXPECT_EQ(base.net_frames_sent, base.h1_messages_sent);

  for (std::size_t flush : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                            std::size_t{64}}) {
    SCOPED_TRACE("flush_batches=" + std::to_string(flush));
    net::AggregatorConfig cfg;
    cfg.flush_batches = flush;
    rig.agg = &cfg;
    const QesResult r = rig.run(/*indexed_join=*/false);
    EXPECT_EQ(r.result_tuples, base.result_tuples);
    EXPECT_EQ(r.result_fingerprint, base.result_fingerprint);
    // Routing is untouched: the same logical messages, in fewer frames.
    EXPECT_EQ(r.h1_messages_sent, base.h1_messages_sent);
    if (flush == 1) {
      EXPECT_EQ(r.net_frames_sent, r.h1_messages_sent);
    } else {
      EXPECT_LT(r.net_frames_sent, r.h1_messages_sent);
    }
  }
  rig.agg = nullptr;
}

TEST(AggregatedDifferential, AllImplementationsAgreeWithAggregationOn) {
  const std::uint64_t n = chaos::env_u64("ORV_DIFF_N", 50);
  const std::uint64_t base = chaos::env_u64("ORV_DIFF_SEED", 5000);
  net::AggregatorConfig cfg;
  cfg.flush_batches = 8;
  std::uint64_t total_tuples = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i;
    SCOPED_TRACE("aggregated differential seed=" + std::to_string(seed));
    chaos::ChaosRig rig(seed);
    const ReferenceResult nested = rig.nested_loop();
    rig.agg = &cfg;
    const QesResult ij = rig.run(/*indexed_join=*/true);
    EXPECT_EQ(nested.result_tuples, ij.result_tuples);
    EXPECT_EQ(nested.result_fingerprint, ij.result_fingerprint);
    const QesResult gh = rig.run(/*indexed_join=*/false);
    EXPECT_EQ(nested.result_tuples, gh.result_tuples);
    EXPECT_EQ(nested.result_fingerprint, gh.result_fingerprint);
    total_tuples += nested.result_tuples;
  }
  EXPECT_GT(total_tuples, 0u);
}

void aggregated_chaos_sweep(bool indexed_join, const char* algo) {
  const std::uint64_t n = chaos::env_u64("ORV_CHAOS_N", 120);
  const std::uint64_t base = chaos::env_u64("ORV_CHAOS_SEED", 1000);
  net::AggregatorConfig cfg;
  cfg.flush_batches = 4;
  std::uint64_t degraded_runs = 0;
  std::uint64_t clean_failures = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i;
    chaos::ChaosRig rig(seed);
    const fault::FaultPlan plan = fault::FaultPlan::chaos(
        seed, rig.sc.cspec.num_storage, rig.sc.cspec.num_compute);

    // Oracle: the *unaggregated* fault-free run. The faulted, aggregated
    // run must reproduce it — frame drops resend every constituent exactly
    // once, and aggregation changes timing only, never the row multiset.
    QesResult baseline;
    try {
      baseline = rig.run(indexed_join);
    } catch (const std::exception& e) {
      ADD_FAILURE() << algo << " seed=" << seed
                    << ": fault-free run threw: " << e.what();
      continue;
    }

    chaos::ChaosRig::TraceCapture cap;
    rig.capture = &cap;
    rig.agg = &cfg;
    try {
      const QesResult faulted = rig.run(indexed_join, &plan);
      EXPECT_EQ(cap.open_spans, 0u)
          << algo << " seed=" << seed << ": dangling spans left open";
      if (faulted.result_fingerprint != baseline.result_fingerprint ||
          faulted.result_tuples != baseline.result_tuples) {
        const std::string line = chaos::describe_failure(
            algo, seed, plan,
            "aggregated result mismatch: fault-free " + baseline.to_string() +
                " vs faulted " + faulted.to_string());
        chaos::record_failure(line);
        ADD_FAILURE() << line;
      }
      if (faulted.degraded) ++degraded_runs;
    } catch (const fault::FaultError&) {
      EXPECT_EQ(cap.open_spans, 0u)
          << algo << " seed=" << seed
          << ": failed query left dangling spans";
      ++clean_failures;
    } catch (const std::exception& e) {
      const std::string line = chaos::describe_failure(
          algo, seed, plan,
          std::string("unexpected exception under aggregation: ") + e.what());
      chaos::record_failure(line);
      ADD_FAILURE() << line;
    }
  }
  if (n >= 20) {
    EXPECT_GT(degraded_runs, 0u)
        << algo << ": no aggregated chaos run was degraded across " << n
        << " seeds";
  }
  std::printf("[chaos-agg] %s: %llu seeds, %llu degraded, %llu clean "
              "failures\n",
              algo, (unsigned long long)n, (unsigned long long)degraded_runs,
              (unsigned long long)clean_failures);
}

TEST(AggregatedChaos, GraceHashSweep) {
  aggregated_chaos_sweep(false, "grace_hash_aggregated");
}

TEST(AggregatedChaos, IndexedJoinSweep) {
  aggregated_chaos_sweep(true, "indexed_join_aggregated");
}

}  // namespace
}  // namespace orv
