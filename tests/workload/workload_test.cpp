// Concurrent workload driver: open-loop arrivals, admission, SLO
// accounting — and the acceptance-critical single-query equivalence: a
// one-query "stream" must reproduce today's direct QES run exactly
// (fingerprint AND virtual elapsed time).

#include <gtest/gtest.h>

#include <memory>

#include "datagen/generator.hpp"
#include "obs/obs.hpp"
#include "obs/sim_clock.hpp"
#include "qes/qes.hpp"
#include "sim/engine.hpp"
#include "workload/workload.hpp"

namespace orv {
namespace {

struct Rig {
  GeneratedDataset ds;
  ClusterSpec cspec;
  JoinQuery full{1, 2, {"x", "y", "z"}, {}};
  JoinQuery narrow{1, 2, {"x", "y", "z"}, {{"x", {0, 3}}}};

  Rig() {
    DatasetSpec spec;
    spec.grid = {8, 8, 8};
    spec.part1 = {4, 4, 4};
    spec.part2 = {2, 2, 2};
    spec.num_storage_nodes = 2;
    ds = generate_dataset(spec);
    cspec.num_storage = 2;
    cspec.num_compute = 3;
  }

  WorkloadResult run(const WorkloadSpec& spec) {
    sim::Engine engine;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    return run_workload(cluster, bds, ds.meta, spec);
  }

  QesResult direct(const JoinQuery& q, bool indexed_join) {
    sim::Engine engine;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    if (indexed_join) {
      const auto graph = ConnectivityGraph::build(ds.meta, q.left_table,
                                                  q.right_table, q.join_attrs,
                                                  q.ranges);
      return run_indexed_join(cluster, bds, ds.meta, graph, q);
    }
    return run_grace_hash(cluster, bds, ds.meta, q);
  }

  /// One client, explicit arrivals, one forced-algorithm query spec.
  WorkloadSpec stream_of(const JoinQuery& q, Algorithm algo,
                         std::vector<double> arrivals) {
    WorkloadSpec spec;
    WorkloadClientSpec client;
    client.name = "c0";
    client.mix.push_back({q, algo, 1.0, 0.0});
    client.trace_arrivals = std::move(arrivals);
    spec.clients.push_back(std::move(client));
    spec.session.share_cache = false;  // single-query parity: private caches
    return spec;
  }
};

TEST(Workload, OneQueryStreamMatchesDirectIndexedJoin) {
  Rig rig;
  const QesResult direct = rig.direct(rig.full, true);
  const WorkloadResult wl =
      rig.run(rig.stream_of(rig.full, Algorithm::IndexedJoin, {0.0}));
  ASSERT_EQ(wl.completed, 1u);
  const QueryOutcome& out = wl.outcomes[0];
  EXPECT_EQ(out.fingerprint, direct.result_fingerprint);
  EXPECT_EQ(out.result_tuples, direct.result_tuples);
  // Same virtual timings, not just the same answer: the task-spawned
  // execution replays the direct run's event schedule exactly.
  EXPECT_DOUBLE_EQ(out.service(), direct.elapsed);
  EXPECT_DOUBLE_EQ(out.latency(), direct.elapsed);  // no queue wait
  EXPECT_DOUBLE_EQ(out.queue_wait(), 0.0);
}

TEST(Workload, OneQueryStreamMatchesDirectGraceHash) {
  Rig rig;
  const QesResult direct = rig.direct(rig.full, false);
  const WorkloadResult wl =
      rig.run(rig.stream_of(rig.full, Algorithm::GraceHash, {0.0}));
  ASSERT_EQ(wl.completed, 1u);
  EXPECT_EQ(wl.outcomes[0].fingerprint, direct.result_fingerprint);
  EXPECT_DOUBLE_EQ(wl.outcomes[0].service(), direct.elapsed);
}

TEST(Workload, PoissonWorkloadReplaysBitIdentically) {
  Rig rig;
  WorkloadSpec spec;
  WorkloadClientSpec client;
  client.name = "c0";
  client.mix.push_back({rig.full, Algorithm::IndexedJoin, 1.0, 0.0});
  client.mix.push_back({rig.narrow, Algorithm::GraceHash, 2.0, 0.0});
  client.poisson_rate = 4.0;
  client.num_queries = 12;
  spec.clients.push_back(client);
  spec.clients.push_back(client);  // second identical client, own stream
  spec.clients[1].name = "c1";
  spec.seed = 42;

  const WorkloadResult a = rig.run(spec);
  const WorkloadResult b = rig.run(spec);
  ASSERT_EQ(a.outcomes.size(), 24u);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.outcomes[i].arrival, b.outcomes[i].arrival);
    EXPECT_DOUBLE_EQ(a.outcomes[i].finish, b.outcomes[i].finish);
    EXPECT_EQ(a.outcomes[i].fingerprint, b.outcomes[i].fingerprint);
    EXPECT_EQ(a.outcomes[i].algorithm, b.outcomes[i].algorithm);
  }
  EXPECT_DOUBLE_EQ(a.p99_latency, b.p99_latency);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);

  // A different seed shifts the arrival process.
  WorkloadSpec reseeded = spec;
  reseeded.seed = 43;
  const WorkloadResult c = rig.run(reseeded);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.outcomes[i].arrival != c.outcomes[i].arrival) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Workload, ConcurrentArrivalsQueueUnderAdmission) {
  Rig rig;
  WorkloadSpec spec = rig.stream_of(rig.full, Algorithm::IndexedJoin,
                                    {0.0, 0.0, 0.0, 0.0});
  spec.admission.max_running = 1;
  const WorkloadResult serial_ish = rig.run(spec);
  ASSERT_EQ(serial_ish.completed, 4u);
  // With one slot, three queries waited a full service time or more.
  EXPECT_GT(serial_ish.p99_queue_wait, 0.0);
  EXPECT_GT(serial_ish.mean_queue_wait, 0.0);

  spec.admission.max_running = 0;  // unlimited
  const WorkloadResult open = rig.run(spec);
  ASSERT_EQ(open.completed, 4u);
  EXPECT_DOUBLE_EQ(open.p99_queue_wait, 0.0);
  // Sharing the cluster four ways stretches each query beyond its solo
  // time, but answers stay identical.
  for (const auto& out : open.outcomes) {
    EXPECT_EQ(out.fingerprint, serial_ish.outcomes[0].fingerprint);
  }
}

TEST(Workload, RejectionBackpressureWhenQueueBounded) {
  Rig rig;
  // All six arrive together: admission processes them in submission
  // order, so with one slot + two queue entries the last three bounce.
  WorkloadSpec spec = rig.stream_of(rig.full, Algorithm::IndexedJoin,
                                    {0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  spec.admission.max_running = 1;
  spec.admission.max_queued = 2;
  const WorkloadResult wl = rig.run(spec);
  EXPECT_EQ(wl.submitted, 6u);
  EXPECT_EQ(wl.completed, 3u);
  EXPECT_EQ(wl.rejected, 3u);
  for (const auto& out : wl.outcomes) {
    if (out.rejected) {
      EXPECT_FALSE(out.deadline_met);
      EXPECT_EQ(out.fingerprint, 0u);
    }
  }
}

TEST(Workload, DeadlineAccounting) {
  Rig rig;
  const double solo = rig.direct(rig.full, true).elapsed;
  WorkloadSpec spec;
  WorkloadClientSpec client;
  client.name = "c0";
  // Generous deadline met; impossible deadline missed.
  client.mix.push_back({rig.full, Algorithm::IndexedJoin, 1.0, solo * 10});
  client.trace_arrivals = {0.0};
  spec.clients.push_back(client);
  spec.clients.push_back(client);
  spec.clients[1].mix[0].deadline = solo / 100;
  spec.clients[1].name = "c1";
  spec.session.share_cache = false;
  const WorkloadResult wl = rig.run(spec);
  ASSERT_EQ(wl.completed, 2u);
  EXPECT_EQ(wl.deadlines_missed, 1u);
  std::size_t met = 0;
  for (const auto& out : wl.outcomes) met += out.deadline_met ? 1 : 0;
  EXPECT_EQ(met, 1u);
}

TEST(Workload, PlansEachAdmittedQueryOnce) {
  Rig rig;
  obs::SimClock clock;  // no engine bound: wall-free manual clock at 0
  obs::ObsContext ctx(&clock);
  obs::ScopedInstall install(ctx);
  // One slot and two queue entries: three of the six arrivals bounce.
  WorkloadSpec spec = rig.stream_of(rig.full, Algorithm::IndexedJoin,
                                    {0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  spec.admission.max_running = 1;
  spec.admission.max_queued = 2;
  const WorkloadResult wl = rig.run(spec);
  ASSERT_EQ(wl.completed, 3u);
  ASSERT_EQ(wl.rejected, 3u);
  std::size_t plans = 0;
  for (const obs::SpanRecord& span : ctx.tracer.snapshot()) {
    if (span.name == "qps.plan") ++plans;
  }
  EXPECT_EQ(plans, wl.completed);
  for (const QueryOutcome& out : wl.outcomes) {
    if (out.rejected) {
      EXPECT_EQ(out.predicted, 0.0);
    }
  }
}

}  // namespace
}  // namespace orv
