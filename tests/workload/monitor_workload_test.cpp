// Live monitor × workload driver: monitoring must be perturbation-free
// (outcomes bit-identical on vs off), the alert stream deterministic per
// seed, SLO burn alerts must fire under sustained deadline misses, the
// chaos sweep must capture flight-recorder evidence for every injected
// fault, and fault-free sweeps must never page on node health.
//
//   ORV_CHAOS_N     sweep width (default 120)
//   ORV_CHAOS_SEED  base seed (default 7000)

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../chaos_util.hpp"
#include "common/tempdir.hpp"
#include "datagen/generator.hpp"
#include "obs/flight.hpp"
#include "workload/workload.hpp"

namespace orv {
namespace {

/// Small fixed dataset for the deterministic (non-sweep) tests.
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

  WorkloadResult run(const WorkloadSpec& spec,
                     const obs::Sinks& sinks = obs::sinks()) {
    sim::Engine engine;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    return run_workload(cluster, bds, ds.meta, spec, sinks);
  }

  /// Two-client Poisson mix with per-query deadlines.
  WorkloadSpec poisson_spec(double deadline) const {
    WorkloadSpec spec;
    WorkloadClientSpec client;
    client.name = "c0";
    client.mix.push_back({full, Algorithm::IndexedJoin, 1.0, deadline});
    client.mix.push_back({narrow, Algorithm::GraceHash, 2.0, deadline});
    client.poisson_rate = 4.0;
    client.num_queries = 8;
    spec.clients.push_back(client);
    spec.clients.push_back(client);
    spec.clients[1].name = "c1";
    spec.seed = 7;
    return spec;
  }
};

TEST(MonitorWorkload, MonitoringIsPerturbationFree) {
  Rig rig;
  WorkloadSpec off = rig.poisson_spec(/*deadline=*/5.0);
  WorkloadSpec on = off;
  on.monitor.enabled = true;

  const WorkloadResult a = rig.run(off);
  const WorkloadResult b = rig.run(on);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    // Bit-identical virtual timings AND answers: the monitor only makes
    // pure reads, so turning it on must not move a single event.
    EXPECT_DOUBLE_EQ(a.outcomes[i].arrival, b.outcomes[i].arrival);
    EXPECT_DOUBLE_EQ(a.outcomes[i].admit_time, b.outcomes[i].admit_time);
    EXPECT_DOUBLE_EQ(a.outcomes[i].finish, b.outcomes[i].finish);
    EXPECT_EQ(a.outcomes[i].fingerprint, b.outcomes[i].fingerprint);
    EXPECT_EQ(a.outcomes[i].algorithm, b.outcomes[i].algorithm);
    EXPECT_EQ(a.outcomes[i].rejected, b.outcomes[i].rejected);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  // Monitoring off produces no monitor products; on populates them.
  EXPECT_TRUE(a.alerts.empty());
  EXPECT_TRUE(a.storage_health.empty());
  ASSERT_EQ(b.storage_health.size(), rig.cspec.num_storage);
  ASSERT_EQ(b.compute_health.size(), rig.cspec.num_compute);
}

TEST(MonitorWorkload, AlertStreamIsDeterministicPerSeed) {
  Rig rig;
  // Impossible deadlines so the slo-burn rule has something to say.
  WorkloadSpec spec = rig.poisson_spec(/*deadline=*/1e-6);
  spec.monitor.enabled = true;

  const WorkloadResult a = rig.run(spec);
  const WorkloadResult b = rig.run(spec);
  ASSERT_FALSE(a.alerts.empty());
  ASSERT_EQ(a.alerts.size(), b.alerts.size());
  for (std::size_t i = 0; i < a.alerts.size(); ++i) {
    EXPECT_EQ(a.alerts[i].seq, i);  // dense deterministic order
    EXPECT_EQ(a.alerts[i].seq, b.alerts[i].seq);
    EXPECT_EQ(a.alerts[i].rule, b.alerts[i].rule);
    EXPECT_EQ(a.alerts[i].resolved, b.alerts[i].resolved);
    EXPECT_EQ(a.alerts[i].severity, b.alerts[i].severity);
    EXPECT_DOUBLE_EQ(a.alerts[i].time, b.alerts[i].time);
    EXPECT_DOUBLE_EQ(a.alerts[i].value, b.alerts[i].value);
    EXPECT_EQ(a.alerts[i].evidence, b.alerts[i].evidence);
  }
}

TEST(MonitorWorkload, SloBurnFiresUnderSustainedDeadlineMisses) {
  Rig rig;
  WorkloadSpec spec = rig.poisson_spec(/*deadline=*/1e-6);
  spec.monitor.enabled = true;
  const WorkloadResult r = rig.run(spec);
  ASSERT_EQ(r.deadlines_missed, r.submitted);

  bool slo_fired = false;
  for (const obs::Alert& a : r.alerts) {
    if (a.rule == "slo-burn" && !a.resolved) {
      slo_fired = true;
      EXPECT_EQ(a.severity, obs::Severity::Critical);
      // burn = (missed/total)/budget = (1/1)/0.05 = 20 in both windows.
      EXPECT_GE(a.value, 2.0);
    }
  }
  EXPECT_TRUE(slo_fired) << "100% deadline misses must trip slo-burn";

  // Comfortable deadlines: the same workload never trips it.
  WorkloadSpec ok = rig.poisson_spec(/*deadline=*/1e9);
  ok.monitor.enabled = true;
  const WorkloadResult clean = rig.run(ok);
  EXPECT_EQ(clean.deadlines_missed, 0u);
  for (const obs::Alert& a : clean.alerts) {
    EXPECT_NE(a.rule, "slo-burn") << a.to_string();
  }
}

TEST(MonitorWorkload, DashboardStreamsJsonLines) {
  Rig rig;
  TempDir dir("dash");
  const std::string path = dir.file("dash.jsonl").string();
  WorkloadSpec spec = rig.poisson_spec(5.0);
  obs::Sinks sinks;
  sinks.dash = path;  // turns the monitor on by itself
  const WorkloadResult r = rig.run(spec, sinks);
  ASSERT_GT(r.dash_lines, 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"t\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"offered\":"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, r.dash_lines);
}

// ---------------------------------------------------------- sweeps ----

/// Three clients over the rig's scenario query, as in the existing chaos
/// concurrency sweep, with deadlines so SLO accounting is live.
WorkloadSpec chaos_workload(const chaos::ChaosRig& rig) {
  WorkloadSpec spec;
  const std::optional<Algorithm> forces[3] = {
      Algorithm::IndexedJoin, Algorithm::GraceHash, std::nullopt};
  for (std::size_t c = 0; c < 3; ++c) {
    WorkloadClientSpec client;
    client.name = "c" + std::to_string(c);
    client.mix.push_back({rig.query, forces[c], 1.0, 30.0});
    client.trace_arrivals = {0.0, 0.5};
    spec.clients.push_back(std::move(client));
  }
  spec.monitor.enabled = true;
  return spec;
}

/// Like chaos::run_workload_under_plan, but owns the injector so the
/// sweep can read FaultStats (what actually fired) after the run.
WorkloadResult run_faulted(const chaos::ChaosRig& rig,
                           const WorkloadSpec& spec,
                           const fault::FaultPlan& plan,
                           fault::FaultStats* stats) {
  sim::Engine engine;
  Cluster cluster(engine, rig.sc.cspec);
  BdsService bds(cluster, rig.ds.meta, rig.ds.stores);
  fault::FaultInjector inj(engine, plan);
  fault::ScopedInjector scoped(inj);
  WorkloadResult r = run_workload(cluster, bds, rig.ds.meta, spec);
  *stats = inj.stats();
  return r;
}

/// Any kept dump holds a matching event on any of the candidate nodes.
bool dumps_contain(const obs::FlightRecorder& rec, obs::FlightEvent::Kind k,
                   const std::vector<std::string>& nodes,
                   const std::string& name) {
  for (const obs::FlightDump& d : rec.dumps()) {
    for (const std::string& node : nodes) {
      if (d.contains(k, node, name)) return true;
    }
  }
  return false;
}

TEST(MonitorChaos, EveryInjectedFaultLeavesDumpEvidence) {
  const std::uint64_t n = chaos::env_u64("ORV_CHAOS_N", 120);
  const std::uint64_t base = chaos::env_u64("ORV_CHAOS_SEED", 7000);
  std::uint64_t runs_with_faults = 0;

  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i;
    chaos::ChaosRig rig(seed);
    const fault::FaultPlan plan = fault::FaultPlan::chaos(
        seed, rig.sc.cspec.num_storage, rig.sc.cspec.num_compute);

    obs::FlightRecorder::Config fc;
    fc.max_dumps = 256;  // headroom: the sweep must never lose evidence
    obs::FlightRecorder rec(fc);
    WorkloadSpec spec = chaos_workload(rig);
    spec.monitor.flight = &rec;

    fault::FaultStats stats;
    WorkloadResult r;
    try {
      r = run_faulted(rig, spec, plan, &stats);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ": workload threw: " << e.what();
      continue;
    }
    ASSERT_EQ(r.outcomes.size(), r.submitted);
    if (stats.total() == 0) continue;  // plan never fired this run
    ++runs_with_faults;

    // At least one dump (the end-of-run dump backstops quiet recoveries).
    ASSERT_GE(rec.dumps().size(), 1u) << "seed " << seed;

    std::vector<std::string> storage_nodes, compute_nodes, all_nodes;
    for (std::size_t s = 0; s < rig.sc.cspec.num_storage; ++s) {
      storage_nodes.push_back("storage" + std::to_string(s));
    }
    for (std::size_t c = 0; c < rig.sc.cspec.num_compute; ++c) {
      compute_nodes.push_back("compute" + std::to_string(c));
    }
    all_nodes = storage_nodes;
    all_nodes.insert(all_nodes.end(), compute_nodes.begin(),
                     compute_nodes.end());

    using Kind = obs::FlightEvent::Kind;
    if (stats.io_errors_injected > 0) {
      EXPECT_TRUE(dumps_contain(rec, Kind::Fault, storage_nodes, "io_error"))
          << "seed " << seed << ": no io_error evidence in any dump";
    }
    if (stats.messages_dropped > 0) {
      EXPECT_TRUE(dumps_contain(rec, Kind::Fault, {"net"}, "message_drop"))
          << "seed " << seed << ": no message_drop evidence in any dump";
    }
    if (stats.messages_delayed > 0) {
      EXPECT_TRUE(dumps_contain(rec, Kind::Fault, {"net"}, "message_delay"))
          << "seed " << seed << ": no message_delay evidence in any dump";
    }
    if (stats.node_crashes_observed > 0) {
      EXPECT_TRUE(dumps_contain(rec, Kind::Fault, all_nodes, "crash"))
          << "seed " << seed << ": no crash evidence in any dump";
    }
  }

  if (n >= 20) {
    EXPECT_GT(runs_with_faults, 0u)
        << "chaos sweep never injected a fault across " << n << " seeds";
  }
  std::printf("[monitor-chaos] %llu seeds, %llu runs with injected faults\n",
              (unsigned long long)n, (unsigned long long)runs_with_faults);
}

TEST(MonitorChaos, FaultFreeSweepNeverPagesNodeHealth) {
  const std::uint64_t n = chaos::env_u64("ORV_CHAOS_N", 120);
  const std::uint64_t base = chaos::env_u64("ORV_CHAOS_SEED", 7000);

  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i;
    chaos::ChaosRig rig(seed);
    const WorkloadSpec spec = chaos_workload(rig);
    const WorkloadResult r =
        chaos::run_workload_under_plan(rig, spec, nullptr);

    // Zero false positives: without injected faults, no node-health page
    // and every final health score stays above the alert threshold —
    // however skewed or saturated the run was.
    for (const obs::Alert& a : r.alerts) {
      EXPECT_NE(a.rule, "node-health")
          << "seed " << seed << " false positive: " << a.to_string();
    }
    for (double h : r.storage_health) {
      EXPECT_GT(h, 0.5) << "seed " << seed;
    }
    for (double h : r.compute_health) {
      EXPECT_GT(h, 0.5) << "seed " << seed;
    }
  }
}

TEST(MonitorChaos, HealthAwareAdmissionDeratesWithoutWedging) {
  const std::uint64_t seed = chaos::env_u64("ORV_CHAOS_SEED", 7013);
  chaos::ChaosRig rig(seed);
  const fault::FaultPlan plan = fault::FaultPlan::chaos(
      seed, rig.sc.cspec.num_storage, rig.sc.cspec.num_compute);
  WorkloadSpec spec = chaos_workload(rig);
  spec.monitor.enabled = false;  // forced back on by health_aware_admission
  spec.health_aware_admission = true;
  spec.admission.max_running = 2;

  obs::FlightRecorder rec;
  spec.monitor.flight = &rec;
  fault::FaultStats stats;
  const WorkloadResult r = run_faulted(rig, spec, plan, &stats);
  // Derating can slow admission but never wedge it: the floor of one
  // effective slot guarantees the queue drains and every query resolves.
  EXPECT_EQ(r.submitted, 6u);
  EXPECT_EQ(r.completed + r.failed, 6u) << "queue did not drain";
  EXPECT_EQ(r.rejected, 0u);  // unbounded queue: nobody bounced
  // health_aware_admission forces the rig on even with enabled=false.
  EXPECT_EQ(r.storage_health.size(), rig.sc.cspec.num_storage);
  EXPECT_EQ(r.compute_health.size(), rig.sc.cspec.num_compute);
}

}  // namespace
}  // namespace orv
