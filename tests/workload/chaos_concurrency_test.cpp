// Chaos × concurrency: seed-derived fault plans (node crashes, I/O
// errors, message drops/delays) land while a whole concurrent workload is
// in flight. Recovery is per-query, so the sweep asserts that every
// submitted query still resolves — either completing with the fault-free
// fingerprint (possibly flagged degraded) or reporting a clean failure in
// its outcome record — and that the run's combined trace leaves zero
// spans open across all concurrent query DAGs.
//
//   ORV_CHAOS_N     sweep width (default 120)
//   ORV_CHAOS_SEED  base seed (default 5000)
//
// Reproduce one seed: run ./tests/test_workload with
// --gtest_filter='ChaosConcurrency.*' and the environment
// ORV_CHAOS_SEED=<seed> ORV_CHAOS_N=1.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../chaos_util.hpp"
#include "obs/trace.hpp"
#include "workload/workload.hpp"

namespace orv {
namespace {

/// Three clients over the rig's scenario query: one forced down each
/// algorithm, one left to the planner; near-simultaneous arrivals so the
/// fault window overlaps several in-flight queries.
WorkloadSpec chaos_workload(const chaos::ChaosRig& rig) {
  WorkloadSpec spec;
  const std::optional<Algorithm> forces[3] = {
      Algorithm::IndexedJoin, Algorithm::GraceHash, std::nullopt};
  for (std::size_t c = 0; c < 3; ++c) {
    WorkloadClientSpec client;
    client.name = "c" + std::to_string(c);
    client.mix.push_back({rig.query, forces[c], 1.0, 0.0});
    client.trace_arrivals = {0.0, 0.5};
    spec.clients.push_back(std::move(client));
  }
  return spec;
}

TEST(ChaosConcurrency, WorkloadSurvivesFaultSweep) {
  const std::uint64_t n = chaos::env_u64("ORV_CHAOS_N", 120);
  const std::uint64_t base = chaos::env_u64("ORV_CHAOS_SEED", 5000);
  std::uint64_t degraded_runs = 0;
  std::uint64_t clean_failures = 0;

  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i;
    chaos::ChaosRig rig(seed);
    const fault::FaultPlan plan = fault::FaultPlan::chaos(
        seed, rig.sc.cspec.num_storage, rig.sc.cspec.num_compute);
    const WorkloadSpec spec = chaos_workload(rig);

    // Fault-free oracle: per-query fingerprints (concurrency itself never
    // changes answers — pinned by the differential suite).
    WorkloadResult oracle;
    try {
      oracle = chaos::run_workload_under_plan(rig, spec, nullptr);
    } catch (const std::exception& e) {
      const std::string line = chaos::describe_failure(
          "workload", seed, plan,
          std::string("fault-free workload threw: ") + e.what());
      chaos::record_failure(line);
      ADD_FAILURE() << line;
      continue;
    }
    if (oracle.completed != oracle.submitted) {
      ADD_FAILURE() << "seed " << seed << ": fault-free workload completed "
                    << oracle.completed << "/" << oracle.submitted;
      continue;
    }

    chaos::ChaosRig::TraceCapture cap;
    WorkloadResult faulted;
    try {
      faulted = chaos::run_workload_under_plan(rig, spec, &plan, &cap);
    } catch (const std::exception& e) {
      const std::string line = chaos::describe_failure(
          "workload", seed, plan,
          std::string("faulted workload threw out of the engine: ") +
              e.what());
      chaos::record_failure(line);
      ADD_FAILURE() << line;
      continue;
    }

    // The engine drained: every submitted query resolved into an outcome.
    ASSERT_EQ(faulted.outcomes.size(), oracle.outcomes.size());
    bool any_failed = false;
    for (std::size_t q = 0; q < faulted.outcomes.size(); ++q) {
      const QueryOutcome& out = faulted.outcomes[q];
      if (out.failed) {
        // Degraded accounting: a clean, attributed failure (retry budget
        // genuinely exhausted under the plan), never a silent wrong answer.
        EXPECT_FALSE(out.error.empty())
            << "seed " << seed << " query " << q << " failed without a cause";
        EXPECT_FALSE(out.deadline_met);
        any_failed = true;
        continue;
      }
      if (out.fingerprint != oracle.outcomes[q].fingerprint ||
          out.result_tuples != oracle.outcomes[q].result_tuples) {
        const std::string line = chaos::describe_failure(
            "workload", seed, plan,
            "query " + std::to_string(q) + " result mismatch under faults");
        chaos::record_failure(line);
        ADD_FAILURE() << line;
      }
    }
    if (any_failed) ++clean_failures;
    if (faulted.degraded > 0) ++degraded_runs;

    // Zero dangling spans across every concurrent query DAG, and the
    // combined trace still assembles with resolvable parent/link edges.
    EXPECT_EQ(cap.open_spans, 0u)
        << "seed " << seed << ": dangling spans left open";
    const auto dag = obs::TraceDag::assemble(cap.spans);
    EXPECT_EQ(dag.open_count(), 0u) << "seed " << seed;
    for (const auto& s : dag.spans()) {
      if (s.parent) {
        EXPECT_NE(dag.find(s.parent), nullptr)
            << "seed " << seed << ": span " << s.name
            << " has an unresolvable parent";
      }
      if (s.link) {
        EXPECT_NE(dag.find(s.link), nullptr)
            << "seed " << seed << ": span " << s.name
            << " has an unresolvable link";
      }
    }
  }

  // The sweep must exercise recovery paths, not coast on no-op plans.
  if (n >= 20) {
    EXPECT_GT(degraded_runs + clean_failures, 0u)
        << "no chaos-concurrency run was degraded across " << n << " seeds";
  }
  std::printf(
      "[chaos-concurrency] %llu seeds, %llu runs degraded, %llu runs with "
      "clean per-query failures\n",
      (unsigned long long)n, (unsigned long long)degraded_runs,
      (unsigned long long)clean_failures);
}

TEST(ChaosConcurrency, AdmissionStillBoundsQueueUnderFaults) {
  // Faults stretch service times; admission must keep functioning (slots
  // released even by failed queries) so the queue always drains.
  const std::uint64_t seed = chaos::env_u64("ORV_CHAOS_SEED", 5005);
  chaos::ChaosRig rig(seed);
  const fault::FaultPlan plan = fault::FaultPlan::chaos(
      seed, rig.sc.cspec.num_storage, rig.sc.cspec.num_compute);
  WorkloadSpec spec = chaos_workload(rig);
  spec.admission.max_running = 2;
  const WorkloadResult wl =
      chaos::run_workload_under_plan(rig, spec, &plan);
  EXPECT_EQ(wl.submitted, 6u);
  EXPECT_EQ(wl.completed + wl.failed, 6u) << "queue did not drain";
  EXPECT_EQ(wl.rejected, 0u);  // unbounded queue: nobody bounced
}

}  // namespace
}  // namespace orv
