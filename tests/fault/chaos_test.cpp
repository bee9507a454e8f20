// Chaos sweeps: N seed-derived scenarios per algorithm, each executed
// fault-free to establish the oracle and then under a seed-derived random
// FaultPlan. Plans are survivable by construction, so every faulted run
// must reproduce the fault-free fingerprint exactly; a plan that proves
// unrecoverable anyway (FaultError) is also accepted as a clean outcome,
// anything else — wrong rows, hang (caught by the engine's deadlock
// detector), stray exception — fails the sweep and prints the seed for
// one-command reproduction.
//
//   ORV_CHAOS_N     sweep width per algorithm (default 120 → 240 total)
//   ORV_CHAOS_SEED  base seed (default 1000)

#include <gtest/gtest.h>

#include <functional>

#include "../chaos_util.hpp"
#include "obs/diag.hpp"
#include "obs/trace.hpp"
#include "qes/analysis.hpp"

namespace orv {
namespace {

/// Structural invariants of one faulted run's trace: every span closed
/// (crashed nodes orphan-tag theirs, nobody leaks), and the snapshot
/// assembles into a DAG whose every parent/link edge resolves — retries
/// and retransmits produce duplicate-looking child spans, never broken
/// references.
void check_trace(const char* algo, std::uint64_t seed,
                 const chaos::ChaosRig::TraceCapture& cap) {
  EXPECT_EQ(cap.open_spans, 0u)
      << algo << " seed=" << seed << ": dangling spans left open";
  const auto dag = obs::TraceDag::assemble(cap.spans);
  EXPECT_EQ(dag.open_count(), 0u);
  for (const auto& s : dag.spans()) {
    if (s.parent) {
      EXPECT_NE(dag.find(s.parent), nullptr)
          << algo << " seed=" << seed << ": span " << s.name
          << " has an unresolvable parent";
    }
    if (s.link) {
      EXPECT_NE(dag.find(s.link), nullptr)
          << algo << " seed=" << seed << ": span " << s.name
          << " has an unresolvable link";
    }
  }
}

void chaos_sweep(bool indexed_join, const char* algo,
                 const QesOptions& options = {},
                 const std::function<void(chaos::Scenario&)>& mutate = {}) {
  const std::uint64_t n = chaos::env_u64("ORV_CHAOS_N", 120);
  const std::uint64_t base = chaos::env_u64("ORV_CHAOS_SEED", 1000);
  std::uint64_t degraded_runs = 0;
  std::uint64_t clean_failures = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i;
    chaos::Scenario scenario = chaos::make_scenario(seed);
    if (mutate) mutate(scenario);
    chaos::ChaosRig rig(scenario);
    const fault::FaultPlan plan = fault::FaultPlan::chaos(
        seed, rig.sc.cspec.num_storage, rig.sc.cspec.num_compute);

    QesResult baseline;
    try {
      // Oracle is the *serial* fault-free run: faulted pipelined results
      // must match it byte-for-byte, proving the prefetcher/double-buffer
      // changes scheduling only, never the row multiset.
      baseline = rig.run(indexed_join);
    } catch (const std::exception& e) {
      const std::string line = chaos::describe_failure(
          algo, seed, plan, std::string("fault-free run threw: ") + e.what());
      chaos::record_failure(line);
      ADD_FAILURE() << line;
      continue;
    }

    chaos::ChaosRig::TraceCapture cap;
    rig.capture = &cap;  // faulted run is traced: no dangling spans allowed
    try {
      const QesResult faulted = rig.run(indexed_join, &plan, options);
      check_trace(algo, seed, cap);
      if (faulted.result_fingerprint != baseline.result_fingerprint ||
          faulted.result_tuples != baseline.result_tuples) {
        const std::string line = chaos::describe_failure(
            algo, seed, plan,
            "result mismatch: fault-free " + baseline.to_string() +
                " vs faulted " + faulted.to_string());
        chaos::record_failure(line);
        ADD_FAILURE() << line;
        continue;
      }
      if (faulted.degraded) {
        ++degraded_runs;
        // Every degraded run must diagnose its own cause: recovery leaves
        // exact counter evidence, so the engine names retry amplification
        // or node loss (never a silent degradation).
        const obs::Diagnosis diag = obs::diagnose(diagnosis_input(
            "chaos",
            indexed_join ? Algorithm::IndexedJoin : Algorithm::GraceHash,
            faulted));
        EXPECT_TRUE(diag.has("retry amplification") || diag.has("node loss"))
            << algo << " seed=" << seed
            << ": degraded run without a fault finding: " << diag.to_json();
      }
    } catch (const fault::FaultError&) {
      // Clean, reported inability to complete — acceptable (e.g. the retry
      // budget genuinely exhausted under a hostile io-error rate). Even a
      // failed query must close every span on the way down.
      check_trace(algo, seed, cap);
      ++clean_failures;
    } catch (const std::exception& e) {
      const std::string line = chaos::describe_failure(
          algo, seed, plan, std::string("unexpected exception: ") + e.what());
      chaos::record_failure(line);
      ADD_FAILURE() << line;
    }
  }
  // The sweep must actually exercise recovery, not coast on no-op plans.
  if (n >= 20) {
    EXPECT_GT(degraded_runs, 0u)
        << algo << ": no chaos run was degraded across " << n << " seeds";
  }
  std::printf("[chaos] %s: %llu seeds, %llu degraded, %llu clean failures\n",
              algo, (unsigned long long)n, (unsigned long long)degraded_runs,
              (unsigned long long)clean_failures);
}

TEST(Chaos, IndexedJoinSweep) { chaos_sweep(true, "indexed_join"); }

TEST(Chaos, GraceHashSweep) { chaos_sweep(false, "grace_hash"); }

TEST(Chaos, PipelinedIndexedJoinSweep) {
  QesOptions options;
  options.prefetch_lookahead = 4;
  chaos_sweep(true, "indexed_join_pipelined", options);
}

TEST(Chaos, PipelinedGraceHashSweep) {
  QesOptions options;
  options.gh_double_buffer = true;
  chaos_sweep(false, "grace_hash_pipelined", options);
}

TEST(Chaos, FaultFreeDiagnosisIsBitIdenticalPerSeed) {
  // Determinism contract: the diagnosis is a pure function of the run, and
  // fault-free runs are replayable bit-for-bit, so diagnosing the same
  // seed twice — critical path included — yields byte-identical JSON.
  const std::uint64_t base = chaos::env_u64("ORV_CHAOS_SEED", 1000);
  for (std::uint64_t i = 0; i < 6; ++i) {
    const std::uint64_t seed = base + i;
    const bool indexed_join = i % 2 == 0;
    std::string first;
    for (int run = 0; run < 2; ++run) {
      chaos::ChaosRig rig(seed);
      chaos::ChaosRig::TraceCapture cap;
      rig.capture = &cap;
      const QesResult r = rig.run(indexed_join);
      // No model is priced here: only the diagnosis input is compared.
      const QueryAnalysis analysis = analyze_query(
          cap.spans,
          indexed_join ? Algorithm::IndexedJoin : Algorithm::GraceHash, r,
          CostBreakdown{}, "chaos");
      const std::string js = obs::diagnose(analysis.diag).to_json();
      EXPECT_FALSE(r.degraded) << "seed=" << seed;
      if (run == 0) {
        first = js;
      } else {
        EXPECT_EQ(js, first) << "seed=" << seed
                             << ": fault-free diagnosis not deterministic";
      }
    }
  }
}

TEST(Chaos, GraphPartitionedPlacementSweep) {
  // Same fault battery over graph-partitioned placement on a colocated
  // cluster with placement-affinity scheduling: recovery paths must hold
  // when components are node-local and fetches ride the local bus.
  QesOptions options;
  options.assign = ComponentAssign::PlacementAffinity;
  chaos_sweep(true, "indexed_join_graph_partitioned", options,
              [](chaos::Scenario& s) {
                s.spec.placement = Placement::GraphPartitioned;
                s.cspec.colocated = true;
              });
}

}  // namespace
}  // namespace orv
