// Fault-free differential oracle: across ~50 seed-derived configurations,
// the two distributed algorithms and two independent in-memory references
// (hash join, nested loop) must all agree on tuple count and
// order-independent fingerprint. The nested loop shares no hashing with
// the QES implementations, so a common-mode hash bug cannot hide here.
//
//   ORV_DIFF_N     configurations (default 50)
//   ORV_DIFF_SEED  base seed (default 5000)

#include <gtest/gtest.h>

#include "../chaos_util.hpp"

namespace orv {
namespace {

TEST(Differential, AllJoinImplementationsAgree) {
  const std::uint64_t n = chaos::env_u64("ORV_DIFF_N", 50);
  const std::uint64_t base = chaos::env_u64("ORV_DIFF_SEED", 5000);
  std::uint64_t total_tuples = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i;
    SCOPED_TRACE("differential seed=" + std::to_string(seed));
    chaos::ChaosRig rig(seed);

    const ReferenceResult nested = rig.nested_loop();
    const ReferenceResult hashed = rig.hash_reference();
    EXPECT_EQ(nested.result_tuples, hashed.result_tuples);
    EXPECT_EQ(nested.result_fingerprint, hashed.result_fingerprint);

    const QesResult ij = rig.run(/*indexed_join=*/true);
    EXPECT_EQ(nested.result_tuples, ij.result_tuples);
    EXPECT_EQ(nested.result_fingerprint, ij.result_fingerprint);
    EXPECT_FALSE(ij.degraded);

    const QesResult gh = rig.run(/*indexed_join=*/false);
    EXPECT_EQ(nested.result_tuples, gh.result_tuples);
    EXPECT_EQ(nested.result_fingerprint, gh.result_fingerprint);
    EXPECT_FALSE(gh.degraded);

    total_tuples += nested.result_tuples;
  }
  // The configurations must not be degenerate across the sweep.
  EXPECT_GT(total_tuples, 0u);
}

TEST(Differential, PipelinedMatchesSerialByteForByte) {
  // Overlapped fetch/compute reorders resource usage in virtual time but
  // must never change the row multiset: both pipelined algorithms agree
  // with their serial runs (and hence with both references) on every
  // seed-derived configuration.
  const std::uint64_t n = chaos::env_u64("ORV_DIFF_N", 50);
  const std::uint64_t base = chaos::env_u64("ORV_DIFF_SEED", 5000);
  QesOptions pipelined;
  pipelined.prefetch_lookahead = 4;
  pipelined.gh_double_buffer = true;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i;
    SCOPED_TRACE("pipelined differential seed=" + std::to_string(seed));
    chaos::ChaosRig rig(seed);

    // Byte-identity is the contract here; timing is asserted on the
    // Transfer ≈ Cpu configs in qes/pipeline_test.cpp (arbitrary random
    // scenarios can be transfer-bound, where overlap has nothing to hide).
    const QesResult ij = rig.run(true);
    const QesResult ij_pipe = rig.run(true, nullptr, pipelined);
    EXPECT_EQ(ij_pipe.result_tuples, ij.result_tuples);
    EXPECT_EQ(ij_pipe.result_fingerprint, ij.result_fingerprint);
    EXPECT_EQ(ij_pipe.prefetch_wasted, 0u);

    const QesResult gh = rig.run(false);
    const QesResult gh_pipe = rig.run(false, nullptr, pipelined);
    EXPECT_EQ(gh_pipe.result_tuples, gh.result_tuples);
    EXPECT_EQ(gh_pipe.result_fingerprint, gh.result_fingerprint);
  }
}

TEST(Differential, PlacementPoliciesAgreeByteForByte) {
  // Where chunks live must never change what the join returns: for every
  // placement policy — including graph-partitioned with placement-affinity
  // scheduling on a colocated cluster — both algorithms reproduce the
  // nested-loop oracle's tuple count and fingerprint exactly.
  const std::uint64_t base = chaos::env_u64("ORV_DIFF_SEED", 5000);
  constexpr Placement kPlacements[] = {
      Placement::BlockCyclic, Placement::Blocked, Placement::Random,
      Placement::GraphPartitioned};
  for (std::uint64_t i = 0; i < 6; ++i) {
    const std::uint64_t seed = base + 200 + i;
    const chaos::Scenario proto = chaos::make_scenario(seed);
    std::optional<ReferenceResult> oracle;
    for (Placement p : kPlacements) {
      for (bool colocated : {false, true}) {
        SCOPED_TRACE("placement differential seed=" + std::to_string(seed) +
                     " placement=" + placement_name(p) +
                     (colocated ? " colocated" : ""));
        chaos::Scenario sc = proto;
        sc.spec.placement = p;
        sc.cspec.colocated = colocated;
        chaos::ChaosRig rig(sc);
        if (!oracle) oracle = rig.nested_loop();

        QesOptions options;
        if (colocated) options.assign = ComponentAssign::PlacementAffinity;
        const QesResult ij = rig.run(/*indexed_join=*/true, nullptr, options);
        EXPECT_EQ(oracle->result_tuples, ij.result_tuples);
        EXPECT_EQ(oracle->result_fingerprint, ij.result_fingerprint);

        const QesResult gh = rig.run(/*indexed_join=*/false, nullptr, options);
        EXPECT_EQ(oracle->result_tuples, gh.result_tuples);
        EXPECT_EQ(oracle->result_fingerprint, gh.result_fingerprint);
        EXPECT_EQ(gh.result_tuples, gh.join_stats.result_tuples);
      }
    }
  }
}

}  // namespace
}  // namespace orv
