// Figure 6: execution time vs the total number of tuples T.
//
// Paper setup: grid size swept (the paper reaches 2 billion tuples on its
// testbed; the simulation executes the real joins, so the swept range is
// smaller and the cost models extrapolate the paper-scale points).
// Expected shape: both algorithms scale linearly in T and the absolute
// IJ-GH difference grows linearly too.

#include "bench_util.hpp"

int main() {
  using namespace orv;
  using namespace orv::bench;
  print_banner("Figure 6", "varying the number of tuples");

  std::printf("-- simulated (real joins executed) --\n");
  std::printf("%12s | %8s %8s %8s | %8s %8s\n", "T", "IJ sim", "GH sim",
              "gap", "IJ model", "GH model");
  Scenario base;
  base.data.part1 = {16, 8, 8};   // cross partitions: n_e*c_S = 2T
  base.data.part2 = {8, 16, 8};
  base.cluster.num_storage = 5;
  base.cluster.num_compute = 5;
  for (std::uint64_t g : {32, 48, 64, 96, 128}) {
    Scenario sc = base;
    sc.data.grid = {g, g, g};
    const auto r = run_scenario(sc);
    std::printf("%12llu | %8.3f %8.3f %8.3f | %8.3f %8.3f\n",
                (unsigned long long)r.stats.T, r.sim_ij.elapsed,
                r.sim_gh.elapsed, r.sim_gh.elapsed - r.sim_ij.elapsed,
                r.plan.ij.total(), r.plan.gh.total());
  }

  std::printf("\n-- cost-model extrapolation to the paper's scale --\n");
  std::printf("%12s | %10s %10s %10s\n", "T", "IJ model", "GH model", "gap");
  for (std::uint64_t g : {256, 512, 1024, 1290}) {
    DatasetSpec spec;
    spec.grid = {g, g, g};  // 1290^3 ~ 2.1e9 tuples (paper's maximum)
    spec.part1 = {16, 8, 8};
    spec.part2 = {8, 16, 8};
    // Closed-form stats only; no data generated at this scale.
    DatasetSpec rounded = spec;
    rounded.grid = {g - g % 16, g - g % 16, g - g % 16};
    const auto stats = analyze(rounded);
    ClusterSpec cluster;
    cluster.num_storage = 5;
    cluster.num_compute = 5;
    const auto params = CostParams::from(cluster, stats, 16, 16);
    const auto mij = cost(Algorithm::IndexedJoin, params);
    const auto mgh = cost(Algorithm::GraceHash, params);
    std::printf("%12llu | %10.1f %10.1f %10.1f\n",
                (unsigned long long)stats.T, mij.total(), mgh.total(),
                mgh.total() - mij.total());
  }
  std::printf("\nExpected paper shape: linear scaling for both algorithms; "
              "the difference\ngrows linearly, so the planner's choice "
              "matters most for the largest tables.\n\n");
  return 0;
}
