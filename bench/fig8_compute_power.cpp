// Figure 8: effect of computing power.
//
// Paper setup: the processing rate F is varied by repeating the
// hash-build and probe instructions k times (k = 2 simulates halving the
// computing power; we also extend the sweep toward faster CPUs).
// Expected shape: IJ, whose CPU term dominates, suffers more as CPUs
// slow down and outperforms GH once computing power is high — supporting
// the paper's Section 6.2 claim that CPU-vs-I/O trends favour IJ.

#include "bench_util.hpp"

int main() {
  using namespace orv;
  using namespace orv::bench;
  print_banner("Figure 8", "effect of computing power");

  std::printf("%14s | %8s %8s | %8s %8s | %-11s\n", "relative F",
              "IJ sim", "GH sim", "IJ model", "GH model", "QPS choice");
  // Dataset with a moderate n_e*c_S so the CPU term is visible.
  for (double k : {8.0, 4.0, 2.0, 1.0, 0.5, 0.25}) {
    Scenario sc;
    sc.data.grid = {64, 64, 64};
    sc.data.part1 = {32, 8, 8};   // cross partitions: n_e*c_S = 4T
    sc.data.part2 = {8, 32, 8};
    sc.cluster.num_storage = 5;
    sc.cluster.num_compute = 5;
    sc.options.cpu_work_factor = k;  // k repeats = 1/k of the computing power
    const auto r = run_scenario(sc);
    std::printf("%13.3gx | %8.3f %8.3f | %8.3f %8.3f | %-11s\n", 1.0 / k,
                r.sim_ij.elapsed, r.sim_gh.elapsed, r.plan.ij.total(),
                r.plan.gh.total(), algorithm_name(r.plan.chosen));
  }
  std::printf("\nExpected paper shape: at low computing power GH wins (its "
              "CPU term is\nsmaller); as F grows IJ overtakes GH — the "
              "trend the models predict.\n\n");
  return 0;
}
