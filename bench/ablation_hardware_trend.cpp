// Ablation: the Section 6.2 hardware-trend claim, evaluated with a full
// hardware profile swap rather than Figure 8's instruction-repeat trick:
// on a contemporary node (fast CPU, moderately faster disks), IJ's
// advantage over GH widens and the crossover moves far to the right.

#include "bench_util.hpp"

int main() {
  using namespace orv;
  using namespace orv::bench;
  print_banner("Ablation", "2006 testbed vs a modern hardware profile");

  for (const bool modern : {false, true}) {
    ClusterSpec cspec;
    cspec.num_storage = 5;
    cspec.num_compute = 5;
    if (modern) cspec.hw = HardwareProfile::modern();
    std::printf("-- %s: %s --\n", modern ? "modern" : "paper 2006",
                cspec.hw.to_string().c_str());
    std::printf("%10s | %8s %8s | %-11s\n", "n_e*c_S", "IJ model", "GH model",
                "QPS choice");
    const QueryPlanner planner(cspec);
    const std::uint64_t M = 32, w = 8;
    for (std::uint64_t s : {1, 4, 16, 32}) {
      DatasetSpec data;
      data.grid = {64, 64, 64};
      data.part1 = {M, M / s, w};
      data.part2 = {M / s, M, w};
      const auto stats = analyze(data);
      const PlanDecision d = planner.plan(stats, 16, 16);
      std::printf("%10llu | %8.4f %8.4f | %-11s\n",
                  (unsigned long long)(stats.num_edges * stats.c_S),
                  d.ij.total(), d.gh.total(), algorithm_name(d.chosen));
    }
    DatasetSpec probe;
    probe.grid = {64, 64, 64};
    probe.part1 = {M, 1, w};
    probe.part2 = {1, M, w};
    const auto params = CostParams::from(cspec, analyze(probe), 16, 16);
    std::printf("crossover n_e*c_S = %.4g (T = %.4g)\n\n",
                crossover_ne_cs(params), params.T);
  }
  std::printf("Expected: the modern profile pushes the crossover orders of "
              "magnitude\nhigher — IJ wins in ever more of the parameter "
              "space as CPUs outpace I/O.\n\n");
  return 0;
}
