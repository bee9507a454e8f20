// Figure 5: execution time vs the number of compute (joiner) nodes.
//
// Paper setup: a dataset with low n_e * c_S (so the Indexed Join wins),
// n_j swept. Expected shape: both algorithms speed up with more compute
// nodes and the IJ-GH gap shrinks as ~1/n_j.
//
// Each point also runs the overlapped fetch/compute pipeline; with few
// joiners the per-node Cpu share is largest, so that is where overlap
// hides the most. `--out <path.json>` writes the serial-vs-pipelined
// series (committed as BENCH_fig5.json).

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace orv;
  using namespace orv::bench;
  print_banner("Figure 5", "varying the number of compute nodes");
  const std::string out_path = parse_out_path(argc, argv);
  SeriesJson series("fig5");

  std::printf("%6s | %8s %8s %8s | %8s %8s | %8s %8s\n", "n_j", "IJ sim",
              "GH sim", "gap", "IJ pipe", "GH pipe", "IJ model", "GH model");
  for (std::size_t nj : {1, 2, 3, 4, 5, 6, 8}) {
    Scenario sc;
    sc.data.grid = {64, 64, 64};
    sc.data.part1 = {16, 16, 16};  // aligned partitions: n_e*c_S = T (low)
    sc.data.part2 = {16, 16, 16};
    sc.cluster.num_storage = 5;
    sc.cluster.num_compute = nj;
    const auto r = run_scenario(sc);
    Scenario pc = sc;
    pc.options = pipelined_options();
    const auto p = run_scenario(pc);
    std::printf("%6zu | %8.3f %8.3f %8.3f | %8.3f %8.3f | %8.3f %8.3f\n", nj,
                r.sim_ij.elapsed, r.sim_gh.elapsed,
                r.sim_gh.elapsed - r.sim_ij.elapsed, p.sim_ij.elapsed,
                p.sim_gh.elapsed, r.plan.ij.total(), r.plan.gh.total());
    series.add_row(strformat(
        "{\"n_j\":%zu,\"ij_serial\":%.6f,\"gh_serial\":%.6f,"
        "\"ij_pipelined\":%.6f,\"gh_pipelined\":%.6f,"
        "\"ij_model_serial\":%.6f,\"gh_model_serial\":%.6f,"
        "\"ij_model_pipelined\":%.6f,\"gh_model_pipelined\":%.6f,"
        "\"ij_overlap_ratio\":%.4f}",
        nj, r.sim_ij.elapsed, r.sim_gh.elapsed, p.sim_ij.elapsed,
        p.sim_gh.elapsed, r.plan.ij.total(), r.plan.gh.total(),
        p.plan.ij.total(), p.plan.gh.total(), p.sim_ij.overlap_ratio));
  }
  std::printf("\nExpected paper shape: IJ outperforms GH (low n_e*c_S); the "
              "gap decreases\nroughly as 1/n_j as compute nodes are "
              "added.\n\n");
  if (!out_path.empty() && !series.write(out_path)) return 1;
  return 0;
}
