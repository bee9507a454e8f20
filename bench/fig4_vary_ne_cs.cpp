// Figure 4: execution time vs the dataset parameter n_e * c_S.
//
// Paper setup: constant grid, partition sizes varied in powers of two at
// constant edge ratio, 5 storage + 5 compute nodes. Expected shape: the
// Indexed Join's CPU (lookup) cost grows with n_e * c_S while Grace Hash
// is insensitive to it but pays bucket write/read I/O, so IJ wins on the
// left, GH on the right, with a crossover the cost models predict.
//
// Each point also runs the overlapped fetch/compute pipeline (prefetch
// lookahead 4, double-buffered spills): as n_e * c_S grows, IJ's Cpu term
// catches up with Transfer and the pipelined run approaches
// max(Transfer, Cpu). `--out <path.json>` writes the serial-vs-pipelined
// series (committed as BENCH_fig4.json).

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace orv;
  using namespace orv::bench;
  print_banner("Figure 4", "varying dataset parameter combination n_e * c_S");
  const std::string out_path = parse_out_path(argc, argv);
  SeriesJson series("fig4");

  const std::uint64_t M = 32;
  const std::uint64_t w = 8;
  std::printf("%10s %10s | %8s %8s | %8s %8s | %8s %8s | %-11s %-11s | %s\n",
              "n_e*c_S", "edge_ratio", "IJ sim", "GH sim", "IJ pipe",
              "GH pipe", "IJ model", "GH model", "QPS choice", "sim winner",
              "diagnosis (winner)");

  double crossover = 0;
  for (std::uint64_t s : {1, 2, 4, 8, 16, 32}) {
    Scenario sc;
    sc.data.grid = {64, 64, 64};
    sc.data.part1 = {M, M / s, w};
    sc.data.part2 = {M / s, M, w};
    sc.cluster.num_storage = 5;
    sc.cluster.num_compute = 5;
    const auto r = run_scenario(sc);
    Scenario pc = sc;
    pc.options = pipelined_options();
    const auto p = run_scenario(pc);
    crossover = crossover_ne_cs(r.plan.params);
    const bool ij_wins = r.sim_ij.elapsed <= r.sim_gh.elapsed;
    // Diagnosis column: one-line bottleneck verdict for the sim winner.
    // Only instrumented runs (any bench sink set) assemble the trace DAG
    // the diagnosis walks; otherwise the column shows "-".
    const std::string diag =
        r.diag_valid ? (ij_wins ? r.diag_ij : r.diag_gh).to_string()
                     : std::string("-");
    std::printf(
        "%10.0f %10.4f | %8.3f %8.3f | %8.3f %8.3f | %8.3f %8.3f | %-11s "
        "%-11s | %s\n",
        r.ne_cs(), r.stats.edge_ratio, r.sim_ij.elapsed, r.sim_gh.elapsed,
        p.sim_ij.elapsed, p.sim_gh.elapsed, r.plan.ij.total(),
        r.plan.gh.total(), algorithm_name(r.plan.chosen),
        ij_wins ? "IndexedJoin" : "GraceHash", diag.c_str());
    // The *_stage_* columns are the serial-model critical-path breakdown
    // bench_compare's regression attribution diffs when a gate fails.
    series.add_row(strformat(
        "{\"ne_cs\":%.0f,\"ij_serial\":%.6f,\"gh_serial\":%.6f,"
        "\"ij_pipelined\":%.6f,\"gh_pipelined\":%.6f,"
        "\"ij_model_serial\":%.6f,\"gh_model_serial\":%.6f,"
        "\"ij_model_pipelined\":%.6f,\"gh_model_pipelined\":%.6f,"
        "\"ij_overlap_ratio\":%.4f,"
        "\"ij_error_ratio\":%.6f,\"gh_error_ratio\":%.6f,"
        "\"ij_stage_transfer\":%.6f,\"ij_stage_cpu\":%.6f,"
        "\"gh_stage_transfer\":%.6f,\"gh_stage_write\":%.6f,"
        "\"gh_stage_read\":%.6f,\"gh_stage_cpu\":%.6f}",
        r.ne_cs(), r.sim_ij.elapsed, r.sim_gh.elapsed, p.sim_ij.elapsed,
        p.sim_gh.elapsed, r.plan.ij.total(), r.plan.gh.total(),
        p.plan.ij.total(), p.plan.gh.total(), p.sim_ij.overlap_ratio,
        r.ij_error_ratio(), r.gh_error_ratio(), r.plan.ij.transfer,
        r.plan.ij.cpu(), r.plan.gh.transfer, r.plan.gh.write,
        r.plan.gh.read, r.plan.gh.cpu()));
  }
  std::printf("\nModel-predicted crossover: n_e*c_S = %.4g\n", crossover);
  std::printf("Expected paper shape: IJ below GH at small n_e*c_S, GH below "
              "IJ at large;\nmodels track simulation and predict the "
              "crossover point. Pipelined IJ narrows\ntoward max(Transfer, "
              "Cpu) as the lookup term grows.\n\n");
  if (!out_path.empty() && !series.write(out_path)) return 1;
  return 0;
}
