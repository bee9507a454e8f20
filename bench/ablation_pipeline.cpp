// Ablation: overlapped fetch/compute pipelining vs prefetch lookahead.
//
// Fixed Transfer ≈ Cpu configuration (cpu_work_factor 8 on the 2006
// profile puts hash build/probe in the same ballpark as the network
// transfer), lookahead swept 0–8 with and without coalesced batch
// fetches, plus the Grace Hash spill double-buffer. Expected shape:
// virtual time falls from Transfer + Cpu toward max(Transfer, Cpu) as the
// lookahead deepens, the overlap ratio climbs toward 1, and fingerprints
// never change.
//
//   --check   CI perf-smoke mode: runs lookahead 0 and 4 only, asserts
//             the pipelined run is at least 10% faster with an identical
//             fingerprint, exits nonzero otherwise.

#include <cstring>

#include "bench_util.hpp"

namespace {

orv::bench::Scenario overlap_scenario() {
  orv::bench::Scenario sc;
  sc.data.grid = {16, 16, 8};
  sc.data.part1 = {4, 4, 4};
  sc.data.part2 = {2, 2, 2};
  sc.cluster.num_storage = 2;
  sc.cluster.num_compute = 2;
  sc.options.cpu_work_factor = 8;  // Transfer ≈ Cpu: the overlap-friendly regime
  sc.options.bucket_pair_bytes = 16 * 1024;  // several GH buckets
  return sc;
}

int check_mode() {
  using namespace orv::bench;
  Scenario serial = overlap_scenario();
  const auto base = run_scenario(serial);

  Scenario pipe = overlap_scenario();
  pipe.options.prefetch_lookahead = 4;
  pipe.options.gh_double_buffer = true;
  const auto p = run_scenario(pipe);

  bool ok = true;
  if (p.sim_ij.result_fingerprint != base.sim_ij.result_fingerprint ||
      p.sim_ij.result_tuples != base.sim_ij.result_tuples) {
    std::printf("FAIL: pipelined IJ fingerprint diverged\n");
    ok = false;
  }
  if (p.sim_gh.result_fingerprint != base.sim_gh.result_fingerprint ||
      p.sim_gh.result_tuples != base.sim_gh.result_tuples) {
    std::printf("FAIL: pipelined GH fingerprint diverged\n");
    ok = false;
  }
  if (p.sim_ij.elapsed > 0.9 * base.sim_ij.elapsed) {
    std::printf("FAIL: pipelined IJ %.6fs not <= 0.9 x serial %.6fs\n",
                p.sim_ij.elapsed, base.sim_ij.elapsed);
    ok = false;
  }
  if (p.sim_gh.elapsed >= base.sim_gh.elapsed) {
    std::printf("FAIL: pipelined GH %.6fs not < serial %.6fs\n",
                p.sim_gh.elapsed, base.sim_gh.elapsed);
    ok = false;
  }
  std::printf("%s: IJ %.6f -> %.6f (%.1f%%), GH %.6f -> %.6f (%.1f%%)\n",
              ok ? "PASS" : "FAIL", base.sim_ij.elapsed, p.sim_ij.elapsed,
              100.0 * (1.0 - p.sim_ij.elapsed / base.sim_ij.elapsed),
              base.sim_gh.elapsed, p.sim_gh.elapsed,
              100.0 * (1.0 - p.sim_gh.elapsed / base.sim_gh.elapsed));
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace orv;
  using namespace orv::bench;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) return check_mode();
  }

  print_banner("Ablation: pipelining",
               "overlapped fetch/compute vs prefetch lookahead");
  const std::string out_path = parse_out_path(argc, argv);
  SeriesJson series("ablation_pipeline");

  const auto base = run_scenario(overlap_scenario());
  std::printf("serial baseline: IJ %.6fs  GH %.6fs  (model IJ %.6fs)\n\n",
              base.sim_ij.elapsed, base.sim_gh.elapsed,
              base.plan.ij.total());

  std::printf("%9s %8s | %8s %8s %8s %8s | %8s %8s | %6s\n", "lookahead",
              "coalesce", "IJ sim", "IJ gain", "overlap", "IJ model",
              "GH sim", "GH gain", "fp==");
  for (std::size_t la : {0, 1, 2, 3, 4, 6, 8}) {
    for (bool coalesce : {false, true}) {
      if (la == 0 && coalesce) continue;  // no prefetch, nothing to batch
      Scenario sc = overlap_scenario();
      sc.options.prefetch_lookahead = la;
      sc.options.coalesce_fetches = coalesce;
      sc.options.gh_double_buffer = la > 0;
      const auto r = run_scenario(sc);
      const bool same =
          r.sim_ij.result_fingerprint == base.sim_ij.result_fingerprint &&
          r.sim_gh.result_fingerprint == base.sim_gh.result_fingerprint;
      std::printf(
          "%9zu %8s | %8.5f %7.1f%% %8.3f %8.5f | %8.5f %7.1f%% | %6s\n", la,
          coalesce ? "yes" : "no", r.sim_ij.elapsed,
          100.0 * (1.0 - r.sim_ij.elapsed / base.sim_ij.elapsed),
          r.sim_ij.overlap_ratio, r.plan.ij.total(), r.sim_gh.elapsed,
          100.0 * (1.0 - r.sim_gh.elapsed / base.sim_gh.elapsed),
          same ? "yes" : "NO!");
      series.add_row(strformat(
          "{\"lookahead\":%zu,\"coalesce\":%s,\"ij\":%.6f,\"gh\":%.6f,"
          "\"ij_model\":%.6f,\"overlap_ratio\":%.4f,\"prefetch_issued\":%llu,"
          "\"prefetch_wasted\":%llu,\"fingerprint_match\":%s}",
          la, coalesce ? "true" : "false", r.sim_ij.elapsed, r.sim_gh.elapsed,
          r.plan.ij.total(), r.sim_ij.overlap_ratio,
          (unsigned long long)r.sim_ij.prefetch_issued,
          (unsigned long long)r.sim_ij.prefetch_wasted,
          same ? "true" : "false"));
    }
  }
  std::printf("\nExpected shape: IJ time falls toward max(Transfer, Cpu) as "
              "lookahead grows and\nthe overlap ratio approaches 1; "
              "fingerprints are identical at every depth.\n\n");
  if (!out_path.empty() && !series.write(out_path)) return 1;
  return 0;
}
