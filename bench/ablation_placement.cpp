// Ablation: chunk placement across storage nodes.
//
// Paper claim (Section 4.2): "The Grace Hash algorithm is insensitive to
// the way data is partitioned across the storage nodes" while the Indexed
// Join "is found to be sensitive to the way datasets are partitioned and
// was able to benefit from it in certain cases". Here both algorithms run
// over the same logical dataset placed block-cyclically (paper), in
// contiguous blocks, randomly, and by min-cut graph partitioning
// (src/place) — first on the paper's split cluster, then on a colocated
// cluster where placement-affinity scheduling turns co-located chunk
// pairs into local-bus transfers that never cross the switch.
//
//   --out <path.json>  writes the colocated series for the bench_compare
//                      regression gate (BENCH_placement.json).
//   --check            CI perf-smoke mode: asserts that on the colocated
//                      cluster graph-partitioned placement beats
//                      block-cyclic by >= 10% IJ time and >= 25% fewer
//                      cross-switch bytes, GH stays within 2%, and every
//                      placement yields the same result fingerprint.

#include <cstring>

#include "bench_util.hpp"

namespace {

struct Case {
  const char* name;
  orv::Placement placement;
};

constexpr Case kCases[] = {
    {"block-cyclic (paper)", orv::Placement::BlockCyclic},
    {"blocked (contiguous)", orv::Placement::Blocked},
    {"random", orv::Placement::Random},
    {"graph-partitioned", orv::Placement::GraphPartitioned},
};

orv::bench::Scenario placement_scenario(orv::Placement placement,
                                        bool colocated) {
  orv::bench::Scenario sc;
  // Asymmetric partitions (a = 1, b = 8 per component): each T1 chunk
  // joins 8 smaller T2 chunks, so block-cyclic scatters a component's
  // chunks over the nodes while graph partitioning keeps it whole. With
  // p = q every placement is trivially local (pair i lives with chunk i)
  // and the ablation would show nothing.
  sc.data.grid = {64, 64, 64};
  sc.data.part1 = {16, 16, 16};
  sc.data.part2 = {8, 8, 8};
  sc.data.placement = placement;
  sc.cluster.num_storage = 5;
  sc.cluster.num_compute = 5;
  if (colocated) {
    sc.cluster.colocated = true;
    sc.options.assign = orv::ComponentAssign::PlacementAffinity;
  }
  return sc;
}

int check_mode() {
  using namespace orv;
  using namespace orv::bench;
  const auto base =
      run_scenario(placement_scenario(Placement::BlockCyclic, true));
  const auto gp =
      run_scenario(placement_scenario(Placement::GraphPartitioned, true));

  bool ok = true;
  if (gp.sim_ij.result_fingerprint != base.sim_ij.result_fingerprint ||
      gp.sim_gh.result_fingerprint != base.sim_gh.result_fingerprint ||
      gp.sim_ij.result_fingerprint != gp.sim_gh.result_fingerprint) {
    std::printf("FAIL: result fingerprint moved with placement\n");
    ok = false;
  }
  if (gp.sim_ij.elapsed > 0.9 * base.sim_ij.elapsed) {
    std::printf("FAIL: graph-partitioned IJ %.6fs not <= 0.9 x "
                "block-cyclic %.6fs\n",
                gp.sim_ij.elapsed, base.sim_ij.elapsed);
    ok = false;
  }
  if (gp.sim_ij.cross_switch_bytes > 0.75 * base.sim_ij.cross_switch_bytes) {
    std::printf("FAIL: cross-switch bytes %.0f not <= 0.75 x %.0f\n",
                gp.sim_ij.cross_switch_bytes, base.sim_ij.cross_switch_bytes);
    ok = false;
  }
  const double gh_shift =
      std::abs(gp.sim_gh.elapsed - base.sim_gh.elapsed) / base.sim_gh.elapsed;
  if (gh_shift > 0.02) {
    std::printf("FAIL: GH moved %.1f%% with placement (> 2%%)\n",
                100.0 * gh_shift);
    ok = false;
  }
  std::printf("%s: IJ %.6f -> %.6f (%.1f%%), switch bytes %.3g -> %.3g "
              "(%.1f%%), GH shift %.2f%%\n",
              ok ? "PASS" : "FAIL", base.sim_ij.elapsed, gp.sim_ij.elapsed,
              100.0 * (1.0 - gp.sim_ij.elapsed / base.sim_ij.elapsed),
              base.sim_ij.cross_switch_bytes, gp.sim_ij.cross_switch_bytes,
              100.0 * (1.0 - gp.sim_ij.cross_switch_bytes /
                                 base.sim_ij.cross_switch_bytes),
              100.0 * gh_shift);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace orv;
  using namespace orv::bench;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) return check_mode();
  }

  print_banner("Ablation", "chunk placement across storage nodes");
  const std::string out_path = parse_out_path(argc, argv);
  SeriesJson series("ablation_placement");

  std::printf("split cluster (paper): storage and compute on separate "
              "boxes, every fetch\ncrosses the switch.\n\n");
  std::printf("%-22s | %8s %8s\n", "placement", "IJ sim", "GH sim");
  double gh_min = 1e30, gh_max = 0, ij_min = 1e30, ij_max = 0;
  for (const auto& c : kCases) {
    const auto r = run_scenario(placement_scenario(c.placement, false));
    std::printf("%-22s | %8.3f %8.3f\n", c.name, r.sim_ij.elapsed,
                r.sim_gh.elapsed);
    gh_min = std::min(gh_min, r.sim_gh.elapsed);
    gh_max = std::max(gh_max, r.sim_gh.elapsed);
    ij_min = std::min(ij_min, r.sim_ij.elapsed);
    ij_max = std::max(ij_max, r.sim_ij.elapsed);
  }
  std::printf("\nspread: IJ %.1f%%, GH %.1f%%\n\n",
              100.0 * (ij_max - ij_min) / ij_min,
              100.0 * (gh_max - gh_min) / gh_min);

  std::printf("colocated cluster: compute node j shares a box with storage "
              "node j mod n_s;\nIJ components are scheduled with "
              "PlacementAffinity, so bytes of co-located\nchunks ride the "
              "local bus instead of NIC + switch + NIC.\n\n");
  std::printf("%-22s | %8s %8s %8s | %9s %9s %7s\n", "placement", "IJ sim",
              "IJ model", "GH sim", "switch", "local", "f_local");
  for (const auto& c : kCases) {
    const auto r = run_scenario(placement_scenario(c.placement, true));
    const double moved =
        r.sim_ij.cross_switch_bytes + r.sim_ij.local_transfer_bytes;
    const double f_local =
        moved > 0 ? r.sim_ij.local_transfer_bytes / moved : 0.0;
    std::printf("%-22s | %8.3f %8.3f %8.3f | %9.3g %9.3g %7.3f\n", c.name,
                r.sim_ij.elapsed, r.plan.ij.total(), r.sim_gh.elapsed,
                r.sim_ij.cross_switch_bytes, r.sim_ij.local_transfer_bytes,
                f_local);
    series.add_row(strformat(
        "{\"placement\":\"%s\",\"ij\":%.6f,\"gh\":%.6f,\"ij_model\":%.6f,"
        "\"cross_switch_bytes\":%.0f,\"local_bytes\":%.0f,"
        "\"local_fraction\":%.4f,\"fingerprint\":%llu}",
        placement_name(c.placement), r.sim_ij.elapsed, r.sim_gh.elapsed,
        r.plan.ij.total(), r.sim_ij.cross_switch_bytes,
        r.sim_ij.local_transfer_bytes, f_local,
        (unsigned long long)r.sim_ij.result_fingerprint));
  }
  std::printf("\nExpected shape: GH is nearly insensitive everywhere (its "
              "shuffle always crosses\nthe switch); on the colocated "
              "cluster graph-partitioned placement pushes the\nlocal "
              "fraction toward 1, cutting IJ's cross-switch bytes and its "
              "transfer-bound\ntime, and the locality-aware model tracks "
              "the drop.\n\n");
  if (!out_path.empty() && !series.write(out_path)) return 1;
  return 0;
}
