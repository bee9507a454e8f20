// Figure 9: shared filesystem (single NFS server serves all I/O; compute
// nodes have no local disks).
//
// Expected shape: GH suffers far more than IJ — its bucket writes and
// reads all funnel through the one server — so much that *adding compute
// nodes makes GH worse* (more concurrent bucket traffic at the server),
// while IJ keeps improving. IJ is the clear choice on shared storage.

#include "bench_util.hpp"

int main() {
  using namespace orv;
  using namespace orv::bench;
  print_banner("Figure 9", "single shared NFS server for all I/O");

  std::printf("%6s | %8s %8s | %8s %8s\n", "n_j", "IJ sim", "GH sim",
              "IJ model", "GH model");
  // Up to 10 nodes total, as on the paper's testbed.
  for (std::size_t nj : {1, 2, 3, 4, 5}) {
    Scenario sc;
    sc.data.grid = {48, 48, 48};
    sc.data.part1 = {12, 12, 12};
    sc.data.part2 = {12, 12, 12};
    sc.cluster.num_storage = 5;   // five BDS endpoints, one physical server
    sc.cluster.num_compute = nj;
    sc.cluster.shared_filesystem = true;
    sc.options.batch_bytes = 16 * 1024;  // finer interleaving granularity
    const auto r = run_scenario(sc);
    std::printf("%6zu | %8.3f %8.3f | %8.3f %8.3f\n", nj, r.sim_ij.elapsed,
                r.sim_gh.elapsed, r.plan.ij.total(), r.plan.gh.total());
  }
  std::printf("\nExpected paper shape: GH considerably worse than IJ; GH "
              "degrades (or at\nbest stagnates) as compute nodes are added, "
              "since only GH writes buckets\nthrough the shared server. IJ "
              "is definitely the better choice here.\n\n");
  return 0;
}
