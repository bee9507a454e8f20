// Figure 7: execution time vs the number of attributes (record size).
//
// Paper setup: both tables' attribute counts swept; each attribute is 4
// bytes (oil-reservoir datasets carry up to 21 attributes). Expected
// shape: both algorithms grow linearly in record size through the
// transfer term; GH grows faster because bucket write + read also scale
// with record bytes, while the CPU terms are record-size independent
// (pointer-valued hash tables).

#include "bench_util.hpp"

int main() {
  using namespace orv;
  using namespace orv::bench;
  print_banner("Figure 7", "varying the number of attributes");

  std::printf("%8s %8s | %8s %8s %8s | %8s %8s\n", "attrs", "rec_size",
              "IJ sim", "GH sim", "gap", "IJ model", "GH model");
  for (std::size_t attrs : {4, 6, 9, 13, 17, 21}) {
    Scenario sc;
    sc.data.grid = {64, 64, 64};
    sc.data.part1 = {16, 16, 16};
    sc.data.part2 = {16, 16, 16};
    sc.data.extra_attrs1 = attrs - 3;
    sc.data.extra_attrs2 = attrs - 3;
    sc.cluster.num_storage = 5;
    sc.cluster.num_compute = 5;
    const auto r = run_scenario(sc);
    std::printf("%8zu %8.0f | %8.3f %8.3f %8.3f | %8.3f %8.3f\n", attrs,
                r.plan.params.RS_R, r.sim_ij.elapsed, r.sim_gh.elapsed,
                r.sim_gh.elapsed - r.sim_ij.elapsed, r.plan.ij.total(),
                r.plan.gh.total());
  }
  std::printf("\nExpected paper shape: linear in record size for both; GH's "
              "slope is steeper\n(bucket I/O also scales with record "
              "bytes); CPU terms unaffected.\n\n");
  return 0;
}
