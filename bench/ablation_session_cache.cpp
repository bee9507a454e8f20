// Ablation: cross-query session caching (the paper's future-work
// "caching strategies"). A scientist's interactive session re-queries the
// same view with different predicates; warm per-node Caching Service
// instances eliminate transfers after the first query.

#include "bench_util.hpp"
#include "qes/session.hpp"

int main() {
  using namespace orv;
  using namespace orv::bench;
  print_banner("Ablation", "cross-query session caching (IJ)");

  DatasetSpec data;
  data.grid = {64, 64, 64};
  data.part1 = {16, 16, 16};
  data.part2 = {16, 16, 16};
  data.num_storage_nodes = 5;
  ClusterSpec cspec;
  cspec.num_storage = 5;
  cspec.num_compute = 5;

  auto ds = generate_dataset(data);
  sim::Engine engine;
  Cluster cluster(engine, cspec);
  BdsService bds(cluster, ds.meta, ds.stores);

  struct Step {
    const char* label;
    std::vector<AttrRange> ranges;
  };
  const Step steps[] = {
      {"full view (cold)", {}},
      {"full view (warm)", {}},
      {"x in [0,31]", {{"x", {0, 31}}}},
      {"x in [0,31], wp <= 0.5", {{"x", {0, 31}}, {"wp", {0.0, 0.5}}}},
      {"z in [32,63]", {{"z", {32, 63}}}},
  };

  for (const bool affinity : {false, true}) {
    QesSession session(cluster, bds, ds.meta);  // cold shared caches
    QesOptions options;
    options.assign = affinity ? ComponentAssign::CacheAffinity
                              : ComponentAssign::RoundRobin;
    std::printf("-- component assignment: %s --\n",
                affinity ? "cache-affinity (extension)" : "round-robin");
    std::printf("%-26s | %8s %10s %10s %9s\n", "query", "time", "net bytes",
                "fetches", "hit rate");
    for (const auto& step : steps) {
      JoinQuery query{data.table1_id, data.table2_id, {"x", "y", "z"},
                      step.ranges};
      const auto r =
          session.run(query, options, Algorithm::IndexedJoin).result;
      std::printf("%-26s | %7.3fs %10.0f %10llu %8.1f%%\n", step.label,
                  r.elapsed, r.network_bytes,
                  (unsigned long long)r.subtable_fetches,
                  100.0 * r.cache_stats.hit_rate());
    }
    std::printf("\n");
  }
  std::printf("Expected: the first query pays the full transfer; warm "
              "queries are served\nfrom the node caches. Round-robin over "
              "a range-pruned graph loses affinity\nand re-fetches; the "
              "cache-affinity assignment follows the warm caches.\n\n");
  return 0;
}
