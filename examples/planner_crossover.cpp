// Planner walkthrough: why there are two join algorithms and when the
// Query Planning Service picks each.
//
// Sweeps the dataset parameter n_e * c_S (the Indexed Join's lookup-cost
// driver) at constant edge ratio by cross-partitioning the two tables, and
// shows the Section 5 cost models, the planner decisions, the analytic
// crossover point, and the simulated execution times that validate them.

#include <cstdio>

#include "cost/cost_model.hpp"
#include "datagen/generator.hpp"
#include "dds/distributed.hpp"
#include "sim/engine.hpp"

using namespace orv;

int main() {
  const std::uint64_t M = 32;
  const std::uint64_t w = 8;
  ClusterSpec cspec;
  cspec.num_storage = 5;
  cspec.num_compute = 5;

  std::printf(
      "Cross-partitioned tables over a 64^3 grid, 5 storage + 5 compute\n"
      "nodes (%s).\n\n",
      cspec.hw.to_string().c_str());
  std::printf("%10s | %9s %9s | %9s %9s | %-11s %s\n", "n_e*c_S", "IJ model",
              "GH model", "IJ sim", "GH sim", "QPS choice", "sim winner");
  std::printf("%.0s-----------------------------------------------------"
              "---------------------------\n", "");

  double crossover = 0;
  for (std::uint64_t s : {1, 2, 4, 8, 16, 32}) {
    DatasetSpec spec;
    spec.grid = {64, 64, 64};
    spec.part1 = {M, M / s, w};
    spec.part2 = {M / s, M, w};
    spec.num_storage_nodes = cspec.num_storage;
    auto ds = generate_dataset(spec);

    const CostParams params =
        CostParams::from(cspec, ds.stats, 16, 16);
    const CostBreakdown mij = cost(Algorithm::IndexedJoin, params);
    const CostBreakdown mgh = cost(Algorithm::GraceHash, params);
    crossover = crossover_ne_cs(params);

    sim::Engine engine;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    DistributedDds dds(cluster, bds, ds.meta);
    const auto view = ViewDef::join(ViewDef::base(spec.table1_id),
                                    ViewDef::base(spec.table2_id),
                                    {"x", "y", "z"});
    // Run both algorithms for comparison (the planner would run one).
    QesOptions opts;
    JoinQuery query{spec.table1_id, spec.table2_id, {"x", "y", "z"}, {}};
    const auto graph = ConnectivityGraph::build(ds.meta, spec.table1_id,
                                                spec.table2_id,
                                                query.join_attrs);
    const auto ij = run_indexed_join(cluster, bds, ds.meta, graph, query);
    const auto gh = run_grace_hash(cluster, bds, ds.meta, query);
    const DistributedRun planned = dds.execute(*view);

    std::printf("%10llu | %8.3fs %8.3fs | %8.3fs %8.3fs | %-11s %s\n",
                (unsigned long long)(ds.stats.num_edges * ds.stats.c_S),
                mij.total(), mgh.total(), ij.elapsed, gh.elapsed,
                algorithm_name(planned.decision.chosen),
                ij.elapsed <= gh.elapsed ? "IndexedJoin" : "GraceHash");
  }
  std::printf(
      "\nAnalytic crossover: n_e*c_S = %.3g (IJ preferred below, GH "
      "above).\n",
      crossover);
  std::printf(
      "Section 6.2 rule of thumb: IJ keeps winning as CPUs outpace I/O —\n"
      "rerun with HardwareProfile::modern() to see the crossover move "
      "right.\n");
  return 0;
}
