// Quickstart: generate a small oil-reservoir-style dataset as flat files,
// build an object-relational view over it without any ingestion, and query
// it — locally and on a simulated 10-node cluster where the Query Planning
// Service picks the join algorithm from the cost models.
//
//   $ ./quickstart
//
// Everything runs from scratch in a temporary directory.

#include <cstdio>

#include "common/tempdir.hpp"
#include "core/view_framework.hpp"
#include "datagen/generator.hpp"

using namespace orv;

int main() {
  // --- 1. "Simulation output": flat files in app-specific layouts. ------
  DatasetSpec spec;
  spec.grid = {32, 32, 32};    // 32768 grid points
  spec.part1 = {16, 16, 16};   // T1 written in 8 chunks, row-major
  spec.part2 = {8, 8, 8};      // T2 written in 64 chunks, column-major
  spec.layout2 = LayoutId::ColMajor;
  spec.num_storage_nodes = 5;

  TempDir dir("orv-quickstart");
  GeneratedDataset ds = generate_dataset(spec, dir.path());
  std::printf("Generated %s under %s\n", spec.to_string().c_str(),
              dir.path().c_str());
  std::printf("  T1: %zu chunks, T2: %zu chunks, %llu rows each\n",
              ds.meta.num_chunks(spec.table1_id),
              ds.meta.num_chunks(spec.table2_id),
              (unsigned long long)ds.meta.table_rows(spec.table1_id));

  // --- 2. The view framework: BDS tables + a join-based DDS view. ------
  ViewFramework fw(std::move(ds.meta), ds.stores);
  fw.define_view("V1", ViewDef::join(ViewDef::base(spec.table1_id),
                                     ViewDef::base(spec.table2_id),
                                     {"x", "y", "z"}));

  // --- 3. Range query against a Basic Data Source. ---------------------
  SubTable t1_rows =
      fw.query("SELECT * FROM T1 WHERE x IN [0, 3] AND y IN [0, 3] AND "
               "z IN [0, 1]");
  std::printf("\nSELECT * FROM T1 WHERE x,y,z ranges -> %zu rows\n",
              t1_rows.num_rows());
  std::printf("%s", t1_rows.to_string(4).c_str());

  // --- 4. Query the join view locally. ---------------------------------
  SubTable v1_rows =
      fw.query("SELECT x, y, z, oilp, wp FROM V1 WHERE x IN [0, 2]");
  std::printf("\nSELECT x,y,z,oilp,wp FROM V1 WHERE x IN [0,2] -> %zu rows\n",
              v1_rows.num_rows());
  std::printf("%s", v1_rows.to_string(4).c_str());

  // --- 5. Aggregation over the view. ------------------------------------
  SubTable avg = fw.query("SELECT AVG(wp) AS avg_wp, COUNT(*) AS n FROM V1");
  std::printf("\nSELECT AVG(wp), COUNT(*) FROM V1:\n%s",
              avg.to_string().c_str());

  // --- 6. The same view on a simulated coupled cluster. -----------------
  ClusterSpec cluster;
  cluster.num_storage = 5;
  cluster.num_compute = 5;
  DistributedRun run = fw.query_distributed("SELECT * FROM V1", cluster);
  std::printf("\nDistributed execution (5 storage + 5 compute nodes):\n");
  std::printf("  connectivity graph: %s\n",
              run.graph_stats.to_string().c_str());
  std::printf("  planner: %s\n", run.decision.to_string().c_str());
  std::printf("  executed: %s\n", run.qes.to_string().c_str());
  std::printf("  predicted %.3fs, simulated %.3fs\n",
              run.decision.predicted_seconds(), run.qes.elapsed);
  return 0;
}
