// orv_shell: a small command-line front-end to the view framework.
//
// Usage:
//   orv_shell generate <dir> [gx gy gz]   create a demo dataset directory
//   orv_shell <dir> "<SQL>" ...           open a dataset and run queries
//   orv_shell <dir>                       interactive prompt (stdin)
//
// The exit status is 0 when every query succeeded and 1 when any failed.
//
// Views: a join view "V" over the first two tables (on x,y,z) is defined
// automatically; base tables are queryable by name.
//
//   $ ./orv_shell generate /tmp/demo
//   $ ./orv_shell /tmp/demo "SELECT COUNT(*) AS n FROM V"
//   $ ./orv_shell /tmp/demo "SELECT * FROM T1 WHERE x IN [0, 2] AND y = 0"

#include <cstdio>
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "core/catalog_io.hpp"
#include "datagen/generator.hpp"

using namespace orv;

namespace {

int generate(const std::string& dir, int argc, char** argv) {
  DatasetSpec spec;
  if (argc >= 3) {
    spec.grid.x = std::stoull(argv[0]);
    spec.grid.y = std::stoull(argv[1]);
    spec.grid.z = std::stoull(argv[2]);
    spec.part1 = {spec.grid.x / 2, spec.grid.y / 2, spec.grid.z / 2};
    spec.part2 = {spec.grid.x / 4, spec.grid.y / 4, spec.grid.z / 4};
  } else {
    spec.grid = {32, 32, 32};
    spec.part1 = {16, 16, 16};
    spec.part2 = {8, 8, 8};
  }
  spec.num_storage_nodes = 4;
  auto ds = generate_dataset(spec, dir);
  save_catalog(ds.meta, dir);
  std::printf("generated %s into %s (catalog saved)\n",
              spec.to_string().c_str(), dir.c_str());
  return 0;
}

/// Runs one query and prints its answer; returns false when it failed.
bool run_query(ViewFramework& fw, const std::string& sql) {
  try {
    if (sql.rfind("explain ", 0) == 0 || sql.rfind("EXPLAIN ", 0) == 0) {
      ClusterSpec cluster;
      cluster.num_storage = fw.stores().size();
      cluster.num_compute = fw.stores().size();
      std::printf("%s", fw.explain(sql.substr(8), &cluster).c_str());
      return true;
    }
    const SubTable rows = fw.query(sql);
    std::printf("%s\n", rows.to_string(20).c_str());
    return true;
  } catch (const Error& e) {
    std::printf("error: %s\n", e.what());
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s generate <dir> [gx gy gz]\n"
                 "       %s <dir> [\"SQL\" ...]\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (std::string(argv[1]) == "generate") {
    if (argc < 3) {
      std::fprintf(stderr, "generate needs a directory\n");
      return 2;
    }
    return generate(argv[2], argc - 3, argv + 3);
  }

  ViewFramework fw = open_dataset_dir(argv[1]);
  fw.enable_parallel_local_execution();

  // Define a convenience join view over the first two tables.
  const auto tables = fw.meta().table_ids();
  if (tables.size() >= 2) {
    fw.define_view("V", ViewDef::join(ViewDef::base(tables[0]),
                                      ViewDef::base(tables[1]),
                                      {"x", "y", "z"}));
  }
  std::printf("opened %s: %zu tables", argv[1], tables.size());
  for (const auto t : tables) {
    std::printf("  %s(%llu rows)", fw.meta().table_name(t).c_str(),
                (unsigned long long)fw.meta().table_rows(t));
  }
  std::printf("%s\n", tables.size() >= 2 ? "  view V = T1 join T2" : "");

  bool ok = true;
  if (argc > 2) {
    for (int i = 2; i < argc; ++i) {
      std::printf("> %s\n", argv[i]);
      ok = run_query(fw, argv[i]) && ok;
    }
    return ok ? 0 : 1;
  }

  std::string line;
  std::printf("orv> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (!line.empty()) ok = run_query(fw, line) && ok;
    std::printf("orv> ");
    std::fflush(stdout);
  }
  return ok ? 0 : 1;
}
