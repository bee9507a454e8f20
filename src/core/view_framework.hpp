#pragma once

// ViewFramework: the library's top-level facade (the paper's "view
// creation framework", Figure 2).
//
// It wires the MetaData Service, chunk stores, Basic Data Source Service,
// view registry, query parser and the two execution paths:
//  - local: any view tree, executed in-process against the flat files. A
//    join of (range-selected) base tables walks the page-level join index
//    one component at a time, so only one component's chunks are
//    resident (the paper's memory contract), and its rows come out in
//    component order: add ORDER BY where the order matters;
//  - distributed: join-based DDS views, planned by the QPS cost models and
//    executed by the IJ/GH QES on a simulated cluster.
//
// Typical use (see examples/quickstart.cpp):
//   ViewFramework fw(std::move(dataset.meta), dataset.stores);
//   fw.define_view("V1", ViewDef::join(ViewDef::base(t1),
//                                      ViewDef::base(t2), {"x","y","z"}));
//   SubTable rows = fw.query("SELECT * FROM V1 WHERE x IN [0, 16]");

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dds/distributed.hpp"
#include "dds/local_executor.hpp"
#include "dds/view_def.hpp"
#include "query/parser.hpp"

namespace orv {

class ViewFramework {
 public:
  ViewFramework(MetaDataService meta,
                std::vector<std::shared_ptr<ChunkStore>> stores);

  const MetaDataService& meta() const { return meta_; }
  const std::vector<std::shared_ptr<ChunkStore>>& stores() const {
    return stores_;
  }

  /// Registers a named view over the catalog.
  void define_view(const std::string& name, ViewPtr view);

  bool has_view(const std::string& name) const;
  ViewPtr view(const std::string& name) const;

  /// Resolves a FROM target: a view name, else a base-table name.
  ViewPtr resolve(const std::string& name) const;

  /// Parses and locally executes a query.
  SubTable query(const std::string& sql) const;

  /// Parses a query and returns the bound operator tree (for inspection or
  /// distributed execution).
  ViewPtr bind(const std::string& sql) const;

  /// Human-readable plan: the operator tree, the output schema, and — if a
  /// cluster spec is given and the query binds to a distributed DDS shape —
  /// the connectivity-graph stats and the QPS cost-model decision.
  std::string explain(const std::string& sql,
                      const ClusterSpec* cluster_spec = nullptr) const;

  /// Plans and executes a join-based view on a simulated cluster; returns
  /// the planner decision and virtual-time result. `rows_out`, if not
  /// null, receives the materialized rows (or aggregate table).
  DistributedRun query_distributed(const std::string& sql,
                                   const ClusterSpec& cluster_spec,
                                   SubTable* rows_out = nullptr,
                                   QesOptions options = {}) const;

 private:
  MetaDataService meta_;
  std::vector<std::shared_ptr<ChunkStore>> stores_;
  LocalExecutor local_;
  std::map<std::string, ViewPtr> views_;
};

}  // namespace orv
