#include "core/view_framework.hpp"

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace orv {

ViewFramework::ViewFramework(MetaDataService meta,
                             std::vector<std::shared_ptr<ChunkStore>> stores)
    : meta_(std::move(meta)),
      stores_(std::move(stores)),
      local_(meta_, stores_) {}

void ViewFramework::define_view(const std::string& name, ViewPtr view) {
  ORV_REQUIRE(view != nullptr, "cannot define a null view");
  ORV_REQUIRE(!meta_.has_table(name),
              "view name '" + name + "' collides with a base table");
  // Validate the tree against the catalog now, not at first query.
  view->output_schema(meta_);
  views_[name] = std::move(view);
}

bool ViewFramework::has_view(const std::string& name) const {
  return views_.count(name) > 0;
}

ViewPtr ViewFramework::view(const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) throw NotFound("no view named '" + name + "'");
  return it->second;
}

ViewPtr ViewFramework::resolve(const std::string& name) const {
  auto it = views_.find(name);
  if (it != views_.end()) return it->second;
  if (meta_.has_table(name)) {
    return ViewDef::base(meta_.table_by_name(name));
  }
  throw NotFound("FROM target '" + name + "' is neither a view nor a table");
}

ViewPtr ViewFramework::bind(const std::string& sql) const {
  const ParsedQuery parsed = parse_query(sql);
  return bind_query(parsed, resolve(parsed.from), meta_);
}

SubTable ViewFramework::query(const std::string& sql) const {
  return local_.execute(*bind(sql));
}

std::string ViewFramework::explain(const std::string& sql,
                                   const ClusterSpec* cluster_spec) const {
  const ViewPtr bound = bind(sql);
  std::string out = "plan:   " + bound->to_string(meta_) + "\n";
  out += "schema: " + bound->output_schema(meta_)->to_string() + "\n";

  const DdsShape dds = match_dds_view(*bound);
  if (dds.kind == DdsShape::Kind::Local) {
    return out + "exec:   local executor\n";
  }
  if (dds.kind == DdsShape::Kind::AggregatedScan) {
    return out + "exec:   distributed scan-aggregate\n";
  }
  out += dds.kind == DdsShape::Kind::JoinView
             ? "exec:   distributed join view (or local)\n"
             : "exec:   distributed aggregate over join view\n";

  if (cluster_spec != nullptr) {
    const JoinViewShape& shape = dds.join;
    const auto graph =
        local_.join_graph(shape.left_table, shape.ranges, shape.right_table,
                          shape.ranges, shape.join_attrs);
    out += "graph:  " +
           graph.stats(meta_, shape.left_table, shape.right_table)
               .to_string() +
           "\n";
    QueryPlanner planner(*cluster_spec);
    JoinQuery jq{shape.left_table, shape.right_table, shape.join_attrs,
                 shape.ranges};
    out += "qps:    " + planner.plan(meta_, graph, jq).to_string() + "\n";
  }
  return out;
}

DistributedRun ViewFramework::query_distributed(const std::string& sql,
                                                const ClusterSpec& cluster_spec,
                                                SubTable* rows_out,
                                                QesOptions options) const {
  ORV_REQUIRE(cluster_spec.num_storage == stores_.size(),
              "cluster spec storage-node count must match the dataset's");
  const ViewPtr bound = bind(sql);

  sim::Engine engine;
  Cluster cluster(engine, cluster_spec);
  BdsService bds(cluster, meta_,
                 std::vector<std::shared_ptr<ChunkStore>>(stores_));
  DistributedDds dds(cluster, bds, meta_);
  return dds.execute(*bound, std::move(options), rows_out);
}

}  // namespace orv
