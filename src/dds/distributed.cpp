#include "dds/distributed.hpp"

#include "common/error.hpp"
#include "dds/aggregate.hpp"
#include "dds/local_executor.hpp"

namespace orv {

DdsShape match_dds_view(const ViewDef& view) {
  DdsShape shape;
  const ViewDef* cur = &view;
  if (cur->kind == ViewDef::Kind::Sort) {
    shape.sort = cur;
    cur = cur->input.get();
  }
  if (match_join_view(*cur, &shape.join)) {
    shape.kind = DdsShape::Kind::JoinView;
    return shape;
  }
  while (cur->kind == ViewDef::Kind::Select) {
    shape.post_ranges.insert(shape.post_ranges.end(), cur->ranges.begin(),
                             cur->ranges.end());
    cur = cur->input.get();
  }
  if (cur->kind != ViewDef::Kind::Aggregate) return {};
  shape.aggregate = cur;
  if (match_join_view(*cur->input, &shape.join)) {
    shape.kind = DdsShape::Kind::AggregatedJoin;
    return shape;
  }
  // A single-table aggregation: the distributed scan-aggregate QES.
  cur = cur->input.get();
  while (cur->kind == ViewDef::Kind::Select) {
    shape.scan.ranges.insert(shape.scan.ranges.end(), cur->ranges.begin(),
                             cur->ranges.end());
    cur = cur->input.get();
  }
  if (cur->kind != ViewDef::Kind::BaseTable) return {};
  shape.kind = DdsShape::Kind::AggregatedScan;
  shape.scan.table = cur->table;
  shape.scan.group_by = shape.aggregate->group_by;
  shape.scan.aggs = shape.aggregate->aggs;
  return shape;
}

DistributedRun DistributedDds::execute(const ViewDef& view,
                                       QesOptions options,
                                       SubTable* rows_out) {
  const DdsShape shape = match_dds_view(view);
  DistributedRun run;
  switch (shape.kind) {
    case DdsShape::Kind::Local:
      throw InvalidArgument(
          "view is not a join-based DDS shape; use the LocalExecutor");
    case DdsShape::Kind::AggregatedScan: {
      SubTable table(view.output_schema(meta_), SubTableId{0, 0});
      run.qes = run_distributed_aggregate(cluster_, bds_, meta_, shape.scan,
                                          options, &table);
      if (rows_out != nullptr) *rows_out = std::move(table);
      break;
    }
    default:
      run = run_join(shape, std::move(options), rows_out);
  }
  // The small materialized result takes HAVING and then a top-level
  // ORDER BY/LIMIT centrally.
  if (rows_out != nullptr) {
    if (!shape.post_ranges.empty()) {
      *rows_out = filter_rows(*rows_out, shape.post_ranges);
    }
    if (shape.sort != nullptr) {
      *rows_out =
          sort_rows(*rows_out, shape.sort->sort_keys, shape.sort->limit);
    }
  }
  return run;
}

DistributedRun DistributedDds::run_join(const DdsShape& dds_shape,
                                        QesOptions options,
                                        SubTable* rows_out) {
  const JoinViewShape& shape = dds_shape.join;
  const ViewDef* agg_node = dds_shape.aggregate;
  const JoinQuery query{shape.left_table, shape.right_table, shape.join_attrs,
                        shape.ranges};

  // Result schema of the raw join (before projection/aggregation).
  const auto left_schema = meta_.table_schema(query.left_table);
  const auto right_schema = meta_.table_schema(query.right_table);
  const JoinKey right_key = JoinKey::resolve(*right_schema, query.join_attrs);
  const auto join_schema = std::make_shared<const Schema>(Schema::join_result(
      *left_schema, *right_schema, right_key.attr_indices()));

  // Node-side hooks: aggregation or materialization.
  std::vector<std::unique_ptr<GroupByAggregator>> node_aggs(
      cluster_.num_compute());
  std::vector<std::size_t> proj_indices;
  if (agg_node == nullptr && rows_out != nullptr) {
    SchemaPtr out_schema = join_schema;
    if (!shape.projection.empty()) {
      std::vector<std::size_t> indices;
      for (const auto& c : shape.projection) {
        indices.push_back(join_schema->require_index(c));
      }
      out_schema =
          std::make_shared<const Schema>(join_schema->project(indices));
      proj_indices = std::move(indices);
    }
    *rows_out = SubTable(out_schema, SubTableId{0, 0});
    options.result_sink = [rows_out, &proj_indices](
                              std::size_t, const SubTable& fragment) {
      if (proj_indices.empty()) {
        rows_out->append_rows(fragment);
      } else {
        append_projected(fragment, proj_indices, *rows_out);
      }
    };
  } else if (agg_node != nullptr) {
    for (auto& a : node_aggs) {
      a = std::make_unique<GroupByAggregator>(join_schema, agg_node->group_by,
                                              agg_node->aggs);
    }
    options.result_sink = [&node_aggs](std::size_t node,
                                       const SubTable& fragment) {
      node_aggs.at(node)->consume(fragment);
    };
  }

  // Plan and run through the session; its graph comes from the
  // precomputed page-level join index (built once per join-attribute set,
  // then range-pruned per query).
  QesSession::Outcome outcome = session_.run(query, std::move(options));
  DistributedRun run;
  run.decision = std::move(outcome.plan);
  run.qes = std::move(outcome.result);
  run.graph_stats =
      outcome.graph->stats(meta_, query.left_table, query.right_table);

  if (agg_node != nullptr) {
    GroupByAggregator merged(join_schema, agg_node->group_by, agg_node->aggs);
    for (const auto& a : node_aggs) merged.merge(*a);
    if (rows_out != nullptr) *rows_out = merged.finish();
  }
  return run;
}

}  // namespace orv
