#include "dds/distributed.hpp"

#include <cstring>

#include "common/error.hpp"
#include "dds/aggregate.hpp"
#include "dds/local_executor.hpp"
#include "qes/scan_aggregate.hpp"

namespace orv {

namespace {

/// [Select]* Aggregate [Select]* BaseTable — the single-table aggregation
/// DDS, served by the distributed scan-aggregate QES.
bool match_aggregated_scan(const ViewDef& view, AggregateQuery* query,
                           std::vector<AttrRange>* post_ranges) {
  const ViewDef* cur = &view;
  while (cur->kind == ViewDef::Kind::Select) {
    if (post_ranges) {
      post_ranges->insert(post_ranges->end(), cur->ranges.begin(),
                          cur->ranges.end());
    }
    cur = cur->input.get();
  }
  if (cur->kind != ViewDef::Kind::Aggregate) return false;
  const ViewDef* agg = cur;
  cur = cur->input.get();
  std::vector<AttrRange> pre_ranges;
  while (cur->kind == ViewDef::Kind::Select) {
    pre_ranges.insert(pre_ranges.end(), cur->ranges.begin(),
                      cur->ranges.end());
    cur = cur->input.get();
  }
  if (cur->kind != ViewDef::Kind::BaseTable) return false;
  if (query) {
    query->table = cur->table;
    query->ranges = std::move(pre_ranges);
    query->group_by = agg->group_by;
    query->aggs = agg->aggs;
  }
  return true;
}

/// [Select]* Aggregate (join-view) pattern: selections above the aggregate
/// (HAVING) collect into `post_ranges`, applied after the central merge.
bool match_aggregated_join(const ViewDef& view, JoinViewShape* shape,
                           const ViewDef** agg_node,
                           std::vector<AttrRange>* post_ranges) {
  const ViewDef* cur = &view;
  while (cur->kind == ViewDef::Kind::Select) {
    if (post_ranges) {
      post_ranges->insert(post_ranges->end(), cur->ranges.begin(),
                          cur->ranges.end());
    }
    cur = cur->input.get();
  }
  if (cur->kind != ViewDef::Kind::Aggregate) return false;
  if (!match_join_view(*cur->input, shape)) return false;
  *agg_node = cur;
  return true;
}

/// Copies `fragment` rows into `out`, applying an optional projection.
void append_fragment(const SubTable& fragment,
                     const std::vector<std::size_t>& proj_indices,
                     SubTable& out) {
  if (proj_indices.empty()) {
    for (std::size_t r = 0; r < fragment.num_rows(); ++r) {
      out.append_row({fragment.row(r), fragment.record_size()});
    }
    return;
  }
  std::vector<std::byte> row(out.record_size());
  for (std::size_t r = 0; r < fragment.num_rows(); ++r) {
    std::size_t dst = 0;
    for (std::size_t idx : proj_indices) {
      const std::size_t sz = attr_size(fragment.schema().attr(idx).type);
      std::memcpy(row.data() + dst, fragment.row(r) + fragment.schema().offset(idx),
                  sz);
      dst += sz;
    }
    out.append_row(row);
  }
}

}  // namespace

bool DistributedDds::supports(const ViewDef& view) const {
  // A top-level Sort is peeled off and applied after the distributed run.
  const ViewDef* core = &view;
  if (core->kind == ViewDef::Kind::Sort) core = core->input.get();
  JoinViewShape shape;
  const ViewDef* agg = nullptr;
  return match_join_view(*core, &shape) ||
         match_aggregated_join(*core, &shape, &agg, nullptr) ||
         match_aggregated_scan(*core, nullptr, nullptr);
}

DistributedRun DistributedDds::execute(const ViewDef& top_view,
                                       QesOptions options,
                                       SubTable* rows_out) {
  // Peel a top-level ORDER BY/LIMIT: the small materialized result sorts
  // centrally after the distributed run.
  const ViewDef* sort_node = nullptr;
  const ViewDef* view_ptr = &top_view;
  if (view_ptr->kind == ViewDef::Kind::Sort) {
    sort_node = view_ptr;
    view_ptr = view_ptr->input.get();
  }
  const ViewDef& view = *view_ptr;
  if (sort_node != nullptr && rows_out != nullptr) {
    DistributedRun run = execute(view, std::move(options), rows_out);
    *rows_out = sort_rows(*rows_out, sort_node->sort_keys, sort_node->limit);
    return run;
  }
  JoinViewShape shape;
  const ViewDef* agg_node = nullptr;
  std::vector<AttrRange> post_ranges;
  if (!match_join_view(view, &shape) &&
      !match_aggregated_join(view, &shape, &agg_node, &post_ranges)) {
    AggregateQuery scan_query;
    if (match_aggregated_scan(view, &scan_query, &post_ranges)) {
      DistributedRun run;
      SubTable table(view.output_schema(meta_), SubTableId{0, 0});
      run.qes = run_distributed_aggregate(cluster_, bds_, meta_, scan_query,
                                          options, &table);
      if (!post_ranges.empty()) {
        table = filter_rows(table, table.schema(), post_ranges);
      }
      if (rows_out != nullptr) *rows_out = std::move(table);
      return run;
    }
    throw InvalidArgument(
        "view is not a join-based DDS shape; use the LocalExecutor");
  }

  JoinQuery query;
  query.left_table = shape.left_table;
  query.right_table = shape.right_table;
  query.join_attrs = shape.join_attrs;
  query.ranges = shape.ranges;

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
      append_fragment(fragment, proj_indices, *rows_out);
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
    if (rows_out != nullptr) {
      SubTable table = merged.finish();
      if (!post_ranges.empty()) {
        table = filter_rows(table, table.schema(), post_ranges);
      }
      *rows_out = std::move(table);
    }
  }
  return run;
}

}  // namespace orv
