#include "dds/local_executor.hpp"

#include <algorithm>
#include <iterator>

#include "bds/bds.hpp"
#include "common/error.hpp"
#include "dds/aggregate.hpp"
#include "join/hash_join.hpp"

namespace orv {

SubTable sort_rows(const SubTable& in, const std::vector<SortKey>& keys,
                   std::uint64_t limit) {
  std::vector<std::size_t> key_idx;
  for (const auto& k : keys) {
    key_idx.push_back(in.schema().require_index(k.attr));
  }
  std::vector<std::size_t> order(in.num_rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Int64 keys compare as integers: widened to double, keys past 2^53
  // would tie.
  std::vector<bool> exact;
  for (std::size_t idx : key_idx) {
    exact.push_back(in.schema().attr(idx).type == AttrType::Int64);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (std::size_t k = 0; k < key_idx.size(); ++k) {
                       const std::size_t c = key_idx[k];
                       const bool desc = keys[k].descending;
                       if (exact[k]) {
                         const auto va = in.get<std::int64_t>(a, c);
                         const auto vb = in.get<std::int64_t>(b, c);
                         if (va != vb) return desc ? va > vb : va < vb;
                       } else {
                         const double va = in.as_double(a, c);
                         const double vb = in.as_double(b, c);
                         if (va != vb) return desc ? va > vb : va < vb;
                       }
                     }
                     return false;
                   });
  std::size_t n = order.size();
  if (limit > 0 && limit < n) n = limit;
  SubTable out(in.schema_ptr(), in.id());
  out.reserve_rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.append_row({in.row(order[i]), in.record_size()});
  }
  return out;
}

SubTable LocalExecutor::scan(TableId table,
                             const std::vector<AttrRange>& ranges) const {
  const auto schema = meta_.table_schema(table);
  SubTable all(schema, SubTableId{table, 0});
  // Chunk-level pruning via the R-tree, then record-level filtering.
  for (const auto& id : meta_.find_chunks(table, ranges)) {
    all.append_rows(load(id, ranges));
  }
  return all;
}

SubTable LocalExecutor::load(SubTableId id,
                             const std::vector<AttrRange>& ranges) const {
  const ChunkMeta& cm = meta_.chunk(id);
  return load_chunk(*stores_.at(cm.location.storage_node), cm, &ranges);
}

ConnectivityGraph LocalExecutor::join_graph(
    TableId left, const std::vector<AttrRange>& left_ranges, TableId right,
    const std::vector<AttrRange>& right_ranges,
    const std::vector<std::string>& attrs) const {
  return ConnectivityGraph::build(meta_, left, left_ranges, right,
                                  right_ranges, attrs);
}

bool LocalExecutor::join_pairs(const ViewDef& join,
                               const PairSink& sink) const {
  TableId lt = 0, rt = 0;
  std::vector<AttrRange> lr, rr;
  if (!match_selected_base(*join.left, &lt, &lr) ||
      !match_selected_base(*join.right, &rt, &rr)) {
    return false;
  }
  const auto& attrs = join.join_attrs;
  ORV_REQUIRE(
      JoinKey::resolve(*meta_.table_schema(lt), attrs)
          .compatible_with(JoinKey::resolve(*meta_.table_schema(rt), attrs)),
      "join key type mismatch");
  // A range on a join attribute selects both sides: matched rows have
  // equal keys.
  const auto is_key = [&](const AttrRange& r) {
    return std::find(attrs.begin(), attrs.end(), r.attr) != attrs.end();
  };
  const std::size_t own = lr.size();
  std::copy_if(rr.begin(), rr.end(), std::back_inserter(lr), is_key);
  std::copy_if(lr.begin(), lr.begin() + own, std::back_inserter(rr), is_key);

  PairJoin pairs(join.output_schema(meta_), attrs);
  const ConnectivityGraph graph = join_graph(lt, lr, rt, rr, attrs);
  for (const Component& c : graph.components()) {
    std::vector<SubTable> rights;
    for (const SubTableId id : c.right_subtables) {
      rights.push_back(load(id, rr));
    }
    // Pairs are sorted, so each left sub-table's pairs are adjacent: it is
    // loaded and its table built once, then dropped when the next starts.
    std::shared_ptr<const BuiltHashTable> table;
    for (const SubTablePair& p : c.pairs) {
      if (!table || table->left().id() != p.left) {
        table = pairs.build(std::make_shared<const SubTable>(load(p.left, lr)));
      }
      const auto at = std::lower_bound(c.right_subtables.begin(),
                                       c.right_subtables.end(), p.right);
      sink(pairs.probe(*table, rights[at - c.right_subtables.begin()], {}));
    }
  }
  return true;
}

SubTable LocalExecutor::execute(const ViewDef& view) const {
  switch (view.kind) {
    case ViewDef::Kind::BaseTable:
      return scan(view.table, {});

    case ViewDef::Kind::Select: {
      // Push selection into a base-table scan when possible.
      if (view.input->kind == ViewDef::Kind::BaseTable) {
        return scan(view.input->table, view.ranges);
      }
      return filter_rows(execute(*view.input), view.ranges);
    }

    case ViewDef::Kind::Project: {
      const SubTable in = execute(*view.input);
      const auto out_schema = view.output_schema(meta_);
      std::vector<std::size_t> indices;
      for (const auto& c : view.columns) {
        indices.push_back(in.schema().require_index(c));
      }
      SubTable out(out_schema, in.id());
      append_projected(in, indices, out);
      return out;
    }

    case ViewDef::Kind::Join: {
      SubTable out(view.output_schema(meta_), SubTableId{0, 0});
      if (join_pairs(view, [&](const SubTable& part) {
            out.append_rows(part);
          })) {
        return out;
      }
      return hash_join(execute(*view.left), execute(*view.right),
                       view.join_attrs, SubTableId{0, 0});
    }

    case ViewDef::Kind::Aggregate: {
      GroupByAggregator agg(view.input->output_schema(meta_), view.group_by,
                            view.aggs);
      const auto consume = [&](const SubTable& part) { agg.consume(part); };
      if (view.input->kind != ViewDef::Kind::Join ||
          !join_pairs(*view.input, consume)) {
        agg.consume(execute(*view.input));
      }
      return agg.finish();
    }

    case ViewDef::Kind::Sort: {
      const SubTable in = execute(*view.input);
      return sort_rows(in, view.sort_keys, view.limit);
    }
  }
  throw Error("unreachable view kind in LocalExecutor");
}

}  // namespace orv
