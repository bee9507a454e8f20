#include "dds/local_executor.hpp"

#include <algorithm>

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
    const auto& cm = meta_.chunk(id);
    all.append_rows(
        load_chunk(*stores_.at(cm.location.storage_node), cm, &ranges));
  }
  return all;
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
      SubTable in = execute(*view.input);
      return filter_rows(in, view.ranges);
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
      const SubTable left = execute(*view.left);
      const SubTable right = execute(*view.right);
      return hash_join(left, right, view.join_attrs, SubTableId{0, 0});
    }

    case ViewDef::Kind::Aggregate: {
      const SubTable in = execute(*view.input);
      GroupByAggregator agg(in.schema_ptr(), view.group_by, view.aggs);
      agg.consume(in);
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
