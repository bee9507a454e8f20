#include "dds/local_executor.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

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
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (std::size_t k = 0; k < key_idx.size(); ++k) {
                       const double va = in.as_double(a, key_idx[k]);
                       const double vb = in.as_double(b, key_idx[k]);
                       if (va != vb) {
                         return keys[k].descending ? va > vb : va < vb;
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
  const auto ids = meta_.find_chunks(table, ranges);

  auto load = [&](SubTableId id) {
    const auto& cm = meta_.chunk(id);
    return load_chunk(*stores_.at(cm.location.storage_node), cm, &ranges);
  };

  if (pool_ != nullptr && ids.size() > 1) {
    // Extract chunks in parallel; concatenate in id order so the result is
    // identical to the sequential path.
    std::vector<std::optional<SubTable>> parts(ids.size());
    pool_->parallel_for(ids.size(), [&](std::size_t i) {
      parts[i].emplace(load(ids[i]));
    });
    for (const auto& part : parts) all.append_rows(*part);
    return all;
  }

  for (const auto& id : ids) all.append_rows(load(id));
  return all;
}

SubTable LocalExecutor::execute_join(const ViewDef& view) const {
  const SubTable left = execute(*view.left);
  const SubTable right = execute(*view.right);
  if (pool_ == nullptr || right.num_rows() < 2048) {
    return hash_join(left, right, view.join_attrs, SubTableId{0, 0});
  }
  // Parallel probe: build once, partition the probe side, concatenate the
  // per-range outputs in range order (identical row order to sequential).
  auto left_alias = std::shared_ptr<const SubTable>(&left, [](auto*) {});
  const BuiltHashTable ht(left_alias, view.join_attrs);
  const JoinKey right_key =
      JoinKey::resolve(right.schema(), view.join_attrs);
  auto result_schema = std::make_shared<const Schema>(Schema::join_result(
      left.schema(), right.schema(), right_key.attr_indices()));
  const std::size_t parts_n = pool_->num_threads() * 4;
  const std::size_t stride = (right.num_rows() + parts_n - 1) / parts_n;
  std::vector<std::optional<SubTable>> parts(parts_n);
  pool_->parallel_for(parts_n, [&](std::size_t i) {
    const std::size_t begin = i * stride;
    const std::size_t end = std::min(right.num_rows(), begin + stride);
    parts[i].emplace(result_schema,
                     SubTableId{0, static_cast<ChunkId>(i)});
    if (begin < end) {
      ht.probe_range(right, view.join_attrs, begin, end, *parts[i]);
    }
  });
  SubTable out(result_schema, SubTableId{0, 0});
  for (const auto& part : parts) out.append_rows(*part);
  return out;
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
      out.reserve_rows(in.num_rows());
      std::vector<std::byte> row(out_schema->record_size());
      for (std::size_t r = 0; r < in.num_rows(); ++r) {
        std::size_t dst = 0;
        for (std::size_t k = 0; k < indices.size(); ++k) {
          const std::size_t sz = attr_size(in.schema().attr(indices[k]).type);
          std::memcpy(row.data() + dst,
                      in.row(r) + in.schema().offset(indices[k]), sz);
          dst += sz;
        }
        out.append_row(row);
      }
      return out;
    }

    case ViewDef::Kind::Join:
      return execute_join(view);

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
