#include "dds/view_def.hpp"

#include "common/error.hpp"
#include "join/key.hpp"

namespace orv {

const char* AggSpec::fn_name(Fn fn) {
  switch (fn) {
    case Fn::Sum: return "SUM";
    case Fn::Avg: return "AVG";
    case Fn::Min: return "MIN";
    case Fn::Max: return "MAX";
    case Fn::Count: return "COUNT";
  }
  return "?";
}

ViewPtr ViewDef::base(TableId table) {
  auto v = std::make_shared<ViewDef>();
  v->kind = Kind::BaseTable;
  v->table = table;
  return v;
}

ViewPtr ViewDef::select(ViewPtr input, std::vector<AttrRange> ranges) {
  ORV_REQUIRE(input != nullptr, "select needs an input view");
  auto v = std::make_shared<ViewDef>();
  v->kind = Kind::Select;
  v->input = std::move(input);
  v->ranges = std::move(ranges);
  return v;
}

ViewPtr ViewDef::project(ViewPtr input, std::vector<std::string> columns) {
  ORV_REQUIRE(input != nullptr, "project needs an input view");
  ORV_REQUIRE(!columns.empty(), "project needs at least one column");
  auto v = std::make_shared<ViewDef>();
  v->kind = Kind::Project;
  v->input = std::move(input);
  v->columns = std::move(columns);
  return v;
}

ViewPtr ViewDef::join(ViewPtr left, ViewPtr right,
                      std::vector<std::string> attrs) {
  ORV_REQUIRE(left != nullptr && right != nullptr, "join needs two inputs");
  ORV_REQUIRE(!attrs.empty(), "join needs key attributes");
  auto v = std::make_shared<ViewDef>();
  v->kind = Kind::Join;
  v->left = std::move(left);
  v->right = std::move(right);
  v->join_attrs = std::move(attrs);
  return v;
}

ViewPtr ViewDef::aggregate(ViewPtr input, std::vector<std::string> group_by,
                           std::vector<AggSpec> aggs) {
  ORV_REQUIRE(input != nullptr, "aggregate needs an input view");
  ORV_REQUIRE(!aggs.empty(), "aggregate needs at least one aggregate");
  auto v = std::make_shared<ViewDef>();
  v->kind = Kind::Aggregate;
  v->input = std::move(input);
  v->group_by = std::move(group_by);
  v->aggs = std::move(aggs);
  return v;
}

ViewPtr ViewDef::sort(ViewPtr input, std::vector<SortKey> keys,
                      std::uint64_t limit) {
  ORV_REQUIRE(input != nullptr, "sort needs an input view");
  ORV_REQUIRE(!keys.empty() || limit > 0,
              "sort needs at least one key or a limit");
  auto v = std::make_shared<ViewDef>();
  v->kind = Kind::Sort;
  v->input = std::move(input);
  v->sort_keys = std::move(keys);
  v->limit = limit;
  return v;
}

SchemaPtr ViewDef::output_schema(const MetaDataService& meta) const {
  switch (kind) {
    case Kind::BaseTable:
      return meta.table_schema(table);
    case Kind::Select:
      return input->output_schema(meta);
    case Kind::Sort: {
      const auto in = input->output_schema(meta);
      for (const auto& k : sort_keys) in->require_index(k.attr);  // validate
      return in;
    }
    case Kind::Project: {
      const auto in = input->output_schema(meta);
      std::vector<std::size_t> indices;
      for (const auto& c : columns) indices.push_back(in->require_index(c));
      return std::make_shared<const Schema>(in->project(indices));
    }
    case Kind::Join: {
      const auto ls = left->output_schema(meta);
      const auto rs = right->output_schema(meta);
      const JoinKey rkey = JoinKey::resolve(*rs, join_attrs);
      return std::make_shared<const Schema>(
          Schema::join_result(*ls, *rs, rkey.attr_indices()));
    }
    case Kind::Aggregate: {
      const auto in = input->output_schema(meta);
      std::vector<Attribute> attrs;
      for (const auto& g : group_by) {
        attrs.push_back(in->attr(in->require_index(g)));
      }
      for (const auto& a : aggs) {
        if (a.fn != AggSpec::Fn::Count) in->require_index(a.attr);  // validate
        attrs.push_back(Attribute{a.as, AttrType::Float64});
      }
      return std::make_shared<const Schema>(Schema(std::move(attrs)));
    }
  }
  throw Error("unreachable view kind");
}

std::string ViewDef::to_string(const MetaDataService& meta) const {
  switch (kind) {
    case Kind::BaseTable:
      return meta.table_name(table);
    case Kind::Sort: {
      std::string s = "tau[";
      for (std::size_t i = 0; i < sort_keys.size(); ++i) {
        if (i) s += ",";
        s += sort_keys[i].attr;
        if (sort_keys[i].descending) s += " desc";
      }
      if (limit) s += ";limit " + std::to_string(limit);
      return s + "](" + input->to_string(meta) + ")";
    }
    case Kind::Select: {
      std::string s = "sigma[";
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (i) s += ",";
        s += ranges[i].attr + " in [" + std::to_string(ranges[i].range.lo) +
             "," + std::to_string(ranges[i].range.hi) + "]";
      }
      return s + "](" + input->to_string(meta) + ")";
    }
    case Kind::Project: {
      std::string s = "pi[";
      for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i) s += ",";
        s += columns[i];
      }
      return s + "](" + input->to_string(meta) + ")";
    }
    case Kind::Join: {
      std::string s = "(" + left->to_string(meta) + " join[";
      for (std::size_t i = 0; i < join_attrs.size(); ++i) {
        if (i) s += ",";
        s += join_attrs[i];
      }
      return s + "] " + right->to_string(meta) + ")";
    }
    case Kind::Aggregate: {
      std::string s = "gamma[";
      for (std::size_t i = 0; i < group_by.size(); ++i) {
        if (i) s += ",";
        s += group_by[i];
      }
      s += ";";
      for (std::size_t i = 0; i < aggs.size(); ++i) {
        if (i) s += ",";
        s += std::string(AggSpec::fn_name(aggs[i].fn)) + "(" + aggs[i].attr +
             ")";
      }
      return s + "](" + input->to_string(meta) + ")";
    }
  }
  return "?";
}

bool match_selected_base(const ViewDef& v, TableId* table,
                         std::vector<AttrRange>* ranges) {
  const ViewDef* cur = &v;
  while (cur->kind == ViewDef::Kind::Select) {
    ranges->insert(ranges->end(), cur->ranges.begin(), cur->ranges.end());
    cur = cur->input.get();
  }
  if (cur->kind != ViewDef::Kind::BaseTable) return false;
  *table = cur->table;
  return true;
}

bool match_join_view(const ViewDef& view, JoinViewShape* shape) {
  const ViewDef* cur = &view;
  JoinViewShape out;
  if (cur->kind == ViewDef::Kind::Project) {
    out.projection = cur->columns;
    cur = cur->input.get();
  }
  while (cur->kind == ViewDef::Kind::Select) {
    out.ranges.insert(out.ranges.end(), cur->ranges.begin(),
                      cur->ranges.end());
    cur = cur->input.get();
  }
  if (cur->kind != ViewDef::Kind::Join) return false;
  out.join_attrs = cur->join_attrs;
  if (!match_selected_base(*cur->left, &out.left_table, &out.ranges)) {
    return false;
  }
  if (!match_selected_base(*cur->right, &out.right_table, &out.ranges)) {
    return false;
  }
  if (shape) *shape = std::move(out);
  return true;
}

}  // namespace orv
