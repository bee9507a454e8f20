#include "dds/aggregate.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace orv {

namespace {
constexpr std::size_t kNoAttr = static_cast<std::size_t>(-1);
}

GroupByAggregator::GroupByAggregator(SchemaPtr input_schema,
                                     std::vector<std::string> group_by,
                                     std::vector<AggSpec> aggs)
    : input_schema_(std::move(input_schema)),
      group_names_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  ORV_REQUIRE(input_schema_ != nullptr, "aggregator needs an input schema");
  ORV_REQUIRE(!aggs_.empty(), "aggregator needs at least one aggregate");
  std::vector<Attribute> out_attrs;
  for (const auto& g : group_names_) {
    const std::size_t idx = input_schema_->require_index(g);
    group_indices_.push_back(idx);
    out_attrs.push_back(input_schema_->attr(idx));
  }
  for (const auto& a : aggs_) {
    if (a.fn == AggSpec::Fn::Count) {
      agg_indices_.push_back(kNoAttr);
    } else {
      agg_indices_.push_back(input_schema_->require_index(a.attr));
    }
    ORV_REQUIRE(!a.as.empty(), "aggregate output needs a name");
    out_attrs.push_back(Attribute{a.as, AttrType::Float64});
  }
  output_schema_ = Schema::make(std::move(out_attrs));
}

void GroupByAggregator::consume(const SubTable& rows) {
  ORV_REQUIRE(rows.schema() == *input_schema_,
              "aggregator input schema mismatch");
  const Schema& schema = *input_schema_;
  const std::size_t rs = rows.record_size();
  // Every cell is read straight from the record bytes, and one lanes
  // buffer serves every row.
  std::vector<std::uint64_t> lanes(group_indices_.size());
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    const std::byte* rec = rows.bytes().data() + r * rs;
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t k = 0; k < group_indices_.size(); ++k) {
      const std::size_t gi = group_indices_[k];
      lanes[k] =
          key_lane_from_bytes(schema.attr(gi).type, rec + schema.offset(gi));
      h = hash_combine(h, lanes[k]);
    }
    auto [it, inserted] = groups_.try_emplace(h);
    Group& group = it->second;
    if (inserted) {
      group.key_lanes = lanes;
      for (std::size_t gi : group_indices_) {
        group.key_values.push_back(as_double_from_bytes(
            schema.attr(gi).type, rec + schema.offset(gi)));
      }
      group.accs.resize(aggs_.size());
    } else {
      ORV_CHECK(group.key_lanes == lanes,
                "group-by hash collision; not supported at this scale");
    }
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      Acc& acc = group.accs[a];
      ++acc.count;
      const std::size_t ai = agg_indices_[a];
      if (ai != kNoAttr) {
        const double v = as_double_from_bytes(schema.attr(ai).type,
                                              rec + schema.offset(ai));
        acc.sum += v;
        acc.min = std::min(acc.min, v);
        acc.max = std::max(acc.max, v);
      }
    }
  }
}

void GroupByAggregator::merge(const GroupByAggregator& other) {
  ORV_REQUIRE(*output_schema_ == *other.output_schema_,
              "cannot merge aggregators with different specs");
  for (const auto& [h, og] : other.groups_) {
    auto [it, inserted] = groups_.try_emplace(h);
    Group& group = it->second;
    if (inserted) {
      group = og;
      continue;
    }
    ORV_CHECK(group.key_lanes == og.key_lanes,
              "group-by hash collision during merge");
    for (std::size_t a = 0; a < group.accs.size(); ++a) {
      group.accs[a].sum += og.accs[a].sum;
      group.accs[a].count += og.accs[a].count;
      group.accs[a].min = std::min(group.accs[a].min, og.accs[a].min);
      group.accs[a].max = std::max(group.accs[a].max, og.accs[a].max);
    }
  }
}

double GroupByAggregator::acc_result(const Acc& acc, AggSpec::Fn fn) const {
  switch (fn) {
    case AggSpec::Fn::Sum: return acc.sum;
    case AggSpec::Fn::Avg:
      return acc.count ? acc.sum / static_cast<double>(acc.count) : 0.0;
    case AggSpec::Fn::Min: return acc.min;
    case AggSpec::Fn::Max: return acc.max;
    case AggSpec::Fn::Count: return static_cast<double>(acc.count);
  }
  throw Error("unreachable aggregate fn");
}

SubTable GroupByAggregator::finish(SubTableId id) const {
  // Deterministic output order: sort groups by key lanes.
  std::vector<const Group*> ordered;
  ordered.reserve(groups_.size());
  for (const auto& [h, g] : groups_) ordered.push_back(&g);
  std::sort(ordered.begin(), ordered.end(),
            [](const Group* a, const Group* b) {
              return a->key_lanes < b->key_lanes;
            });

  SubTable out(output_schema_, id);
  std::vector<Value> row;
  for (const Group* g : ordered) {
    row.clear();
    for (std::size_t k = 0; k < group_indices_.size(); ++k) {
      // Re-encode the group value with its original attribute type.
      const AttrType t = output_schema_->attr(k).type;
      switch (t) {
        case AttrType::Int32:
          row.push_back(Value(static_cast<std::int32_t>(g->key_values[k])));
          break;
        case AttrType::Int64:
          row.push_back(Value(static_cast<std::int64_t>(g->key_values[k])));
          break;
        case AttrType::Float32:
          row.push_back(Value(static_cast<float>(g->key_values[k])));
          break;
        case AttrType::Float64:
          row.push_back(Value(g->key_values[k]));
          break;
      }
    }
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      row.push_back(Value(acc_result(g->accs[a], aggs_[a].fn)));
    }
    out.append_values(row);
  }
  return out;
}

}  // namespace orv
