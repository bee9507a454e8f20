#pragma once

// Group-by aggregation engine (the paper's future-work view extension:
// "view definition may involve aggregation operations such as AVG or SUM").
//
// Accumulators are mergeable (sum/count/min/max), so the distributed path
// can aggregate partial join results at compute nodes and merge centrally.

#include <unordered_map>
#include <vector>

#include "dds/view_def.hpp"
#include "join/key.hpp"
#include "subtable/subtable.hpp"

namespace orv {

class GroupByAggregator {
 public:
  /// `group_by` may be empty (single global group).
  GroupByAggregator(SchemaPtr input_schema,
                    std::vector<std::string> group_by,
                    std::vector<AggSpec> aggs);

  /// Folds every row of `rows` (schema must equal the input schema).
  void consume(const SubTable& rows);

  /// Merges another aggregator over the same spec into this one.
  void merge(const GroupByAggregator& other);

  /// One output row per group: group columns followed by aggregate values
  /// (f64). Deterministic order (sorted by group key lanes).
  SubTable finish(SubTableId id = SubTableId{0, 0}) const;

  SchemaPtr output_schema() const { return output_schema_; }
  std::size_t num_groups() const { return groups_.size(); }

  /// Size of the serialized partial state (what the distributed
  /// scan-aggregate ships to the coordinator): per group, its key lanes +
  /// key values + accumulators.
  std::size_t estimated_state_bytes() const {
    return groups_.size() *
           (8 + group_indices_.size() * 16 + aggs_.size() * sizeof(Acc));
  }

 private:
  struct Acc {
    double sum = 0;
    std::uint64_t count = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  struct Group {
    std::vector<std::uint64_t> key_lanes;
    /// The first row's group-by cells, laid out as the output record's
    /// prefix, so finish() writes every key exactly as it was read.
    std::vector<std::byte> key_bytes;
    std::vector<Acc> accs;  // one per AggSpec
  };

  double acc_result(const Acc& acc, AggSpec::Fn fn) const;

  SchemaPtr input_schema_;
  std::vector<std::string> group_names_;
  std::vector<std::size_t> group_indices_;
  std::vector<AggSpec> aggs_;
  std::vector<std::size_t> agg_indices_;  // input column per agg (or npos)
  SchemaPtr output_schema_;
  std::unordered_map<std::uint64_t, Group> groups_;  // hash -> group
};

}  // namespace orv
