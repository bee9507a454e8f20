#pragma once

// View definitions for Derived Data Sources (paper Sections 1, 2, 4).
//
// A view is an operator tree over virtual tables: selection (range),
// projection, equi-join and aggregation (the paper's future-work
// extension). The simplest DDS — a join-based view like
// V1 = T1 (+)_xy T2 WHERE x in [0,256] — is the Join/Select shape the
// distributed executors optimize; arbitrary trees run on the local
// executor.

#include <memory>
#include <string>
#include <vector>

#include "meta/metadata.hpp"

namespace orv {

struct ViewDef;
using ViewPtr = std::shared_ptr<const ViewDef>;

struct AggSpec {
  enum class Fn { Sum, Avg, Min, Max, Count };
  Fn fn = Fn::Sum;
  std::string attr;  // ignored for Count
  std::string as;    // output column name

  static const char* fn_name(Fn fn);
};

struct SortKey {
  std::string attr;
  bool descending = false;
};

struct ViewDef {
  enum class Kind { BaseTable, Select, Project, Join, Aggregate, Sort };

  Kind kind = Kind::BaseTable;

  // BaseTable
  TableId table = 0;

  // Select / Project / Aggregate input; Join uses left+right.
  ViewPtr input;
  ViewPtr left;
  ViewPtr right;

  // Select
  std::vector<AttrRange> ranges;

  // Project
  std::vector<std::string> columns;

  // Join
  std::vector<std::string> join_attrs;

  // Aggregate
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;

  // Sort
  std::vector<SortKey> sort_keys;
  std::uint64_t limit = 0;  // 0 = no limit

  // ---- factories ----
  static ViewPtr base(TableId table);
  static ViewPtr select(ViewPtr input, std::vector<AttrRange> ranges);
  static ViewPtr project(ViewPtr input, std::vector<std::string> columns);
  static ViewPtr join(ViewPtr left, ViewPtr right,
                      std::vector<std::string> attrs);
  static ViewPtr aggregate(ViewPtr input, std::vector<std::string> group_by,
                           std::vector<AggSpec> aggs);

  /// ORDER BY keys [LIMIT n]; keys may be empty when only limiting.
  static ViewPtr sort(ViewPtr input, std::vector<SortKey> keys,
                      std::uint64_t limit = 0);

  /// Output schema of this view given the base tables' schemas.
  SchemaPtr output_schema(const MetaDataService& meta) const;

  /// Pretty operator-tree dump.
  std::string to_string(const MetaDataService& meta) const;
};

/// The canonical distributed-DDS shape: an equi-join of two (optionally
/// range-selected) base tables, possibly under further selection and/or
/// projection. Extracted so the Query Planning Service can hand it to the
/// IJ/GH Query Execution Services.
struct JoinViewShape {
  TableId left_table = 0;
  TableId right_table = 0;
  std::vector<std::string> join_attrs;
  std::vector<AttrRange> ranges;          // merged from all Select layers
  std::vector<std::string> projection;    // empty = all columns
};

/// Peels Select layers off a base table, appending their ranges to
/// `ranges`; false when `v` is not a (selected) base table.
bool match_selected_base(const ViewDef& v, TableId* table,
                         std::vector<AttrRange>* ranges);

/// Attempts to recognize `view` as a JoinViewShape; returns false if the
/// tree has a different shape (local execution still works).
bool match_join_view(const ViewDef& view, JoinViewShape* shape);

}  // namespace orv
