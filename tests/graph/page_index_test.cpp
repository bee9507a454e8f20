// Page-level join index service: caching and range pruning equivalence.

#include "graph/page_index.hpp"

#include <gtest/gtest.h>

#include "datagen/generator.hpp"

namespace orv {
namespace {

GeneratedDataset make_ds() {
  DatasetSpec spec;
  spec.grid = {16, 16, 16};
  spec.part1 = {4, 4, 4};
  spec.part2 = {4, 4, 4};
  spec.num_storage_nodes = 2;
  return generate_dataset(spec);
}

TEST(PageIndex, BuildsOncePerKey) {
  auto ds = make_ds();
  PageIndexService svc(ds.meta);
  const auto& g1 = svc.full_graph(1, 2, {"x", "y", "z"});
  const auto& g2 = svc.full_graph(1, 2, {"x", "y", "z"});
  EXPECT_EQ(&g1, &g2);
  EXPECT_EQ(svc.builds(), 1u);
  EXPECT_EQ(svc.hits(), 1u);
  svc.full_graph(1, 2, {"x", "y"});  // different key
  EXPECT_EQ(svc.builds(), 2u);
  EXPECT_EQ(svc.num_cached(), 2u);
}

TEST(PageIndex, PrunedGraphEqualsDirectBuild) {
  auto ds = make_ds();
  PageIndexService svc(ds.meta);
  const std::vector<std::string> attrs = {"x", "y", "z"};
  const std::vector<std::vector<AttrRange>> cases = {
      {{"x", {0, 7}}, {"y", {4, 11}}},
      {{"x", {0, 7}}},                     // a single attribute
      {{"wp", {0.0, 0.5}}, {"z", {0, 3}}},  // wp: only the right table has it
      {{"x", {100, 200}}},                 // selects nothing
      {},                                  // unconstrained
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i);
    const auto& ranges = cases[i];
    const auto& pruned = svc.pruned_graph(1, 2, attrs, ranges);
    const auto direct = ConnectivityGraph::build(ds.meta, 1, 2, attrs, ranges);
    EXPECT_EQ(pruned.edges(), direct.edges());
    EXPECT_EQ(pruned.num_components(), direct.num_components());
    // Memoized: the same lookup returns the same graph.
    EXPECT_EQ(&svc.pruned_graph(1, 2, attrs, ranges), &pruned);
  }
  EXPECT_EQ(svc.pruned_graph(1, 2, attrs, cases[3]).num_edges(), 0u);
  EXPECT_LT(svc.pruned_graph(1, 2, attrs, cases[2]).num_edges(),
            svc.full_graph(1, 2, attrs).num_edges());
  EXPECT_EQ(svc.builds(), 1u);
}

TEST(PageIndex, EmptyRangesReturnFullCopy) {
  auto ds = make_ds();
  PageIndexService svc(ds.meta);
  const auto& copy = svc.pruned_graph(1, 2, {"x", "y", "z"}, {});
  EXPECT_EQ(copy.edges(), svc.full_graph(1, 2, {"x", "y", "z"}).edges());
  EXPECT_EQ(&copy, &svc.full_graph(1, 2, {"x", "y", "z"}));
}

}  // namespace
}  // namespace orv
