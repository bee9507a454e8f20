// Multilevel min-cut partitioner: balance constraint, cut quality against
// the block-cyclic strawman, determinism, and degenerate inputs.

#include "place/partitioner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.hpp"
#include "place/placement.hpp"

namespace orv::place {
namespace {

/// Per-part load ceiling the partitioner promises: mean * (1 + 0.10), but
/// never below the heaviest single vertex.
double capacity_of(const AffinityGraph& g, std::uint32_t parts) {
  double heaviest = 0;
  for (double w : g.vertex_weight) heaviest = std::max(heaviest, w);
  return std::max(heaviest,
                  g.total_vertex_weight() / parts * (1.0 + kBalanceTolerance));
}

std::vector<double> part_loads(const AffinityGraph& g,
                               const std::vector<std::uint32_t>& part,
                               std::uint32_t parts) {
  std::vector<double> load(parts, 0.0);
  for (std::size_t v = 0; v < part.size(); ++v) {
    load[part[v]] += g.vertex_weight[v];
  }
  return load;
}

/// Seeded random graph: `n` unit-ish vertices, ~`n * degree / 2` edges.
AffinityGraph random_graph(std::size_t n, std::size_t degree,
                           std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  AffinityGraph g;
  for (std::size_t v = 0; v < n; ++v) {
    g.add_vertex(1.0 + static_cast<double>(rng.below(4)));
  }
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t d = 0; d < degree; ++d) {
      const auto u = static_cast<std::uint32_t>(rng.below(n));
      g.add_edge(static_cast<std::uint32_t>(v), u,
                 1.0 + static_cast<double>(rng.below(8)));
    }
  }
  return g;
}

TEST(Partitioner, RespectsBalanceCapacity) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const AffinityGraph g = random_graph(200, 4, seed);
    for (std::uint32_t parts : {2u, 5u, 8u}) {
      const auto part = partition_graph(g, parts, seed);
      ASSERT_EQ(part.size(), g.num_vertices());
      for (std::uint32_t p : part) EXPECT_LT(p, parts);
      const double cap = capacity_of(g, parts);
      for (double load : part_loads(g, part, parts)) {
        EXPECT_LE(load, cap + 1e-9) << "seed=" << seed << " parts=" << parts;
      }
    }
  }
}

TEST(Partitioner, CutNeverWorseThanBlockCyclic) {
  // Block-cyclic (vertex v -> v mod parts) is the paper's placement; the
  // partitioner exists to beat it on clustered graphs and must never lose
  // to it. (Block-cyclic is balanced too on these near-uniform weights, so
  // the comparison is fair.)
  for (std::uint64_t seed : {3u, 11u, 99u}) {
    const AffinityGraph g = random_graph(150, 3, seed);
    for (std::uint32_t parts : {2u, 5u}) {
      const auto part = partition_graph(g, parts, seed);
      std::vector<std::uint32_t> cyclic(g.num_vertices());
      for (std::size_t v = 0; v < cyclic.size(); ++v) {
        cyclic[v] = static_cast<std::uint32_t>(v % parts);
      }
      EXPECT_LE(g.cut(part), g.cut(cyclic) + 1e-9)
          << "seed=" << seed << " parts=" << parts;
    }
  }
}

TEST(Partitioner, DisjointComponentCliquesGetZeroCut) {
  // 20 disjoint 5-cliques over 4 parts: each clique fits within the
  // balance capacity, so keeping every clique whole (cut 0) is feasible
  // and the partitioner finds it.
  AffinityGraph g;
  for (std::size_t c = 0; c < 20; ++c) {
    std::uint32_t base = 0;
    for (std::size_t v = 0; v < 5; ++v) {
      const std::uint32_t id = g.add_vertex(1.0);
      if (v == 0) base = id;
    }
    for (std::uint32_t a = 0; a < 5; ++a) {
      for (std::uint32_t b = a + 1; b < 5; ++b) {
        g.add_edge(base + a, base + b, 10.0);
      }
    }
  }
  const auto part = partition_graph(g, 4);
  EXPECT_EQ(g.cut(part), 0.0);
}

TEST(Partitioner, DatasetAffinityCutBeatsBlockCyclic) {
  // The bench configuration (asymmetric partitions, a = 1, b = 8): the
  // affinity graph is 64 disjoint stars, each fitting in a fifth of the
  // data, so the min cut is 0 while block-cyclic scatters every star.
  DatasetSpec spec;
  spec.grid = {64, 64, 64};
  spec.part1 = {16, 16, 16};
  spec.part2 = {8, 8, 8};
  spec.num_storage_nodes = 5;
  const DatasetAffinity aff = build_dataset_affinity(spec);
  const auto part = partition_graph(aff.graph, 5, spec.seed);

  std::vector<std::uint32_t> cyclic(aff.graph.num_vertices());
  for (std::size_t v = 0; v < cyclic.size(); ++v) {
    const bool left = v < aff.num_left_chunks;
    const std::size_t chunk = left ? v : v - aff.num_left_chunks;
    cyclic[v] = static_cast<std::uint32_t>(chunk % 5);
  }
  EXPECT_GT(aff.graph.cut(cyclic), 0.0);
  EXPECT_EQ(aff.graph.cut(part), 0.0);
}

TEST(Partitioner, DeterministicForFixedSeed) {
  const AffinityGraph g = random_graph(120, 4, 5);
  const auto a = partition_graph(g, 5, 17);
  const auto b = partition_graph(g, 5, 17);
  EXPECT_EQ(a, b);
}

TEST(Partitioner, DegenerateInputs) {
  AffinityGraph empty;
  EXPECT_TRUE(partition_graph(empty, 3).empty());

  AffinityGraph one;
  one.add_vertex(7.0);
  const auto single = partition_graph(one, 4);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_LT(single[0], 4u);

  // One part: everything lands in it regardless of edges.
  const AffinityGraph g = random_graph(30, 2, 9);
  const auto all_one = partition_graph(g, 1);
  for (std::uint32_t p : all_one) EXPECT_EQ(p, 0u);

  // More parts than vertices: still a valid (trivially zero-cut-capable)
  // assignment with every label in range.
  AffinityGraph few = random_graph(3, 1, 4);
  const auto sparse = partition_graph(few, 8);
  ASSERT_EQ(sparse.size(), 3u);
  for (std::uint32_t p : sparse) EXPECT_LT(p, 8u);
}

TEST(Partitioner, SelfLoopsIgnoredInCut) {
  AffinityGraph g;
  g.add_vertex(1.0);
  g.add_vertex(1.0);
  g.add_edge(0, 0, 100.0);  // ignored
  g.add_edge(0, 1, 5.0);
  EXPECT_EQ(g.cut({0, 1}), 5.0);
  EXPECT_EQ(g.cut({0, 0}), 0.0);
}

}  // namespace
}  // namespace orv::place
