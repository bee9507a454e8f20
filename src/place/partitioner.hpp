#pragma once

// Dependency-free multilevel min-cut graph partitioner (cf. Golab et al.,
// "Distributed Data Placement via Graph Partitioning"; algorithmically the
// classic multilevel scheme of METIS-style partitioners).
//
// The input is a data-affinity graph: vertices are chunks (weighted by
// their byte size), edges connect chunks that are joined together
// (weighted by the transfer volume saved when the pair is co-located).
// partition_graph() maps every vertex to one of `parts` storage nodes so
// that the total weight of edges crossing parts (the *cut* — exactly the
// bytes that must cross the switch) is small, while every part stays
// within (1 + kBalanceTolerance) of the mean byte load.
//
// Pipeline: coarsen by heavy-edge matching until the graph is small,
// greedily grow an initial balanced partition on the coarsest graph, then
// project back level by level with Kernighan-Lin/Fiduccia-Mattheyses
// boundary refinement at each level. Deterministic for a fixed seed.

#include <cstdint>
#include <vector>

namespace orv::place {

/// Undirected weighted graph in adjacency-list form. Parallel edges are
/// allowed (weights accumulate logically); self-loops are ignored.
struct AffinityGraph {
  /// vertex_weight[v] is v's load (bytes) for the balance constraint.
  std::vector<double> vertex_weight;

  struct Edge {
    std::uint32_t to = 0;
    double weight = 0;
  };
  /// adj[v] holds v's incident edges; add_edge() inserts both directions.
  std::vector<std::vector<Edge>> adj;

  std::size_t num_vertices() const { return vertex_weight.size(); }

  /// Appends a vertex, returns its index.
  std::uint32_t add_vertex(double weight);

  /// Undirected edge u—v of the given weight (ignored when u == v).
  void add_edge(std::uint32_t u, std::uint32_t v, double weight);

  /// Total weight of edges whose endpoints land in different parts.
  /// (Each undirected edge counted once.)
  double cut(const std::vector<std::uint32_t>& part) const;

  /// Sum of vertex weights.
  double total_vertex_weight() const;
};

/// Per-part load may exceed the mean by at most this fraction.
constexpr double kBalanceTolerance = 0.10;

/// Maps each vertex to a part in [0, parts). Never returns an assignment
/// violating the balance constraint (capacity = mean * (1 +
/// kBalanceTolerance), and always at least the heaviest single vertex — a
/// vertex heavier than the capacity still has to live somewhere).
std::vector<std::uint32_t> partition_graph(const AffinityGraph& graph,
                                           std::uint32_t parts,
                                           std::uint64_t seed = 0);

}  // namespace orv::place
