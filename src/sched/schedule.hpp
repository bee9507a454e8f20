#pragma once

// Two-stage Indexed Join scheduling (paper Section 5.1).
//
// Stage 1: connected components of the sub-table connectivity graph are
// assigned to QES instances in equal numbers. Stage 2: within each QES
// instance the pair list is sorted lexicographically by
// ((i1,j1),(i2,j2)). Together with a memory of at least 2*c_R + b*c_S this
// guarantees no sub-table is evicted while still needed (the paper's
// no-eviction assumption, asserted by tests).
//
// Alternative strategies (random assignment, shuffled pair order)
// are provided for the OPAS-sensitivity ablation benches.

#include <cstdint>
#include <vector>

#include "graph/connectivity.hpp"

namespace orv {

enum class ComponentAssign {
  RoundRobin,     // paper: equal number of components per QES instance
  Random,         // ablation
  CacheAffinity,  // session-cache extension: follow warm caches
  /// Placement-aware: route each component to the compute node colocated
  /// with the storage node holding most of its bytes (src/place pairing
  /// j mod n_s). Requires the placement overload below; falls back to
  /// RoundRobin in plain make_schedule.
  PlacementAffinity,
};

enum class PairOrder {
  Lexicographic,  // paper: sorted by ((i1,j1),(i2,j2))
  Shuffled,       // ablation: destroys locality (OPAS pain)
  /// OPAS-style greedy heuristic (cf. Chan & Ooi; Fotouhi & Pramanik):
  /// repeatedly pick the pair sharing the most sub-tables with the
  /// currently "hot" set, approximating a page-access sequence that
  /// minimizes re-fetches even when components exceed memory.
  GreedyLocality,
};

struct Schedule {
  /// pairs_per_node[j] is the ordered work list of QES instance j.
  std::vector<std::vector<SubTablePair>> pairs_per_node;

  std::size_t total_pairs() const {
    std::size_t n = 0;
    for (const auto& v : pairs_per_node) n += v.size();
    return n;
  }

  /// Max pairs assigned to a single node (load-balance metric).
  std::size_t max_pairs_per_node() const;

  /// Given an LRU of `capacity_bytes`, how many sub-table fetches would
  /// this order incur on node j? The tests' LRU model of a schedule; it
  /// does not run the simulation.
  std::size_t fetches_with_lru(
      std::size_t node, std::uint64_t capacity_bytes,
      const MetaDataService& meta) const;
};

/// Builds the IJ schedule from a connectivity graph.
/// ComponentAssign::CacheAffinity requires the affinity overload below and
/// falls back to RoundRobin here.
Schedule make_schedule(const ConnectivityGraph& graph, std::size_t num_nodes,
                       ComponentAssign assign = ComponentAssign::RoundRobin,
                       PairOrder order = PairOrder::Lexicographic,
                       std::uint64_t seed = 0);

/// Redistributes a list of orphaned pairs (work lost to crashed QES
/// instances) across the surviving nodes, round-robin in list order.
/// `alive[j]` marks node j usable; the result has one (possibly empty)
/// list per node, empty for dead nodes. Requires at least one survivor.
std::vector<std::vector<SubTablePair>> redistribute_pairs(
    const std::vector<SubTablePair>& orphans, const std::vector<char>& alive);

/// Per-(component, node) affinity scores: affinity[c][n] estimates how
/// many bytes of component c's sub-tables node n already holds. Components
/// go to their argmax node (ties and zero rows fall back to round-robin),
/// with a balance cap of ceil(2 * components / nodes) per node.
Schedule make_schedule_with_affinity(
    const ConnectivityGraph& graph, std::size_t num_nodes,
    const std::vector<std::vector<double>>& affinity,
    PairOrder order = PairOrder::Lexicographic, std::uint64_t seed = 0);

/// ComponentAssign::PlacementAffinity: affinity[c][n] is the number of bytes
/// of component c's sub-tables resident on the storage node paired with
/// compute node n (n mod num_storage). On a colocated cluster the winning
/// node fetches those bytes over its local bus instead of the switch; the
/// same balance cap as make_schedule_with_affinity applies.
Schedule make_schedule_placement_affinity(
    const ConnectivityGraph& graph, std::size_t num_nodes,
    const MetaDataService& meta, std::size_t num_storage,
    PairOrder order = PairOrder::Lexicographic, std::uint64_t seed = 0);

}  // namespace orv
