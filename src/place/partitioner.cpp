#include "place/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/prng.hpp"

namespace orv::place {

std::uint32_t AffinityGraph::add_vertex(double weight) {
  ORV_REQUIRE(weight >= 0, "vertex weight must be non-negative");
  vertex_weight.push_back(weight);
  adj.emplace_back();
  return static_cast<std::uint32_t>(vertex_weight.size() - 1);
}

void AffinityGraph::add_edge(std::uint32_t u, std::uint32_t v, double weight) {
  if (u == v) return;
  ORV_REQUIRE(u < num_vertices() && v < num_vertices(),
              "edge endpoint out of range");
  ORV_REQUIRE(weight >= 0, "edge weight must be non-negative");
  adj[u].push_back({v, weight});
  adj[v].push_back({u, weight});
}

double AffinityGraph::cut(const std::vector<std::uint32_t>& part) const {
  ORV_REQUIRE(part.size() == num_vertices(),
              "one part id per vertex required");
  double c = 0;
  for (std::uint32_t v = 0; v < num_vertices(); ++v) {
    for (const Edge& e : adj[v]) {
      if (v < e.to && part[v] != part[e.to]) c += e.weight;
    }
  }
  return c;
}

double AffinityGraph::total_vertex_weight() const {
  return std::accumulate(vertex_weight.begin(), vertex_weight.end(), 0.0);
}

namespace {

/// Coarsening stops once the graph has at most max(kCoarsenTarget,
/// 8 * parts) vertices.
constexpr std::size_t kCoarsenTarget = 64;
/// KL/FM passes per uncoarsening level.
constexpr std::size_t kRefinePasses = 4;

/// One coarsening level: the coarse graph plus the fine→coarse vertex map.
struct Level {
  AffinityGraph graph;
  std::vector<std::uint32_t> fine_to_coarse;
};

/// Heavy-edge matching: visit vertices in a seeded random order; each
/// unmatched vertex merges with its unmatched neighbour of heaviest edge
/// weight (ties broken by smaller index for determinism). Unmatched
/// vertices map to singleton coarse vertices.
Level coarsen(const AffinityGraph& g, Xoshiro256StarStar& rng) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  constexpr std::uint32_t kUnmatched = 0xffffffffu;
  std::vector<std::uint32_t> match(n, kUnmatched);
  for (const std::uint32_t v : order) {
    if (match[v] != kUnmatched) continue;
    std::uint32_t best = v;  // self-match = stays singleton
    double best_w = -1;
    for (const auto& e : g.adj[v]) {
      if (match[e.to] != kUnmatched) continue;
      if (e.weight > best_w || (e.weight == best_w && e.to < best)) {
        best_w = e.weight;
        best = e.to;
      }
    }
    match[v] = best;
    match[best] = v;
  }

  Level out;
  out.fine_to_coarse.assign(n, kUnmatched);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (out.fine_to_coarse[v] != kUnmatched) continue;
    const std::uint32_t m = match[v];
    const std::uint32_t c =
        out.graph.add_vertex(g.vertex_weight[v] +
                             (m != v ? g.vertex_weight[m] : 0.0));
    out.fine_to_coarse[v] = c;
    if (m != v) out.fine_to_coarse[m] = c;
  }

  // Accumulate fine edges into coarse edges (intra-pair edges vanish);
  // sort-based merge deduplicates parallel coarse edges — the graphs are
  // modest (≤ a few thousand chunks), so O(E log E) is fine.
  struct Triple {
    std::uint32_t a, b;
    double w;
  };
  std::vector<Triple> triples;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t cv = out.fine_to_coarse[v];
    for (const auto& e : g.adj[v]) {
      if (v >= e.to) continue;
      const std::uint32_t cu = out.fine_to_coarse[e.to];
      if (cu == cv) continue;
      triples.push_back({std::min(cv, cu), std::max(cv, cu), e.weight});
    }
  }
  std::sort(triples.begin(), triples.end(), [](const Triple& x,
                                               const Triple& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  for (std::size_t i = 0; i < triples.size();) {
    double w = triples[i].w;
    std::size_t j = i + 1;
    while (j < triples.size() && triples[j].a == triples[i].a &&
           triples[j].b == triples[i].b) {
      w += triples[j].w;
      ++j;
    }
    out.graph.add_edge(triples[i].a, triples[i].b, w);
    i = j;
  }
  return out;
}

/// Greedy region growth on the (coarsest) graph: seed each part with the
/// heaviest unassigned vertex, then repeatedly give the lightest part its
/// most-attached unassigned vertex that fits.
std::vector<std::uint32_t> initial_partition(const AffinityGraph& g,
                                             std::uint32_t parts,
                                             double capacity) {
  const std::size_t n = g.num_vertices();
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::vector<std::uint32_t> part(n, kNone);
  std::vector<double> load(parts, 0.0);

  // Vertices by descending weight (ties by index) — heavy chunks placed
  // first so capacity fragmentation cannot strand them.
  std::vector<std::uint32_t> by_weight(n);
  std::iota(by_weight.begin(), by_weight.end(), 0u);
  std::sort(by_weight.begin(), by_weight.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (g.vertex_weight[a] != g.vertex_weight[b]) {
                return g.vertex_weight[a] > g.vertex_weight[b];
              }
              return a < b;
            });

  for (const std::uint32_t v : by_weight) {
    if (part[v] != kNone) continue;
    // Attachment of v to each part through already-assigned neighbours.
    std::vector<double> attach(parts, 0.0);
    for (const auto& e : g.adj[v]) {
      if (part[e.to] != kNone) attach[part[e.to]] += e.weight;
    }
    std::uint32_t best = kNone;
    double best_score = -1;
    for (std::uint32_t p = 0; p < parts; ++p) {
      if (load[p] + g.vertex_weight[v] > capacity) continue;
      // Prefer attachment; break ties toward the lighter part.
      const double score = attach[p] - 1e-9 * load[p];
      if (best == kNone || score > best_score) {
        best_score = score;
        best = p;
      }
    }
    if (best == kNone) {
      // Nothing fits (capacity < heaviest vertex shouldn't happen, but a
      // pathological tolerance can get here): take the lightest part.
      best = 0;
      for (std::uint32_t p = 1; p < parts; ++p) {
        if (load[p] < load[best]) best = p;
      }
    }
    part[v] = best;
    load[best] += g.vertex_weight[v];
  }
  return part;
}

/// KL/FM-style boundary refinement: repeatedly move the boundary vertex
/// with the largest positive cut gain to its best part, respecting the
/// capacity. Passes stop early when a sweep makes no move.
void refine(const AffinityGraph& g, std::uint32_t parts, double capacity,
            std::vector<std::uint32_t>& part) {
  const std::size_t n = g.num_vertices();
  std::vector<double> load(parts, 0.0);
  for (std::uint32_t v = 0; v < n; ++v) load[part[v]] += g.vertex_weight[v];

  for (std::size_t pass = 0; pass < kRefinePasses; ++pass) {
    bool moved = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (g.adj[v].empty()) continue;
      // Connection weight of v to each part.
      std::vector<double> conn(parts, 0.0);
      for (const auto& e : g.adj[v]) conn[part[e.to]] += e.weight;
      const std::uint32_t from = part[v];
      std::uint32_t best = from;
      double best_gain = 0;
      for (std::uint32_t p = 0; p < parts; ++p) {
        if (p == from) continue;
        if (load[p] + g.vertex_weight[v] > capacity) continue;
        const double gain = conn[p] - conn[from];
        // Strictly positive gain only: zero-gain moves could oscillate.
        if (gain > best_gain ||
            (gain == best_gain && gain > 0 && p < best)) {
          best_gain = gain;
          best = p;
        }
      }
      if (best != from) {
        load[from] -= g.vertex_weight[v];
        load[best] += g.vertex_weight[v];
        part[v] = best;
        moved = true;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

std::vector<std::uint32_t> partition_graph(const AffinityGraph& graph,
                                           std::uint32_t parts,
                                           std::uint64_t seed) {
  ORV_REQUIRE(parts >= 1, "need at least one part");
  const std::size_t n = graph.num_vertices();
  if (n == 0) return {};
  if (parts == 1) return std::vector<std::uint32_t>(n, 0);

  const double total = graph.total_vertex_weight();
  double heaviest = 0;
  for (const double w : graph.vertex_weight) heaviest = std::max(heaviest, w);
  const double capacity =
      std::max(heaviest,
               total / parts * (1.0 + kBalanceTolerance));

  Xoshiro256StarStar rng(seed ^ 0x9e3779b97f4a7c15ull);

  // Coarsening ladder. Stop when small enough or matching stalls (< 10%
  // shrink), which happens on star-free graphs long before target size.
  std::vector<Level> levels;
  const AffinityGraph* cur = &graph;
  const std::size_t target =
      std::max<std::size_t>(kCoarsenTarget, 8u * parts);
  while (cur->num_vertices() > target) {
    Level next = coarsen(*cur, rng);
    if (next.graph.num_vertices() >
        cur->num_vertices() - cur->num_vertices() / 10) {
      break;
    }
    levels.push_back(std::move(next));
    cur = &levels.back().graph;
  }

  std::vector<std::uint32_t> part =
      initial_partition(*cur, parts, capacity);
  refine(*cur, parts, capacity, part);

  // Uncoarsen: project the coarse assignment through each level's map,
  // refining at every step.
  for (std::size_t l = levels.size(); l-- > 0;) {
    const AffinityGraph& fine =
        l == 0 ? graph : levels[l - 1].graph;
    std::vector<std::uint32_t> fine_part(fine.num_vertices());
    for (std::uint32_t v = 0; v < fine.num_vertices(); ++v) {
      fine_part[v] = part[levels[l].fine_to_coarse[v]];
    }
    part = std::move(fine_part);
    refine(fine, parts, capacity, part);
  }
  return part;
}

}  // namespace orv::place
