#include "graph/connectivity.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/obs.hpp"

namespace orv {

namespace {

/// Union-find over dense indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// True when the two chunks' bounds overlap on every join attribute.
/// An attribute missing from either schema is unbounded there.
bool overlap_on(const ChunkMeta& lc, const ChunkMeta& rc,
                const std::vector<std::string>& join_attrs) {
  for (const auto& attr : join_attrs) {
    const auto li = lc.schema->index_of(attr);
    const auto ri = rc.schema->index_of(attr);
    if (!li || !ri) continue;  // unbounded side: always overlaps
    if (!lc.bounds[*li].overlaps(rc.bounds[*ri])) return false;
  }
  return true;
}

}  // namespace

ConnectivityGraph ConnectivityGraph::build(
    const MetaDataService& meta, TableId left_table, TableId right_table,
    const std::vector<std::string>& join_attrs,
    const std::vector<AttrRange>& ranges) {
  return build(meta, left_table, ranges, right_table, ranges, join_attrs);
}

ConnectivityGraph ConnectivityGraph::build(
    const MetaDataService& meta, TableId left_table,
    const std::vector<AttrRange>& left_ranges, TableId right_table,
    const std::vector<AttrRange>& right_ranges,
    const std::vector<std::string>& join_attrs) {
  ORV_REQUIRE(!join_attrs.empty(), "join needs at least one attribute");
  obs::StageScope stage(obs::context(), "graph.build");
  ConnectivityGraph g;

  // Prune right chunks by their ranges once; index survivors by position
  // for the R-tree pass below.
  const auto& right_chunks = meta.chunks(right_table);

  // Build an R-tree over the *join attributes only* of surviving right
  // chunks; query it with each surviving left chunk's join-attr box.
  const std::size_t dims = join_attrs.size();
  RTree rtree(dims);
  {
    std::vector<std::pair<Rect, std::uint64_t>> entries;
    for (std::size_t i = 0; i < right_chunks.size(); ++i) {
      if (!satisfies_ranges(right_chunks[i], right_ranges)) continue;
      Rect box(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        if (auto idx = right_chunks[i].schema->index_of(join_attrs[d])) {
          box[d] = right_chunks[i].bounds[*idx];
        }
      }
      entries.emplace_back(std::move(box), i);
    }
    rtree.bulk_load(std::move(entries));
  }

  for (const auto& lc : meta.chunks(left_table)) {
    if (!satisfies_ranges(lc, left_ranges)) continue;
    Rect probe(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      if (auto idx = lc.schema->index_of(join_attrs[d])) {
        probe[d] = lc.bounds[*idx];
      }
    }
    rtree.query(probe, [&](const Rect&, std::uint64_t ri) {
      const auto& rc = right_chunks[ri];
      // The R-tree matched on join attrs; re-check (exactly, including any
      // attribute missing on one side) to keep semantics independent of the
      // index structure.
      if (overlap_on(lc, rc, join_attrs)) {
        g.edges_.push_back(SubTablePair{lc.id, rc.id});
      }
    });
  }

  std::sort(g.edges_.begin(), g.edges_.end());
  g.edges_.erase(std::unique(g.edges_.begin(), g.edges_.end()),
                 g.edges_.end());
  g.compute_components();
  if (auto* ctx = obs::context()) {
    ctx->registry.gauge("graph.num_edges")
        .set(static_cast<double>(g.num_edges()));
    ctx->registry.gauge("graph.num_components")
        .set(static_cast<double>(g.num_components()));
  }
  return g;
}

void ConnectivityGraph::compute_components() {
  components_.clear();
  if (edges_.empty()) return;

  // Dense-index the node set: left nodes then right nodes.
  std::unordered_map<std::uint64_t, std::size_t> node_index;
  auto key_of = [](SubTableId id, bool is_left) {
    return (static_cast<std::uint64_t>(is_left) << 63) |
           (static_cast<std::uint64_t>(id.table) << 32) | id.chunk;
  };
  auto index_of = [&](SubTableId id, bool is_left) {
    auto [it, inserted] =
        node_index.try_emplace(key_of(id, is_left), node_index.size());
    return it->second;
  };

  std::vector<std::pair<std::size_t, std::size_t>> edge_nodes;
  edge_nodes.reserve(edges_.size());
  for (const auto& e : edges_) {
    edge_nodes.emplace_back(index_of(e.left, true),
                            index_of(e.right, false));
  }

  UnionFind uf(node_index.size());
  for (const auto& [l, r] : edge_nodes) uf.unite(l, r);

  std::unordered_map<std::size_t, std::size_t> root_to_component;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const std::size_t root = uf.find(edge_nodes[i].first);
    auto [it, inserted] =
        root_to_component.try_emplace(root, components_.size());
    if (inserted) components_.emplace_back();
    Component& comp = components_[it->second];
    comp.pairs.push_back(edges_[i]);
    comp.left_subtables.push_back(edges_[i].left);
    comp.right_subtables.push_back(edges_[i].right);
  }

  for (auto& comp : components_) {
    std::sort(comp.pairs.begin(), comp.pairs.end());
    auto dedup = [](std::vector<SubTableId>& v) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    dedup(comp.left_subtables);
    dedup(comp.right_subtables);
  }
  // Deterministic component order: by first (smallest) pair.
  std::sort(components_.begin(), components_.end(),
            [](const Component& a, const Component& b) {
              return a.pairs.front() < b.pairs.front();
            });
}

GraphStats ConnectivityGraph::stats(const MetaDataService& meta,
                                    TableId left_table,
                                    TableId right_table) const {
  GraphStats s;
  s.num_edges = edges_.size();
  s.num_components = components_.size();
  const double n_left = static_cast<double>(meta.num_chunks(left_table));
  const double n_right = static_cast<double>(meta.num_chunks(right_table));
  if (n_left > 0) s.avg_left_degree = s.num_edges / n_left;
  if (n_right > 0) s.avg_right_degree = s.num_edges / n_right;
  const double T_left = static_cast<double>(meta.table_rows(left_table));
  const double T_right = static_cast<double>(meta.table_rows(right_table));
  if (T_left > 0 && T_right > 0 && n_left > 0 && n_right > 0) {
    const double c_R = T_left / n_left;
    const double c_S = T_right / n_right;
    s.edge_ratio = s.num_edges * c_R * c_S / (T_left * T_right);
  }
  return s;
}

std::string GraphStats::to_string() const {
  return strformat(
      "n_e=%llu components=%llu avg_deg(L/R)=%.2f/%.2f edge_ratio=%.4g",
      (unsigned long long)num_edges, (unsigned long long)num_components,
      avg_left_degree, avg_right_degree, edge_ratio);
}

ConnectivityGraph ConnectivityGraph::from_edges(
    std::vector<SubTablePair> edges) {
  ConnectivityGraph g;
  g.edges_ = std::move(edges);
  std::sort(g.edges_.begin(), g.edges_.end());
  g.compute_components();
  return g;
}

}  // namespace orv
