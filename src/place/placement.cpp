#include "place/placement.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "graph/connectivity.hpp"
#include "meta/metadata.hpp"
#include "sched/schedule.hpp"

namespace orv {

namespace {

Dim3 chunk_grid(const DatasetSpec& spec, const Dim3& part) {
  return Dim3{spec.grid.x / part.x, spec.grid.y / part.y,
              spec.grid.z / part.z};
}

std::uint64_t num_chunks_of(const DatasetSpec& spec, TableId table) {
  if (table == spec.table1_id) return chunk_grid(spec, spec.part1).volume();
  if (table == spec.table2_id) return chunk_grid(spec, spec.part2).volume();
  throw Error("placement policy asked about a table outside its dataset");
}

std::size_t record_size_of(const DatasetSpec& spec, TableId table) {
  const std::size_t extra =
      table == spec.table1_id ? spec.extra_attrs1 : spec.extra_attrs2;
  return (3 + extra) * sizeof(float);
}

class BlockCyclicPlacement final : public PlacementPolicy {
 public:
  explicit BlockCyclicPlacement(std::size_t num_nodes) : nodes_(num_nodes) {}
  const char* name() const override { return "block-cyclic"; }
  std::uint32_t node_of(TableId, ChunkId chunk) const override {
    return static_cast<std::uint32_t>(chunk % nodes_);
  }

 private:
  std::size_t nodes_;
};

class BlockedPlacement final : public PlacementPolicy {
 public:
  explicit BlockedPlacement(const DatasetSpec& spec)
      : table1_(spec.table1_id) {
    const std::size_t n_s = spec.num_storage_nodes;
    per_node_[0] =
        (num_chunks_of(spec, spec.table1_id) + n_s - 1) / n_s;
    per_node_[1] =
        (num_chunks_of(spec, spec.table2_id) + n_s - 1) / n_s;
  }
  const char* name() const override { return "blocked"; }
  std::uint32_t node_of(TableId table, ChunkId chunk) const override {
    return static_cast<std::uint32_t>(
        chunk / per_node_[table == table1_ ? 0 : 1]);
  }

 private:
  TableId table1_;
  std::uint64_t per_node_[2] = {1, 1};
};

class RandomPlacement final : public PlacementPolicy {
 public:
  explicit RandomPlacement(const DatasetSpec& spec) {
    // One stream per table, drawn in chunk-id order — the same sequence
    // the generator historically produced with its inline RNG (now with
    // the full 64-bit golden-ratio constant; the seed term was truncated
    // to 0x9e3779b97f4aull before this module existed).
    for (const TableId table : {spec.table1_id, spec.table2_id}) {
      Xoshiro256StarStar rng(spec.seed ^ (0x9e3779b97f4a7c15ull + table));
      std::vector<std::uint32_t>& map = map_[table];
      map.reserve(num_chunks_of(spec, table));
      for (std::uint64_t c = 0; c < num_chunks_of(spec, table); ++c) {
        map.push_back(
            static_cast<std::uint32_t>(rng.below(spec.num_storage_nodes)));
      }
    }
  }
  const char* name() const override { return "random"; }
  std::uint32_t node_of(TableId table, ChunkId chunk) const override {
    const auto it = map_.find(table);
    ORV_REQUIRE(it != map_.end() && chunk < it->second.size(),
                "random placement asked about an unknown chunk");
    return it->second[chunk];
  }

 private:
  std::unordered_map<TableId, std::vector<std::uint32_t>> map_;
};

class GraphPartitionedPlacement final : public PlacementPolicy {
 public:
  explicit GraphPartitionedPlacement(const DatasetSpec& spec)
      : table1_(spec.table1_id), table2_(spec.table2_id) {
    const DatasetAffinity aff = build_dataset_affinity(spec);
    const std::vector<std::uint32_t> part = partition_graph(
        aff.graph, static_cast<std::uint32_t>(spec.num_storage_nodes),
        spec.seed);
    map1_.assign(part.begin(),
                 part.begin() + static_cast<std::ptrdiff_t>(aff.num_left_chunks));
    map2_.assign(part.begin() + static_cast<std::ptrdiff_t>(aff.num_left_chunks),
                 part.end());
  }
  const char* name() const override { return "graph-partitioned"; }
  std::uint32_t node_of(TableId table, ChunkId chunk) const override {
    const std::vector<std::uint32_t>& map =
        table == table1_ ? map1_ : map2_;
    ORV_REQUIRE((table == table1_ || table == table2_) && chunk < map.size(),
                "graph-partitioned placement asked about an unknown chunk");
    return map[chunk];
  }

 private:
  TableId table1_;
  TableId table2_;
  std::vector<std::uint32_t> map1_;
  std::vector<std::uint32_t> map2_;
};

}  // namespace

std::unique_ptr<PlacementPolicy> make_placement_policy(
    const DatasetSpec& spec) {
  switch (spec.placement) {
    case Placement::BlockCyclic:
      return std::make_unique<BlockCyclicPlacement>(spec.num_storage_nodes);
    case Placement::Blocked:
      return std::make_unique<BlockedPlacement>(spec);
    case Placement::Random:
      return std::make_unique<RandomPlacement>(spec);
    case Placement::GraphPartitioned:
      return std::make_unique<GraphPartitionedPlacement>(spec);
  }
  throw Error("unreachable placement");
}

DatasetAffinity build_dataset_affinity(const DatasetSpec& spec) {
  spec.validate();
  const Dim3 n1 = chunk_grid(spec, spec.part1);
  const Dim3 n2 = chunk_grid(spec, spec.part2);
  const double bytes1 = static_cast<double>(spec.part1.volume()) *
                        static_cast<double>(record_size_of(spec, spec.table1_id));
  const double bytes2 = static_cast<double>(spec.part2.volume()) *
                        static_cast<double>(record_size_of(spec, spec.table2_id));

  DatasetAffinity out;
  out.num_left_chunks = n1.volume();
  for (std::uint64_t c = 0; c < n1.volume(); ++c) {
    out.graph.add_vertex(bytes1);
  }
  for (std::uint64_t c = 0; c < n2.volume(); ++c) {
    out.graph.add_vertex(bytes2);
  }

  // A T1 chunk (ix,iy,iz) spans grid cells [i*p, (i+1)*p - 1] per
  // dimension; the T2 chunks it joins are those whose q-sized spans
  // overlap — index range [i*p / q, ((i+1)*p - 1) / q]. Regular
  // partitioning (validate() enforces min|max) keeps this exact.
  auto overlap_range = [](std::uint64_t i, std::uint64_t p, std::uint64_t q) {
    return std::pair<std::uint64_t, std::uint64_t>{(i * p) / q,
                                                   ((i + 1) * p - 1) / q};
  };
  ChunkId left = 0;
  for (std::uint64_t iz = 0; iz < n1.z; ++iz) {
    for (std::uint64_t iy = 0; iy < n1.y; ++iy) {
      for (std::uint64_t ix = 0; ix < n1.x; ++ix, ++left) {
        const auto [x0, x1] = overlap_range(ix, spec.part1.x, spec.part2.x);
        const auto [y0, y1] = overlap_range(iy, spec.part1.y, spec.part2.y);
        const auto [z0, z1] = overlap_range(iz, spec.part1.z, spec.part2.z);
        for (std::uint64_t jz = z0; jz <= z1; ++jz) {
          for (std::uint64_t jy = y0; jy <= y1; ++jy) {
            for (std::uint64_t jx = x0; jx <= x1; ++jx) {
              const ChunkId right = (jz * n2.y + jy) * n2.x + jx;
              out.graph.add_edge(
                  static_cast<std::uint32_t>(left),
                  static_cast<std::uint32_t>(out.num_left_chunks + right),
                  bytes1 + bytes2);
            }
          }
        }
      }
    }
  }
  return out;
}

ChunkAffinity build_chunk_affinity(const MetaDataService& meta,
                                   const ConnectivityGraph& graph) {
  ChunkAffinity out;
  std::unordered_map<SubTableId, std::uint32_t, SubTableIdHash> index;
  auto vertex_of = [&](SubTableId id) {
    const auto it = index.find(id);
    if (it != index.end()) return it->second;
    const ChunkMeta& cm = meta.chunk(id);
    const std::uint32_t v = out.graph.add_vertex(
        static_cast<double>(cm.num_rows * cm.schema->record_size()));
    index.emplace(id, v);
    out.ids.push_back(id);
    return v;
  };
  for (const SubTablePair& e : graph.edges()) {
    const std::uint32_t u = vertex_of(e.left);
    const std::uint32_t v = vertex_of(e.right);
    out.graph.add_edge(u, v,
                       out.graph.vertex_weight[u] + out.graph.vertex_weight[v]);
  }
  return out;
}

double schedule_local_fraction(const Schedule& schedule,
                               const MetaDataService& meta,
                               std::size_t num_storage) {
  double local = 0;
  double total = 0;
  for (std::size_t node = 0; node < schedule.pairs_per_node.size(); ++node) {
    std::unordered_set<SubTableId, SubTableIdHash> seen;
    for (const SubTablePair& pair : schedule.pairs_per_node[node]) {
      for (const SubTableId id : {pair.left, pair.right}) {
        if (!seen.insert(id).second) continue;
        const ChunkMeta& cm = meta.chunk(id);
        const double bytes =
            static_cast<double>(cm.num_rows * cm.schema->record_size());
        total += bytes;
        if (colocated_pair(cm.location.storage_node, node, num_storage)) {
          local += bytes;
        }
      }
    }
  }
  return total > 0 ? local / total : 0.0;
}

}  // namespace orv
