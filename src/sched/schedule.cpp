#include "sched/schedule.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"
#include "common/prng.hpp"

namespace orv {

std::size_t Schedule::max_pairs_per_node() const {
  std::size_t mx = 0;
  for (const auto& v : pairs_per_node) mx = std::max(mx, v.size());
  return mx;
}

std::size_t Schedule::fetches_with_lru(std::size_t node,
                                       std::uint64_t capacity_bytes,
                                       const MetaDataService& meta) const {
  ORV_REQUIRE(node < pairs_per_node.size(), "node index out of range");
  // Simulate an LRU of sub-table byte sizes over the access string
  // (left, right, left, right, ...).
  std::vector<SubTableId> lru;  // back = most recent
  std::uint64_t used = 0;
  std::size_t fetches = 0;
  auto touch = [&](SubTableId id) {
    auto it = std::find(lru.begin(), lru.end(), id);
    if (it != lru.end()) {
      lru.erase(it);
      lru.push_back(id);
      return;
    }
    ++fetches;
    const std::uint64_t bytes =
        meta.chunk(id).num_rows * meta.chunk(id).schema->record_size();
    while (!lru.empty() && used + bytes > capacity_bytes) {
      used -= meta.chunk(lru.front()).num_rows *
              meta.chunk(lru.front()).schema->record_size();
      lru.erase(lru.begin());
    }
    lru.push_back(id);
    used += bytes;
  };
  for (const auto& pair : pairs_per_node[node]) {
    touch(pair.left);
    touch(pair.right);
  }
  return fetches;
}

namespace {

void order_pairs(std::vector<std::vector<SubTablePair>>& per_node,
                 PairOrder order, Xoshiro256StarStar& rng);

}  // namespace

Schedule make_schedule(const ConnectivityGraph& graph, std::size_t num_nodes,
                       ComponentAssign assign, PairOrder order,
                       std::uint64_t seed) {
  ORV_REQUIRE(num_nodes >= 1, "schedule needs at least one node");
  Schedule s;
  s.pairs_per_node.resize(num_nodes);

  Xoshiro256StarStar rng(seed);
  const auto& components = graph.components();

  for (std::size_t c = 0; c < components.size(); ++c) {
    const std::size_t node = assign == ComponentAssign::Random
                                 ? rng.below(num_nodes)
                                 : c % num_nodes;  // RoundRobin + fallback
    auto& list = s.pairs_per_node[node];
    list.insert(list.end(), components[c].pairs.begin(),
                components[c].pairs.end());
  }

  order_pairs(s.pairs_per_node, order, rng);
  return s;
}

Schedule make_schedule_placement_affinity(
    const ConnectivityGraph& graph, std::size_t num_nodes,
    const MetaDataService& meta, std::size_t num_storage,
    PairOrder order, std::uint64_t seed) {
  ORV_REQUIRE(num_storage >= 1, "placement affinity needs storage nodes");
  const auto& components = graph.components();
  std::vector<std::vector<double>> affinity(
      components.size(), std::vector<double>(num_nodes, 0.0));
  std::unordered_set<SubTableId, SubTableIdHash> seen;
  for (std::size_t c = 0; c < components.size(); ++c) {
    seen.clear();
    for (const auto& pair : components[c].pairs) {
      for (SubTableId id : {pair.left, pair.right}) {
        if (!seen.insert(id).second) continue;
        const ChunkMeta& cm = meta.chunk(id);
        const double bytes =
            static_cast<double>(cm.num_rows) * cm.schema->record_size();
        const std::uint32_t storage = cm.location.storage_node;
        for (std::size_t n = storage; n < num_nodes; n += num_storage) {
          affinity[c][n] += bytes;  // every compute node paired with storage
        }
      }
    }
  }
  return make_schedule_with_affinity(graph, num_nodes, affinity, order, seed);
}

Schedule make_schedule_with_affinity(
    const ConnectivityGraph& graph, std::size_t num_nodes,
    const std::vector<std::vector<double>>& affinity, PairOrder order,
    std::uint64_t seed) {
  ORV_REQUIRE(num_nodes >= 1, "schedule needs at least one node");
  const auto& components = graph.components();
  ORV_REQUIRE(affinity.size() == components.size(),
              "one affinity row per component required");
  Schedule s;
  s.pairs_per_node.resize(num_nodes);
  Xoshiro256StarStar rng(seed);

  const std::size_t cap =
      components.empty() ? 0 : (2 * components.size() + num_nodes - 1) /
                                   num_nodes;
  std::vector<std::size_t> assigned_count(num_nodes, 0);
  for (std::size_t c = 0; c < components.size(); ++c) {
    ORV_REQUIRE(affinity[c].size() == num_nodes,
                "affinity row size must equal node count");
    std::size_t node = c % num_nodes;  // fallback: round-robin
    double best = 0;
    for (std::size_t n = 0; n < num_nodes; ++n) {
      if (affinity[c][n] > best && assigned_count[n] < cap) {
        best = affinity[c][n];
        node = n;
      }
    }
    if (assigned_count[node] >= cap) node = c % num_nodes;
    ++assigned_count[node];
    auto& list = s.pairs_per_node[node];
    list.insert(list.end(), components[c].pairs.begin(),
                components[c].pairs.end());
  }
  order_pairs(s.pairs_per_node, order, rng);
  return s;
}

namespace {

void order_pairs(std::vector<std::vector<SubTablePair>>& per_node,
                 PairOrder order, Xoshiro256StarStar& rng) {
  for (auto& list : per_node) {
    switch (order) {
      case PairOrder::Lexicographic:
        std::sort(list.begin(), list.end());
        break;
      case PairOrder::Shuffled:
        for (std::size_t i = list.size(); i > 1; --i) {
          std::swap(list[i - 1], list[rng.below(i)]);
        }
        break;
      case PairOrder::GreedyLocality: {
        // Start from the lexicographically first pair; at each step take
        // the remaining pair sharing the most sub-tables with the previous
        // one (ties: lexicographic), so consecutive pairs reuse cached
        // sub-tables. O(n^2), fine at page-index scale.
        std::sort(list.begin(), list.end());
        std::vector<SubTablePair> ordered;
        ordered.reserve(list.size());
        std::vector<bool> used(list.size(), false);
        SubTablePair prev{};
        bool have_prev = false;
        for (std::size_t step = 0; step < list.size(); ++step) {
          std::size_t best = list.size();
          int best_score = -1;
          for (std::size_t i = 0; i < list.size(); ++i) {
            if (used[i]) continue;
            int score = 0;
            if (have_prev) {
              score = (list[i].left == prev.left ? 2 : 0) +
                      (list[i].right == prev.right ? 1 : 0);
            }
            if (score > best_score) {
              best_score = score;
              best = i;
            }
          }
          used[best] = true;
          ordered.push_back(list[best]);
          prev = list[best];
          have_prev = true;
        }
        list = std::move(ordered);
        break;
      }
    }
  }
}

}  // namespace

std::vector<std::vector<SubTablePair>> redistribute_pairs(
    const std::vector<SubTablePair>& orphans, const std::vector<char>& alive) {
  std::vector<std::size_t> survivors;
  for (std::size_t j = 0; j < alive.size(); ++j) {
    if (alive[j]) survivors.push_back(j);
  }
  ORV_REQUIRE(!survivors.empty(),
              "cannot redistribute pairs: no surviving nodes");
  std::vector<std::vector<SubTablePair>> out(alive.size());
  for (std::size_t p = 0; p < orphans.size(); ++p) {
    out[survivors[p % survivors.size()]].push_back(orphans[p]);
  }
  return out;
}

}  // namespace orv
