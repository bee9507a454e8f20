// Ablation: how much the Indexed Join depends on its two-stage schedule
// and LRU cache (the OPAS sensitivity the paper discusses in Section 6.2).
//
// With the paper's schedule and enough memory, no sub-table is fetched
// twice. Shuffled pair order or a constrained cache forces re-fetches,
// inflating the transfer cost — which is why the IJ cost model is only
// valid under the schedule+memory assumption.

#include "bench_util.hpp"
#include "qes/session.hpp"
#include "sched/schedule.hpp"

int main() {
  using namespace orv;
  using namespace orv::bench;
  print_banner("Ablation", "IJ scheduling strategy and cache policy");

  DatasetSpec data;
  data.grid = {64, 64, 64};
  data.part1 = {32, 4, 8};   // sizeable components: a=8, b=8, E_C=64
  data.part2 = {4, 32, 8};
  data.num_storage_nodes = 5;
  ClusterSpec cspec;
  cspec.num_storage = 5;
  cspec.num_compute = 5;

  auto ds = generate_dataset(data);
  JoinQuery query{data.table1_id, data.table2_id, {"x", "y", "z"}, {}};

  struct Config {
    const char* name;
    ComponentAssign assign;
    PairOrder order;
    CachePolicy policy;
    std::uint64_t cache_bytes;  // 0 = full memory
  };
  const Config configs[] = {
      {"paper: round-robin + lex + LRU", ComponentAssign::RoundRobin,
       PairOrder::Lexicographic, CachePolicy::LRU, 0},
      {"shuffled pairs + LRU", ComponentAssign::RoundRobin,
       PairOrder::Shuffled, CachePolicy::LRU, 0},
      {"random components + lex + LRU", ComponentAssign::Random,
       PairOrder::Lexicographic, CachePolicy::LRU, 0},
      {"paper order, tiny cache (256 KiB) LRU", ComponentAssign::RoundRobin,
       PairOrder::Lexicographic, CachePolicy::LRU, 256 * 1024},
      {"shuffled, tiny cache (256 KiB) LRU", ComponentAssign::RoundRobin,
       PairOrder::Shuffled, CachePolicy::LRU, 256 * 1024},
      {"paper order, tiny cache (256 KiB) FIFO", ComponentAssign::RoundRobin,
       PairOrder::Lexicographic, CachePolicy::FIFO, 256 * 1024},
  };

  std::printf("%-42s | %8s %9s %9s %10s\n", "configuration", "time",
              "fetches", "evictions", "hit rate");
  for (const auto& cfg : configs) {
    sim::Engine engine;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, ds.stores);
    QesSession session(cluster, bds, ds.meta,
                       {.share_cache = false,
                        .cache_bytes = cfg.cache_bytes,
                        .cache_policy = cfg.policy});
    QesOptions options;
    options.assign = cfg.assign;
    options.pair_order = cfg.order;
    options.seed = 11;
    const auto r =
        session.run(query, options, Algorithm::IndexedJoin).result;
    std::printf("%-42s | %7.3fs %9llu %9llu %9.1f%%\n", cfg.name, r.elapsed,
                (unsigned long long)r.subtable_fetches,
                (unsigned long long)r.cache_stats.evictions,
                100.0 * r.cache_stats.hit_rate());
  }
  std::printf("\nExpected: the paper's two-stage schedule + LRU never "
              "re-fetches; shuffled\norder or tiny caches re-transfer "
              "sub-tables and slow IJ down.\n\n");
  return 0;
}
