// Microbenchmark of the in-memory hash-join kernel: per-tuple build and
// probe costs (real wall-clock). This is how alpha_build / alpha_lookup
// (Table 1) would be calibrated on a target machine: gamma = ops/tuple =
// measured ns/tuple * F.
//
// Besides the google-benchmark suites, main() always runs a probe sweep
// across build sizes spanning the L2/L3 boundary (ns per probe row and the
// partition count per size), then a key-box clip block (probe sides
// overlapping the build side's key range by 100%, 25% and 3%), then the
// two small pairs most query traffic is made of, through PairJoin (ns per
// build and ns per probe call), and writes the results as
// machine-readable JSON (default BENCH_join_kernel.json, or the path given
// by --sweep_json=...), so successive changes can track the kernel's
// throughput trajectory. Every ns/tuple figure is per charged probe row,
// clipped or not.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "join/hash_join.hpp"

namespace {

using namespace orv;

SchemaPtr wide_schema(std::size_t attrs) {
  std::vector<Attribute> a{{"k", AttrType::Int64}};
  for (std::size_t i = 1; i < attrs; ++i) {
    a.push_back({"a" + std::to_string(i), AttrType::Float32});
  }
  return Schema::make(std::move(a));
}

std::shared_ptr<SubTable> make_rows(SchemaPtr schema, std::size_t n,
                                    std::uint64_t seed,
                                    std::uint64_t key_space = 0) {
  auto st = std::make_shared<SubTable>(schema, SubTableId{1, 0});
  Xoshiro256StarStar rng(seed);
  std::vector<Value> vals;
  for (std::size_t r = 0; r < n; ++r) {
    vals.clear();
    const std::int64_t k = key_space
                               ? static_cast<std::int64_t>(rng.below(key_space))
                               : static_cast<std::int64_t>(r);
    vals.push_back(Value(k));
    for (std::size_t i = 1; i < schema->num_attrs(); ++i) {
      vals.push_back(Value(static_cast<float>(rng.uniform01())));
    }
    st->append_values(vals);
  }
  return st;
}

void BM_HashTableBuild(benchmark::State& state) {
  const auto rows = make_rows(wide_schema(4), state.range(0), 1);
  for (auto _ : state) {
    BuiltHashTable ht(rows, {"k"});
    benchmark::DoNotOptimize(ht.table_bytes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashTableBuild)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 20);

void BM_HashTableProbe(benchmark::State& state) {
  const auto left = make_rows(wide_schema(4), state.range(0), 1);
  const auto right = make_rows(wide_schema(4), state.range(0), 2);
  BuiltHashTable ht(left, {"k"});
  const JoinKey rkey = JoinKey::resolve(right->schema(), {"k"});
  auto result_schema = std::make_shared<const Schema>(Schema::join_result(
      left->schema(), right->schema(), rkey.attr_indices()));
  for (auto _ : state) {
    SubTable out(result_schema, SubTableId{9, 0});
    benchmark::DoNotOptimize(ht.probe(*right, {"k"}, out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashTableProbe)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 20);

// The paper's record-size-independence claim: build cost per tuple should
// be flat across record widths (pointer-valued hash table).
void BM_BuildByRecordWidth(benchmark::State& state) {
  const auto rows = make_rows(wide_schema(state.range(0)), 1 << 14, 1);
  for (auto _ : state) {
    BuiltHashTable ht(rows, {"k"});
    benchmark::DoNotOptimize(ht.table_bytes());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 14));
}
BENCHMARK(BM_BuildByRecordWidth)->Arg(2)->Arg(4)->Arg(11)->Arg(21);

void BM_EndToEndHashJoin(benchmark::State& state) {
  const auto left = make_rows(wide_schema(4), state.range(0), 1);
  const auto right = make_rows(wide_schema(4), state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hash_join(*left, *right, {"k"}, SubTableId{9, 0}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_EndToEndHashJoin)->Arg(1 << 12)->Arg(1 << 16);

// --- Probe sweep, emitted as JSON -----------------------------------------

double probe_ns_per_tuple(const BuiltHashTable& ht, const SubTable& right,
                          const SchemaPtr& result_schema,
                          JoinStats* last = nullptr) {
  using clock = std::chrono::steady_clock;
  double best = 0;
  std::size_t iters = 0;
  const auto deadline = clock::now() + std::chrono::milliseconds(300);
  do {
    SubTable out(result_schema, SubTableId{9, 0});
    const auto t0 = clock::now();
    auto stats = ht.probe(right, {"k"}, out);
    const auto t1 = clock::now();
    benchmark::DoNotOptimize(stats.result_tuples);
    if (last) *last = stats;
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(right.num_rows());
    if (best == 0 || ns < best) best = ns;
    ++iters;
  } while (clock::now() < deadline || iters < 3);
  return best;
}

// --- Small pairs: the shapes the QES joins most often ----------------------

/// A sub-table of the (x, y, z) f32 grid points in [x0, x0 + nx) x
/// [y0, y0 + ny) x [z0, z0 + nz) plus one f32 payload `payload`, with its
/// bounds declared, as a chunk read from storage has.
std::shared_ptr<SubTable> grid_block(const std::string& payload, int x0,
                                     int nx, int y0, int ny, int z0, int nz) {
  auto st = std::make_shared<SubTable>(
      Schema::make({{"x", AttrType::Float32},
                    {"y", AttrType::Float32},
                    {"z", AttrType::Float32},
                    {payload, AttrType::Float32}}),
      SubTableId{1, 0});
  float serial = 0;
  for (int z = z0; z < z0 + nz; ++z) {
    for (int y = y0; y < y0 + ny; ++y) {
      for (int x = x0; x < x0 + nx; ++x) {
        const Value v[] = {Value(float(x)), Value(float(y)), Value(float(z)),
                           Value(serial++)};
        st->append_values(v);
      }
    }
  }
  st->compute_bounds();
  return st;
}

/// Best-of-repeats host ns per call of `fn`, timed over batches of `batch`
/// calls for at least 300 ms.
template <typename F>
double ns_per_call(std::size_t batch, F&& fn) {
  using clock = std::chrono::steady_clock;
  double best = 0;
  std::size_t rounds = 0;
  const auto deadline = clock::now() + std::chrono::milliseconds(300);
  do {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double ns = std::chrono::duration<double, std::nano>(
                          clock::now() - t0)
                          .count() /
                      static_cast<double>(batch);
    if (best == 0 || ns < best) best = ns;
    ++rounds;
  } while (clock::now() < deadline || rounds < 3);
  return best;
}

/// One small pair through PairJoin, as the QES runs it: ns per build of
/// the left side and ns per probe call of the right side.
struct PairPoint {
  const char* shape;
  std::shared_ptr<SubTable> left, right;
};

void run_pairs(std::FILE* f) {
  // session_mix: an 8^3 left chunk and a 4^3 right chunk inside it; every
  // right row matches one left row, and no key attribute is tested. fig4
  // at s = 32: crossed 256-row strips (32 x 8 against 1 x 256), which meet
  // in 8 points; the clip drops the other 248 right rows.
  const PairPoint points[] = {
      {"session_mix", grid_block("oilp", 0, 8, 0, 8, 0, 8),
       grid_block("wp", 4, 4, 0, 4, 4, 4)},
      {"fig4_s32", grid_block("oilp", 0, 32, 0, 8, 0, 1),
       grid_block("wp", 5, 1, 0, 256, 0, 1)},
  };
  const std::vector<std::string> keys{"x", "y", "z"};
  bool first = true;
  for (const PairPoint& p : points) {
    const auto result_schema = std::make_shared<const Schema>(
        Schema::join_result(p.left->schema(), p.right->schema(),
                            JoinKey::resolve(p.right->schema(), keys)
                                .attr_indices()));
    PairJoin pairs(result_schema, keys);
    const double build_ns = ns_per_call(256, [&] {
      benchmark::DoNotOptimize(pairs.build(p.left));
    });
    const auto table = pairs.build(p.left);
    std::size_t result_rows = 0;
    const double probe_ns = ns_per_call(1024, [&] {
      result_rows = pairs.probe(*table, *p.right, SubTableId{9, 0}).num_rows();
    });
    if (!first) std::fprintf(f, ",\n");
    first = false;
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"build_rows\": %zu, "
                 "\"probe_rows\": %zu, \"result_rows\": %zu, "
                 "\"build_ns\": %.1f, \"probe_call_ns\": %.1f}",
                 p.shape, p.left->num_rows(), p.right->num_rows(), result_rows,
                 build_ns, probe_ns);
    std::fprintf(stderr, "pair %s build=%zu probe=%zu out=%zu: build %.0fns "
                 "probe %.0fns\n", p.shape, p.left->num_rows(),
                 p.right->num_rows(), result_rows, build_ns, probe_ns);
  }
}

void run_sweep(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"join_kernel_probe_sweep\",\n");
  std::fprintf(f, "  \"record_bytes\": %zu,\n", wide_schema(4)->record_size());
  std::fprintf(f, "  \"partition_bytes\": %zu,\n  \"points\": [\n",
               BuiltHashTable::kPartitionBytes);
  bool first = true;
  for (int lg = 14; lg <= 20; ++lg) {
    const std::size_t n = std::size_t{1} << lg;
    const auto left = make_rows(wide_schema(4), n, 1);
    const auto right = make_rows(wide_schema(4), n, 2, n);
    auto result_schema = std::make_shared<const Schema>(Schema::join_result(
        left->schema(), right->schema(),
        JoinKey::resolve(right->schema(), {"k"}).attr_indices()));
    const BuiltHashTable ht(left, {"k"});
    const double ns = probe_ns_per_tuple(ht, *right, result_schema);
    if (!first) std::fprintf(f, ",\n");
    first = false;
    std::fprintf(f,
                 "    {\"build_rows\": %zu, \"table_bytes\": %zu, "
                 "\"partitions\": %zu, \"ns_per_tuple\": %.2f}",
                 n, ht.table_bytes(), ht.num_partitions(), ns);
    std::fprintf(stderr, "sweep rows=%zu table=%zuKiB parts=%zu probe=%.1fns\n",
                 n, ht.table_bytes() >> 10, ht.num_partitions(), ns);
  }
  // Key-box clip: the right keys are uniform over a space 100/pct times
  // the build side's, so about pct% of probe rows lie in its key box. The
  // build side declares its bounds, as a chunk read from storage does, and
  // the probe side declares none, so every probe row is tested.
  std::fprintf(f, "\n  ],\n  \"clip_points\": [\n");
  const std::size_t n = std::size_t{1} << 16;
  const auto left = make_rows(wide_schema(4), n, 1);
  left->compute_bounds();
  const BuiltHashTable ht(left, {"k"});
  first = true;
  for (const int pct : {100, 25, 3}) {
    const auto right = make_rows(wide_schema(4), n, 3, n * 100 / pct);
    auto result_schema = std::make_shared<const Schema>(Schema::join_result(
        left->schema(), right->schema(),
        JoinKey::resolve(right->schema(), {"k"}).attr_indices()));
    JoinStats stats;
    const double ns = probe_ns_per_tuple(ht, *right, result_schema, &stats);
    if (!first) std::fprintf(f, ",\n");
    first = false;
    std::fprintf(f,
                 "    {\"build_rows\": %zu, \"overlap_pct\": %d, "
                 "\"charged_rows\": %llu, \"clipped_rows\": %llu, "
                 "\"ns_per_tuple\": %.2f}",
                 n, pct, static_cast<unsigned long long>(stats.probe_tuples),
                 static_cast<unsigned long long>(stats.probe_rows_clipped), ns);
    std::fprintf(stderr,
                 "clip rows=%zu overlap=%d%% clipped=%llu probe=%.1fns\n", n, pct,
                 static_cast<unsigned long long>(stats.probe_rows_clipped), ns);
  }
  std::fprintf(f, "\n  ],\n  \"pair_points\": [\n");
  run_pairs(f);
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string sweep_path = "BENCH_join_kernel.json";
  bool sweep_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sweep_json=", 13) == 0) {
      sweep_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--sweep_only") == 0) {
      sweep_only = true;
    }
  }
  run_sweep(sweep_path);
  if (sweep_only) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
