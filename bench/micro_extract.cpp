// Microbenchmark of the extractor functions: chunk-parse throughput per
// layout. Validates the paper's assumption that extraction cost is much
// less than the I/O cost of retrieving the chunk (GB/s here vs tens of
// MB/s disks). Also times the record-level range selection and the
// bounds pass that run on every extracted sub-table, and the CRC-32 that
// verifies every chunk read.

#include <benchmark/benchmark.h>

#include "common/bytes.hpp"
#include "datagen/generator.hpp"
#include "extract/extractor.hpp"
#include "meta/metadata.hpp"

namespace {

using namespace orv;

constexpr std::size_t kSampleRows = 1 << 16;

SubTable sample_table(std::size_t rows) {
  auto schema = Schema::make({{"x", AttrType::Float32},
                              {"y", AttrType::Float32},
                              {"z", AttrType::Float32},
                              {"oilp", AttrType::Float32}});
  SubTable st(schema, SubTableId{1, 0});
  std::vector<Value> vals(4, Value(0.0f));
  for (std::size_t r = 0; r < rows; ++r) {
    vals[0] = Value(static_cast<float>(r % 64));
    vals[1] = Value(static_cast<float>((r / 64) % 64));
    vals[2] = Value(static_cast<float>(r / 4096));
    vals[3] = Value(static_cast<float>(r) * 0.001f);
    st.append_values(vals);
  }
  st.compute_bounds();
  return st;
}

void run_extract(benchmark::State& state, LayoutId layout) {
  const auto chunk = make_chunk(sample_table(kSampleRows), layout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_chunk(chunk));
  }
  state.SetBytesProcessed(state.iterations() * chunk.size());
}

void BM_ExtractRowMajor(benchmark::State& state) {
  run_extract(state, LayoutId::RowMajor);
}
void BM_ExtractColMajor(benchmark::State& state) {
  run_extract(state, LayoutId::ColMajor);
}
void BM_ExtractBlockedRows(benchmark::State& state) {
  run_extract(state, LayoutId::BlockedRows);
}
BENCHMARK(BM_ExtractRowMajor);
BENCHMARK(BM_ExtractColMajor);
BENCHMARK(BM_ExtractBlockedRows);

void BM_EncodeChunk(benchmark::State& state) {
  auto schema = Schema::make({{"x", AttrType::Float32},
                              {"y", AttrType::Float32},
                              {"z", AttrType::Float32},
                              {"oilp", AttrType::Float32}});
  SubTable st(schema, SubTableId{1, 0});
  std::vector<Value> vals(4, Value(1.0f));
  for (std::size_t r = 0; r < (1 << 16); ++r) st.append_values(vals);
  st.compute_bounds();
  const auto layout = static_cast<LayoutId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_chunk(st, layout));
  }
  state.SetBytesProcessed(state.iterations() * st.size_bytes());
}
BENCHMARK(BM_EncodeChunk)->Arg(0)->Arg(1)->Arg(2);

// x cycles through 0..63, so x IN [0, arg - 0.5] keeps arg/64 of the rows
// in runs of arg: 64 keeps all, 32 keeps half, 0 keeps none.
void BM_FilterRows(benchmark::State& state) {
  const SubTable st = sample_table(kSampleRows);
  const std::vector<AttrRange> ranges = {
      {"x", Interval{0, static_cast<double>(state.range(0)) - 0.5}}};
  std::size_t kept = 0;
  for (auto _ : state) {
    const SubTable out = filter_rows(st, ranges);
    kept = out.num_rows();
    benchmark::DoNotOptimize(out.bytes().data());
  }
  state.counters["kept_frac"] = static_cast<double>(kept) / st.num_rows();
  state.SetItemsProcessed(state.iterations() * st.num_rows());
}
BENCHMARK(BM_FilterRows)->Arg(64)->Arg(32)->Arg(0);

void BM_ComputeBounds(benchmark::State& state) {
  SubTable st = sample_table(kSampleRows);
  for (auto _ : state) {
    st.compute_bounds();
    benchmark::DoNotOptimize(st.bounds()[0].hi);
  }
  state.SetItemsProcessed(state.iterations() * st.num_rows());
}
BENCHMARK(BM_ComputeBounds);

// Checksum of every chunk read: the dispatched crc32 kernel at a page-sized
// and a chunk-sized input.
void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 2654435761u >> 24);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
