// The local executor's page-index join, differentially against
// nested_loop_join over the whole selected tables: random grids cut into
// partitions that do not line up between the two tables, both payload
// layouts, duplicate keys, per-side ranges on key and non-key attributes
// (disjoint and empty ones too), aggregates over the join, one read per
// chunk per query, and the hash_join fallback for derived inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>

#include "common/prng.hpp"
#include "dds/aggregate.hpp"
#include "dds/local_executor.hpp"
#include "extract/extractor.hpp"
#include "graph/connectivity.hpp"
#include "join/hash_join.hpp"
#include "qes/qes.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

/// A memory store that counts the reads of each chunk.
class CountingStore final : public ChunkStore {
 public:
  std::vector<std::byte> read(const ChunkLocation& loc) const override {
    ++reads[{loc.file_no, loc.offset}];
    return inner_.read(loc);
  }
  ChunkLocation append(std::uint32_t file_no,
                       std::span<const std::byte> bytes) override {
    return inner_.append(file_no, bytes);
  }
  std::uint64_t total_bytes() const override { return inner_.total_bytes(); }

  mutable std::map<std::pair<std::uint32_t, std::uint64_t>, int> reads;

 private:
  MemoryChunkStore inner_;
};

/// Sorted cut points 0 = c0 < c1 < ... < extent, at random positions.
std::vector<std::uint64_t> cuts(Xoshiro256StarStar& rng,
                                std::uint64_t extent) {
  std::vector<std::uint64_t> c{0};
  for (std::uint64_t v = 1; v < extent; ++v) {
    if (rng.below(3) == 0) c.push_back(v);
  }
  c.push_back(extent);
  return c;
}

struct Dataset {
  MetaDataService meta;
  std::vector<std::shared_ptr<CountingStore>> stores;

  std::vector<std::shared_ptr<ChunkStore>> chunk_stores() const {
    return {stores.begin(), stores.end()};
  }
  void reset_reads() {
    for (auto& s : stores) s->reads.clear();
  }
  int max_reads() const {
    int most = 0;
    for (const auto& s : stores) {
      for (const auto& [loc, n] : s->reads) most = std::max(most, n);
    }
    return most;
  }
};

/// Stores `rows` as one chunk of table `id.table` on storage node `node`.
void store_chunk(Dataset& ds, const SchemaPtr& schema, SubTableId id,
                 const std::vector<std::vector<float>>& rows, LayoutId layout,
                 std::size_t node) {
  SubTable st(schema, id);
  for (const auto& row : rows) st.append_row(std::as_bytes(std::span(row)));
  st.compute_bounds();
  ChunkLocation loc = ds.stores[node]->append(id.table, make_chunk(st, layout));
  loc.storage_node = static_cast<std::uint32_t>(node);
  ChunkMeta cm;
  cm.id = st.id();
  cm.location = loc;
  cm.layout = layout;
  cm.schema = schema;
  cm.bounds = st.bounds();
  cm.num_rows = st.num_rows();
  cm.extractors = {ExtractorRegistry::global().for_layout(layout).name()};
  ds.meta.add_chunk(std::move(cm));
}

/// Writes table `id` over a gx*gy*gz grid: (x, y, z, payload) as f32, each
/// point once, about one in eight twice (a second payload), cut into chunks
/// at random per-dimension positions, rows shuffled inside each chunk.
void write_table(Dataset& ds, Xoshiro256StarStar& rng, TableId id,
                 const std::string& payload, LayoutId layout,
                 std::uint64_t gx, std::uint64_t gy, std::uint64_t gz) {
  const auto schema = Schema::make({{"x", AttrType::Float32},
                                    {"y", AttrType::Float32},
                                    {"z", AttrType::Float32},
                                    {payload, AttrType::Float32}});
  ds.meta.register_table(id, "T" + std::to_string(id), schema);
  const auto cx = cuts(rng, gx), cy = cuts(rng, gy), cz = cuts(rng, gz);
  ChunkId chunk = 0;
  for (std::size_t i = 0; i + 1 < cx.size(); ++i) {
    for (std::size_t j = 0; j + 1 < cy.size(); ++j) {
      for (std::size_t k = 0; k + 1 < cz.size(); ++k) {
        std::vector<std::vector<float>> rows;
        for (auto x = cx[i]; x < cx[i + 1]; ++x) {
          for (auto y = cy[j]; y < cy[j + 1]; ++y) {
            for (auto z = cz[k]; z < cz[k + 1]; ++z) {
              const int copies = rng.below(8) == 0 ? 2 : 1;
              for (int c = 0; c < copies; ++c) {
                rows.push_back({float(x), float(y), float(z),
                                float(rng.uniform01())});
              }
            }
          }
        }
        for (std::size_t r = rows.size(); r > 1; --r) {
          std::swap(rows[r - 1], rows[rng.below(r)]);
        }
        store_chunk(ds, schema, SubTableId{id, chunk++}, rows, layout,
                    rng.below(ds.stores.size()));
      }
    }
  }
}

std::unique_ptr<Dataset> make_dataset(std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  auto ds = std::make_unique<Dataset>();
  for (int n = 0; n < 2; ++n) {
    ds->stores.push_back(std::make_shared<CountingStore>());
  }
  const std::uint64_t gx = 4 + rng.below(5), gy = 4 + rng.below(5),
                      gz = 2 + rng.below(5);
  const bool swap = rng.below(2) == 0;
  write_table(*ds, rng, 1, "oilp",
              swap ? LayoutId::ColMajor : LayoutId::RowMajor, gx, gy, gz);
  write_table(*ds, rng, 2, "wp",
              swap ? LayoutId::RowMajor : LayoutId::ColMajor, gx, gy, gz);
  return ds;
}

/// Random ranges for one side: none, or up to two over its key and
/// payload attributes, sometimes selecting nothing.
std::vector<AttrRange> random_ranges(Xoshiro256StarStar& rng,
                                     const std::string& payload) {
  std::vector<AttrRange> out;
  const std::size_t n = rng.below(3);
  const std::string names[] = {"x", "y", "z", payload};
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& attr = names[rng.below(4)];
    if (attr == payload) {
      const double lo = rng.uniform(0.0, 0.7);
      out.push_back({attr, {lo, lo + rng.uniform(0.0, 0.5)}});
    } else if (rng.below(8) == 0) {
      out.push_back({attr, {50, 60}});  // outside the grid: empty
    } else {
      const double lo = static_cast<double>(rng.below(6));
      out.push_back({attr, {lo, lo + static_cast<double>(rng.below(4))}});
    }
  }
  return out;
}

std::vector<std::string> random_key(Xoshiro256StarStar& rng) {
  switch (rng.below(3)) {
    case 0: return {"x", "y", "z"};
    case 1: return {"x", "y"};
    default: return {"z", "x"};
  }
}

ViewPtr selected(TableId t, std::vector<AttrRange> ranges) {
  if (ranges.empty()) return ViewDef::base(t);
  return ViewDef::select(ViewDef::base(t), std::move(ranges));
}

TEST(LocalJoin, MatchesNestedLoopOnRandomSelections) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    auto ds = make_dataset(seed);
    const LocalExecutor exec(ds->meta, ds->chunk_stores());
    Xoshiro256StarStar rng(seed * 7919);
    for (int q = 0; q < 4; ++q) {
      auto lr = random_ranges(rng, "oilp");
      auto rr = random_ranges(rng, "wp");
      if (q == 3) {  // disjoint ranges on a join attribute: no match
        lr.push_back({"x", {0, 1}});
        rr.push_back({"x", {2, 3}});
      }
      const auto key = random_key(rng);
      const auto view = ViewDef::join(selected(1, lr), selected(2, rr), key);

      ds->reset_reads();
      const SubTable got = exec.execute(*view);
      EXPECT_LE(ds->max_reads(), 1);

      const SubTable want =
          nested_loop_join(filter_rows(exec.scan(1, {}), lr),
                           filter_rows(exec.scan(2, {}), rr), key, {});
      ASSERT_EQ(got.num_rows(), want.num_rows());
      EXPECT_EQ(got.unordered_fingerprint(), want.unordered_fingerprint());
      EXPECT_EQ(got.schema(), want.schema());

      // Aggregates over the join fold each pair's rows as they come.
      const std::vector<AggSpec> aggs = {
          {AggSpec::Fn::Count, "", "n"},
          {AggSpec::Fn::Min, "wp", "lo"},
          {AggSpec::Fn::Max, "oilp", "hi"},
          {AggSpec::Fn::Avg, "wp", "avg"}};
      for (const std::vector<std::string>& group :
           {std::vector<std::string>{}, std::vector<std::string>{"z"}}) {
        ds->reset_reads();
        const SubTable agg =
            exec.execute(*ViewDef::aggregate(view, group, aggs));
        EXPECT_LE(ds->max_reads(), 1);
        GroupByAggregator ref(want.schema_ptr(), group, aggs);
        ref.consume(want);
        const SubTable expect = ref.finish();
        ASSERT_EQ(agg.num_rows(), expect.num_rows());
        const std::size_t g = group.size();
        for (std::size_t r = 0; r < agg.num_rows(); ++r) {
          for (std::size_t c = 0; c < g + 3; ++c) {
            EXPECT_EQ(agg.as_double(r, c), expect.as_double(r, c));
          }
          EXPECT_NEAR(agg.as_double(r, g + 3), expect.as_double(r, g + 3),
                      1e-9);
        }
      }
    }
  }
}

TEST(LocalJoin, DerivedInputRunsTheWholeInputHashJoin) {
  auto ds = make_dataset(3);
  const LocalExecutor exec(ds->meta, ds->chunk_stores());
  const std::vector<std::string> key = {"x", "y", "z"};
  const auto left = ViewDef::project(ViewDef::base(1), {"z", "y", "x", "oilp"});
  const auto right = ViewDef::select(ViewDef::base(2), {{"y", {1, 3}}});
  const SubTable got = exec.execute(*ViewDef::join(left, right, key));
  // hash_join emits nested_loop_join's bytes over the whole inputs, in
  // probe-row order; the page-index loop would emit component order.
  const SubTable want =
      nested_loop_join(exec.execute(*left), exec.execute(*right), key, {});
  ASSERT_EQ(got.num_rows(), want.num_rows());
  EXPECT_TRUE(std::equal(got.bytes().begin(), got.bytes().end(),
                         want.bytes().begin(), want.bytes().end()));
}

TEST(LocalJoin, EmptySelectionJoinsNothing) {
  auto ds = make_dataset(5);
  const LocalExecutor exec(ds->meta, ds->chunk_stores());
  ds->reset_reads();
  const auto view = ViewDef::join(selected(1, {{"x", {100, 200}}}),
                                  ViewDef::base(2), {"x", "y", "z"});
  EXPECT_EQ(exec.execute(*view).num_rows(), 0u);
  // The key range prunes the right side too: no chunk is read at all.
  EXPECT_EQ(ds->max_reads(), 0);
}

// A NaN key equals nothing, another NaN included, on every join path:
// tables {1, NaN} and {5, NaN} keyed on x share no row.
TEST(NanKeys, MatchNothingOnAnyJoinPath) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Dataset ds;
  ds.stores = {std::make_shared<CountingStore>()};
  const std::pair<TableId, float> tables[] = {{1, 1.0f}, {2, 5.0f}};
  for (const auto& [id, x] : tables) {
    const auto schema = Schema::make({{"x", AttrType::Float32},
                                      {id == 1 ? "oilp" : "wp",
                                       AttrType::Float32}});
    ds.meta.register_table(id, "T" + std::to_string(id), schema);
    store_chunk(ds, schema, SubTableId{id, 0}, {{x, 0.5f}, {nan, 0.25f}},
                LayoutId::RowMajor, 0);
  }
  const JoinQuery query{1, 2, {"x"}, {}};
  const auto stores = ds.chunk_stores();

  const LocalExecutor exec(ds.meta, stores);
  EXPECT_EQ(exec.execute(*ViewDef::join(ViewDef::base(1), ViewDef::base(2),
                                        {"x"}))
                .num_rows(),
            0u);
  const SubTable left = exec.execute(*ViewDef::base(1));
  const SubTable right = exec.execute(*ViewDef::base(2));
  EXPECT_EQ(hash_join(left, right, {"x"}, {}).num_rows(), 0u);
  EXPECT_EQ(nested_loop_join(left, right, {"x"}, {}).num_rows(), 0u);
  // A NaN key does not even equal itself.
  EXPECT_EQ(hash_join(left, left, {"x"}, {}).num_rows(), 1u);
  EXPECT_EQ(nested_loop_join(left, left, {"x"}, {}).num_rows(), 1u);
  EXPECT_EQ(reference_join(ds.meta, stores, query).result_tuples, 0u);
  EXPECT_EQ(nested_loop_reference(ds.meta, stores, query).result_tuples, 0u);

  ClusterSpec cspec;
  cspec.num_storage = 1;
  cspec.num_compute = 2;
  for (const bool indexed : {true, false}) {
    sim::Engine engine;
    Cluster cluster(engine, cspec);
    BdsService bds(cluster, ds.meta, stores);
    const QesResult r =
        indexed ? run_indexed_join(cluster, bds, ds.meta,
                                   ConnectivityGraph::build(ds.meta, 1, 2,
                                                            {"x"}),
                                   query)
                : run_grace_hash(cluster, bds, ds.meta, query);
    EXPECT_EQ(r.result_tuples, 0u) << (indexed ? "IJ" : "GH");
  }
}

}  // namespace
}  // namespace orv
