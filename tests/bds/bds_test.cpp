// Basic Data Source Service: produce/fetch semantics, locality checks,
// virtual-time charging, concurrent request pipelining, stats.

#include "bds/bds.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "datagen/generator.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

struct Rig {
  GeneratedDataset ds;
  sim::Engine engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<BdsService> bds;

  explicit Rig(std::size_t n_storage = 2, std::size_t n_compute = 2,
               double disk_seek = 0.0) {
    DatasetSpec spec;
    spec.grid = {8, 8, 8};
    spec.part1 = {4, 4, 4};
    spec.part2 = {4, 4, 4};
    spec.num_storage_nodes = n_storage;
    ds = generate_dataset(spec);
    ClusterSpec cspec;
    cspec.num_storage = n_storage;
    cspec.num_compute = n_compute;
    cspec.hw.disk_seek = disk_seek;
    cluster = std::make_unique<Cluster>(engine, cspec);
    bds = std::make_unique<BdsService>(*cluster, ds.meta, ds.stores);
  }
};

TEST(Bds, ProduceReturnsCorrectSubTable) {
  Rig rig;
  const auto& cm = rig.ds.meta.chunks(1)[0];
  std::shared_ptr<const SubTable> got;
  auto proc = [](BdsService& bds, SubTableId id,
                 std::shared_ptr<const SubTable>& out) -> sim::Task<> {
    out = co_await bds.instance_for(id).produce(id);
  };
  rig.engine.spawn(proc(*rig.bds, cm.id, got));
  rig.engine.run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->id(), cm.id);
  EXPECT_EQ(got->num_rows(), 64u);
  EXPECT_EQ(got->bounds(), cm.bounds);
  // Virtual time advanced by at least the disk read time.
  EXPECT_GE(rig.engine.now(),
            cm.location.size / rig.cluster->spec().hw.disk_read_bw * 0.99);
}

TEST(Bds, ProduceRejectsRemoteChunk) {
  Rig rig;
  // Find a chunk on node 1 and ask node 0's instance for it.
  SubTableId remote{};
  for (const auto& cm : rig.ds.meta.chunks(1)) {
    if (cm.location.storage_node == 1) {
      remote = cm.id;
      break;
    }
  }
  bool threw = false;
  auto proc = [](BdsService& bds, SubTableId id, bool& flag) -> sim::Task<> {
    try {
      co_await bds.instance(0).produce(id);
    } catch (const InvalidArgument&) {
      flag = true;
    }
  };
  rig.engine.spawn(proc(*rig.bds, remote, threw));
  rig.engine.run();
  EXPECT_TRUE(threw);
}

TEST(Bds, FetchToComputeChargesNetwork) {
  Rig rig;
  const auto& cm = rig.ds.meta.chunks(1)[0];
  auto proc = [](BdsService& bds, SubTableId id) -> sim::Task<> {
    co_await bds.instance_for(id).fetch_to_compute(id, 0);
  };
  rig.engine.spawn(proc(*rig.bds, cm.id));
  rig.engine.run();
  const double record_bytes = 64.0 * 16;
  EXPECT_DOUBLE_EQ(rig.cluster->network_bytes(), record_bytes);
  // Pipelined fetch: completion is at least the slowest stage (NIC).
  EXPECT_GE(rig.engine.now(),
            record_bytes / rig.cluster->spec().hw.nic_bw * 0.99);
}

TEST(Bds, ConcurrentFetchesPipelineThroughOneDisk) {
  Rig rig(1, 2);
  // All chunks sit on one storage node; two compute nodes each fetch half
  // of T1. Pipelining should keep total time near max(disk, nic) for the
  // whole table, not the sum of both.
  auto fetch_list = [](BdsService& bds, std::vector<SubTableId> ids,
                       std::size_t dest) -> sim::Task<> {
    for (const auto id : ids) {
      co_await bds.instance_for(id).fetch_to_compute(id, dest);
    }
  };
  std::vector<SubTableId> a, b;
  for (const auto& cm : rig.ds.meta.chunks(1)) {
    (cm.id.chunk % 2 ? a : b).push_back(cm.id);
  }
  rig.engine.spawn(fetch_list(*rig.bds, a, 0));
  rig.engine.spawn(fetch_list(*rig.bds, b, 1));
  rig.engine.run();
  const double total_bytes = static_cast<double>(rig.ds.meta.table_bytes(1));
  const double disk_time = total_bytes / rig.cluster->spec().hw.disk_read_bw;
  const double nic_time =
      512.0 * 16 / rig.cluster->spec().hw.nic_bw;  // single storage NIC
  const double lower = std::max(disk_time, nic_time);
  EXPECT_GE(rig.engine.now(), 0.99 * lower);
  EXPECT_LE(rig.engine.now(), 1.3 * lower);
}

TEST(Bds, StatsAccumulate) {
  Rig rig;
  auto proc = [](BdsService& bds, const MetaDataService& meta)
      -> sim::Task<> {
    for (const auto& cm : meta.chunks(1)) {
      co_await bds.instance_for(cm.id).fetch_to_compute(cm.id, 0);
    }
  };
  rig.engine.spawn(proc(*rig.bds, rig.ds.meta));
  rig.engine.run();
  const auto stats = rig.bds->total_stats();
  EXPECT_EQ(stats.subtables_served, 8u);
  EXPECT_EQ(stats.chunk_bytes_read, rig.ds.meta.table_bytes(1));
  EXPECT_EQ(stats.subtable_bytes_shipped, 512u * 16);
}

using SubTables = std::vector<std::shared_ptr<const SubTable>>;

sim::Task<> fetch_batch(BdsInstance& bds, std::vector<SubTableId> ids,
                        SubTables& out) {
  out = co_await bds.fetch_batch_to_compute(std::move(ids), 0);
}

sim::Task<> fetch_each(BdsInstance& bds, std::vector<SubTableId> ids,
                       SubTables& out) {
  for (const auto id : ids) {
    out.push_back(co_await bds.fetch_to_compute(id, 0));
  }
}

TEST(Bds, BatchFetchCoalescesAnAdjacentRunIntoOneSeek) {
  // Table 1's chunks on storage node 0, in on-disk order: datagen appends
  // them to one file, so consecutive ones are adjacent.
  Rig batch_rig(2, 2, /*disk_seek=*/0.01);
  std::vector<const ChunkMeta*> on_disk;
  for (const auto& cm : batch_rig.ds.meta.chunks(1)) {
    if (cm.location.storage_node == 0) on_disk.push_back(&cm);
  }
  std::sort(on_disk.begin(), on_disk.end(), [](const auto* a, const auto* b) {
    return a->location.offset < b->location.offset;
  });
  std::vector<SubTableId> ids;
  double bytes = 0;
  for (std::size_t i = 0; i < on_disk.size(); ++i) {
    if (i > 0 && !on_disk[i - 1]->location.followed_by(on_disk[i]->location)) {
      break;
    }
    ids.push_back(on_disk[i]->id);
    bytes += static_cast<double>(on_disk[i]->location.size);
  }
  ASSERT_GE(ids.size(), 3u);
  // The caller's order is not the disk order.
  std::reverse(ids.begin(), ids.end());

  SubTables batch;
  batch_rig.engine.spawn(
      fetch_batch(batch_rig.bds->instance(0), ids, batch));
  batch_rig.engine.run();
  Rig single_rig(2, 2, /*disk_seek=*/0.01);
  SubTables singles;
  single_rig.engine.spawn(
      fetch_each(single_rig.bds->instance(0), ids, singles));
  single_rig.engine.run();

  ASSERT_EQ(batch.size(), ids.size());
  ASSERT_EQ(singles.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(batch[i]->id(), ids[i]);
    EXPECT_EQ(batch[i]->unordered_fingerprint(),
              singles[i]->unordered_fingerprint());
  }
  const auto& hw = batch_rig.cluster->spec().hw;
  const double k = static_cast<double>(ids.size());
  EXPECT_NEAR(batch_rig.cluster->storage_disk(0).busy_time(),
              bytes / hw.disk_read_bw + hw.disk_seek, 1e-12);
  EXPECT_NEAR(single_rig.cluster->storage_disk(0).busy_time(),
              bytes / hw.disk_read_bw + k * hw.disk_seek, 1e-12);
}

TEST(Bds, BatchOfOneMatchesSingleFetch) {
  // The single fetch is the shared serve body run over one id, so a batch
  // of one must charge, ship and count exactly the same.
  Rig batch_rig;
  Rig single_rig;
  const SubTableId id = batch_rig.ds.meta.chunks(1)[0].id;
  BdsInstance& batch_bds = batch_rig.bds->instance_for(id);
  SubTables batch;
  SubTables single;
  batch_rig.engine.spawn(fetch_batch(batch_bds, {id}, batch));
  batch_rig.engine.run();
  single_rig.engine.spawn(
      fetch_each(single_rig.bds->instance_for(id), {id}, single));
  single_rig.engine.run();

  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(batch[0]->unordered_fingerprint(),
            single[0]->unordered_fingerprint());
  EXPECT_GT(batch_rig.engine.now(), 0.0);
  EXPECT_EQ(batch_rig.engine.now(), single_rig.engine.now());
  EXPECT_EQ(batch_rig.cluster->network_bytes(),
            single_rig.cluster->network_bytes());
  const BdsStats b = batch_rig.bds->total_stats();
  const BdsStats s = single_rig.bds->total_stats();
  EXPECT_EQ(b.subtables_served, 1u);
  EXPECT_EQ(b.subtables_served, s.subtables_served);
  EXPECT_EQ(b.chunk_bytes_read, s.chunk_bytes_read);
  EXPECT_EQ(b.subtable_bytes_shipped, s.subtable_bytes_shipped);
  // The ship carries the extracted rows, not the stored chunk's framing.
  EXPECT_LT(b.subtable_bytes_shipped, b.chunk_bytes_read);
}

TEST(Bds, ServiceValidatesStoreCount) {
  Rig rig;
  std::vector<std::shared_ptr<ChunkStore>> too_few = {rig.ds.stores[0]};
  EXPECT_THROW(BdsService(*rig.cluster, rig.ds.meta, too_few),
               InvalidArgument);
}

}  // namespace
}  // namespace orv
