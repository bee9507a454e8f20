#include "bds/bds.hpp"

#include <algorithm>
#include <tuple>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "net/aggregator.hpp"
#include "obs/obs.hpp"
#include "sim/event.hpp"

namespace orv {

SubTable load_chunk(const ChunkStore& store, const ChunkMeta& cm,
                    const std::vector<AttrRange>* ranges) {
  SubTable st = extract_chunk(store.read(cm.location));
  ORV_CHECK(st.id() == cm.id, "extracted sub-table id mismatch");
  if (ranges == nullptr || ranges->empty()) return st;
  return filter_rows(std::move(st), *ranges);
}

BdsInstance::BdsInstance(Cluster& cluster, std::size_t storage_node,
                         const MetaDataService& meta,
                         std::shared_ptr<const ChunkStore> store)
    : cluster_(cluster),
      node_(storage_node),
      meta_(meta),
      store_(std::move(store)) {
  ORV_REQUIRE(store_ != nullptr, "BDS instance needs a chunk store");
}

const ChunkMeta& BdsInstance::local_chunk(SubTableId id) const {
  const ChunkMeta& cm = meta_.chunk(id);
  ORV_REQUIRE(cm.location.storage_node == node_,
              "BDS instance asked for a chunk on another node: " +
                  cm.location.to_string());
  return cm;
}

sim::Task<> BdsInstance::fault_gate(fault::FaultInjector& inj, SubTableId id,
                                    bool remote) {
  if (inj.storage_down(node_)) {
    inj.note_crash_observed(fault::NodeKind::Storage, node_);
    const double timeout = inj.plan().retry.fetch_timeout;
    const double up_at = inj.storage_recovery_time(node_);
    if (remote && timeout > 0 && up_at > cluster_.engine().now() + timeout) {
      // The compute-side caller gives up after the RPC timeout; the
      // retry loop around the fetch decides whether to try again.
      co_await cluster_.engine().sleep(timeout);
      throw fault::TimeoutError(
          "fetch of " + id.to_string() + " timed out: storage node " +
          std::to_string(node_) + " is down");
    }
    if (up_at == fault::kNever) {
      throw fault::FaultError("storage node " + std::to_string(node_) +
                              " permanently lost; chunk " + id.to_string() +
                              " is unreadable");
    }
    // Otherwise the request stalls on the dead node until it serves again.
    co_await cluster_.engine().wait_until(up_at);
  }
  inj.maybe_fail_chunk_read(node_);
}

void BdsInstance::count(std::uint64_t subtables, std::uint64_t chunk_bytes,
                        std::uint64_t shipped_bytes) {
  stats_ += BdsStats{subtables, chunk_bytes, shipped_bytes};
  auto* ctx = obs::context();
  if (!ctx) return;
  ctx->registry.counter("bds.subtables_served").add(subtables);
  ctx->registry.counter("bds.chunk_bytes_read").add(chunk_bytes);
  if (shipped_bytes) {
    ctx->registry.counter("bds.subtable_bytes_shipped").add(shipped_bytes);
  }
}

sim::Task<std::shared_ptr<const SubTable>> BdsInstance::produce(
    SubTableId id, obs::TraceContext rpc) {
  const ChunkMeta& cm = local_chunk(id);
  obs::StageScope stage(obs::context(), "bds.produce", rpc.parent);
  stage.tag("storage_node", static_cast<std::uint64_t>(node_));
  if (auto* inj = fault::context()) co_await fault_gate(*inj, id, false);

  // Charge the chunk read to the local disk, then the extraction to this
  // node's CPU; the real read + extraction happen at the completion time.
  const double bytes = static_cast<double>(cm.location.size);
  co_await cluster_.storage_disk(node_).read(bytes);
  co_await cluster_.storage_cpu(node_).use(kExtractOpsPerByte * bytes);
  auto st = std::make_shared<const SubTable>(load_chunk(*store_, cm));
  count(1, cm.location.size, 0);
  co_return st;
}

sim::Task<std::shared_ptr<const SubTable>> BdsInstance::fetch_to_compute(
    SubTableId id, std::size_t compute_node, obs::TraceContext rpc) {
  const ChunkMeta* cm = &local_chunk(id);
  std::shared_ptr<const SubTable> st;
  co_await serve(std::span<const ChunkMeta*>(&cm, 1),
                 std::span<std::shared_ptr<const SubTable>>(&st, 1),
                 compute_node, rpc, /*batch=*/false);
  co_return st;
}

sim::Task<std::vector<std::shared_ptr<const SubTable>>>
BdsInstance::fetch_batch_to_compute(std::vector<SubTableId> ids,
                                    std::size_t compute_node,
                                    obs::TraceContext rpc) {
  ORV_REQUIRE(!ids.empty(), "batch fetch needs at least one id");
  std::vector<const ChunkMeta*> chunks;
  chunks.reserve(ids.size());
  for (const auto& id : ids) chunks.push_back(&local_chunk(id));
  std::vector<std::shared_ptr<const SubTable>> out(ids.size());
  co_await serve(chunks, out, compute_node, rpc, /*batch=*/true);
  co_return out;
}

sim::Task<> BdsInstance::serve(std::span<const ChunkMeta*> chunks,
                               std::span<std::shared_ptr<const SubTable>> out,
                               std::size_t compute_node,
                               obs::TraceContext rpc, bool batch) {
  obs::StageScope stage(obs::context(), "bds.fetch", rpc.parent);
  stage.tag("storage_node", static_cast<std::uint64_t>(node_));
  stage.tag("compute_node", static_cast<std::uint64_t>(compute_node));
  if (batch) stage.tag("batch", static_cast<std::uint64_t>(chunks.size()));
  if (auto* inj = fault::context(); inj != nullptr && !batch) {
    co_await fault_gate(*inj, chunks[0]->id, /*remote=*/true);
  }

  // Streamed shipping: the chunks are read, extracted and sent in a
  // pipeline, so the request completes when the most-loaded stage does
  // (this is what lets the cost models' min(Net_bw, readIO_bw * n_s)
  // describe the transfer phase). The real reads + extraction happen
  // "instantly" at the virtual completion time, in the caller's order.
  std::uint64_t chunk_bytes = 0;
  std::uint64_t shipped_bytes = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    out[i] = std::make_shared<const SubTable>(load_chunk(*store_, *chunks[i]));
    chunk_bytes += chunks[i]->location.size;
    shipped_bytes += out[i]->size_bytes();
  }

  // One disk reservation per on-disk-adjacent run: a run pays a single
  // seek, and the spindle's FCFS queue serializes the runs, so the last
  // reservation is the read completion time.
  std::sort(chunks.begin(), chunks.end(),
            [](const ChunkMeta* a, const ChunkMeta* b) {
              return std::tie(a->location.file_no, a->location.offset) <
                     std::tie(b->location.file_no, b->location.offset);
            });
  sim::Time read_done = cluster_.engine().now();
  std::uint64_t num_runs = 0;
  for (std::size_t i = 0; i < chunks.size(); ++num_runs) {
    double run_bytes = static_cast<double>(chunks[i]->location.size);
    for (++i; i < chunks.size() &&
              chunks[i - 1]->location.followed_by(chunks[i]->location);
         ++i) {
      run_bytes += static_cast<double>(chunks[i]->location.size);
    }
    read_done = cluster_.storage_disk(node_).reserve_read(run_bytes);
  }
  const sim::Time extract_done = cluster_.storage_cpu(node_).reserve(
      kExtractOpsPerByte * static_cast<double>(chunk_bytes));

  const double ship_bytes = static_cast<double>(shipped_bytes);
  auto* agg = net::context();
  if (agg != nullptr && !cluster_.is_local(node_, compute_node)) {
    // Aggregated reply: the egress (source NIC + switch) is charged by the
    // combined frame that carries this reply, so co-destined replies share
    // one per-message overhead. The deliver closure charges the compute
    // NIC — the same byte totals the 3-hop transfer books.
    auto delivered = std::make_shared<sim::Event>(cluster_.engine());
    Cluster* cluster = &cluster_;
    agg->post(node_, compute_node, ship_bytes, stage.id(),
              [cluster, compute_node, ship_bytes,
               delivered]() -> sim::Task<> {
                co_await cluster->compute_ingress(compute_node, ship_bytes);
                delivered->set();
              });
    co_await cluster_.engine().wait_until(std::max(read_done, extract_done));
    co_await delivered->wait();
  } else {
    const sim::Time sent =
        cluster_.reserve_transfer(node_, compute_node, ship_bytes);
    // Nested max: a braced initializer_list here would hit a gcc-12
    // coroutine-frame bug ("array used as initializer").
    co_await cluster_.engine().wait_until(
        std::max(read_done, std::max(extract_done, sent)));
  }

  count(chunks.size(), chunk_bytes, shipped_bytes);
  if (auto* ctx = obs::context(); ctx && batch) {
    ctx->registry.counter("bds.coalesced_runs").add(num_runs);
    ctx->registry.counter("bds.coalesced_chunks").add(chunks.size());
  }
}

BdsService::BdsService(Cluster& cluster, const MetaDataService& meta,
                       std::vector<std::shared_ptr<ChunkStore>> stores)
    : meta_(meta) {
  ORV_REQUIRE(stores.size() == cluster.num_storage(),
              "one chunk store per storage node required");
  for (std::size_t i = 0; i < stores.size(); ++i) {
    instances_.push_back(
        std::make_unique<BdsInstance>(cluster, i, meta, stores[i]));
  }
}

BdsInstance& BdsService::instance(std::size_t storage_node) {
  ORV_REQUIRE(storage_node < instances_.size(),
              "storage node index out of range");
  return *instances_[storage_node];
}

BdsInstance& BdsService::instance_for(SubTableId id) {
  return instance(meta_.chunk(id).location.storage_node);
}

BdsStats BdsService::total_stats() const {
  BdsStats total;
  for (const auto& inst : instances_) total += inst->stats();
  return total;
}

}  // namespace orv
