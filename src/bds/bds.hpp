#pragma once

// Basic Data Source Service (paper Section 4).
//
// A BDS instance executes on a storage node and serves sub-tables for the
// node's local chunks: it reads the chunk bytes from the local disk
// (charged to the simulated spindle), runs the extractor that matches the
// chunk's layout (charged to the storage node's CPU), and — when the
// requester is a compute node — ships the sub-table across the network.
//
// load_chunk() is the one "stored chunk -> selected sub-table" step, shared
// with the LocalExecutor and the reference oracles.

#include <memory>
#include <span>
#include <vector>

#include "chunkio/chunk_store.hpp"
#include "cluster/cluster.hpp"
#include "extract/extractor.hpp"
#include "meta/metadata.hpp"
#include "obs/span.hpp"
#include "sim/task.hpp"

namespace orv {

namespace fault {
class FaultInjector;
}

/// Per-node BDS statistics.
struct BdsStats {
  std::uint64_t subtables_served = 0;
  std::uint64_t chunk_bytes_read = 0;
  std::uint64_t subtable_bytes_shipped = 0;

  BdsStats& operator+=(const BdsStats& o) {
    subtables_served += o.subtables_served;
    chunk_bytes_read += o.chunk_bytes_read;
    subtable_bytes_shipped += o.subtable_bytes_shipped;
    return *this;
  }
};

/// Reads chunk `cm` from `store`, extracts it, checks that the sub-table
/// carries the chunk's id, and applies `ranges` with filter_rows() unless
/// `ranges` is null or empty. A chunk whose rows all pass comes back as
/// extracted, with no second copy. No virtual time is charged here.
SubTable load_chunk(const ChunkStore& store, const ChunkMeta& cm,
                    const std::vector<AttrRange>* ranges = nullptr);

/// Extractor CPU cost, in CPU ops per chunk byte. The paper assumes
/// extraction costs much less than the chunk's I/O, which holds here.
constexpr double kExtractOpsPerByte = 1.0;

class BdsInstance {
 public:
  BdsInstance(Cluster& cluster, std::size_t storage_node,
              const MetaDataService& meta,
              std::shared_ptr<const ChunkStore> store);

  std::size_t node() const { return node_; }
  const BdsStats& stats() const { return stats_; }

  /// Produces the basic sub-table (i, j) locally: disk read + extraction,
  /// charged one after the other. The chunk must live on this node. `rpc`
  /// is the caller's trace context; the storage-side span parents on it so
  /// cross-node requests assemble into one DAG. Passes the fault gate
  /// first; a local caller has no RPC timeout, so a down node stalls it.
  sim::Task<std::shared_ptr<const SubTable>> produce(
      SubTableId id, obs::TraceContext rpc = {});

  /// produce() followed by a network transfer of the whole sub-table's
  /// bytes to the given compute node, which applies any selection (as the
  /// paper does). The serve body run over one id, after the fault gate.
  sim::Task<std::shared_ptr<const SubTable>> fetch_to_compute(
      SubTableId id, std::size_t compute_node, obs::TraceContext rpc = {});

  /// Batched fetch_to_compute over several of this node's chunks, for the
  /// pipelined prefetcher: chunk reads that are adjacent on disk (same
  /// file, contiguous offsets — datagen appends a table's chunks in order,
  /// so this is common) coalesce into one multi-chunk disk reservation,
  /// paying one seek per run instead of one per chunk. Extraction and the
  /// network ship are likewise reserved once for the batch total. Results
  /// come back in the order of `ids`. Not fault-aware (it skips the fault
  /// gate): callers fall back to per-id fetches when an injector is
  /// installed.
  sim::Task<std::vector<std::shared_ptr<const SubTable>>>
  fetch_batch_to_compute(std::vector<SubTableId> ids, std::size_t compute_node,
                         obs::TraceContext rpc = {});

 private:
  /// The metadata of `id`, whose chunk must live on this node.
  const ChunkMeta& local_chunk(SubTableId id) const;

  /// The fault gate, run once per single-chunk request before any read
  /// when an injector is installed. While the node is down: a remote
  /// caller (`remote`) gives up after the plan's RPC timeout with a
  /// TimeoutError if the node stays down longer; a permanently lost node
  /// throws FaultError; otherwise the request waits for recovery. Then the
  /// injector's read-error dice roll.
  sim::Task<> fault_gate(fault::FaultInjector& inj, SubTableId id,
                         bool remote);

  /// The one streamed serve body over this node's `chunks`: real loads
  /// into `out` (same order), one disk reservation per on-disk-adjacent
  /// run (it reorders `chunks` to find them), one CPU reservation, one ship
  /// (an aggregated reply or a reserved transfer), then the stats. `batch`
  /// marks the coalesced path: it tags the span and counts the runs, and
  /// it skips the fault gate, which the single path runs.
  sim::Task<> serve(std::span<const ChunkMeta*> chunks,
                    std::span<std::shared_ptr<const SubTable>> out,
                    std::size_t compute_node, obs::TraceContext rpc,
                    bool batch);

  /// Adds one request's served sub-tables to the stats and the `bds.*`
  /// counters.
  void count(std::uint64_t subtables, std::uint64_t chunk_bytes,
             std::uint64_t shipped_bytes);

  Cluster& cluster_;
  std::size_t node_;
  const MetaDataService& meta_;
  std::shared_ptr<const ChunkStore> store_;
  BdsStats stats_;
};

/// All BDS instances of a dataset's storage nodes.
class BdsService {
 public:
  BdsService(Cluster& cluster, const MetaDataService& meta,
             std::vector<std::shared_ptr<ChunkStore>> stores);

  BdsInstance& instance(std::size_t storage_node);

  /// The instance hosting sub-table `id`'s chunk.
  BdsInstance& instance_for(SubTableId id);

  std::size_t num_instances() const { return instances_.size(); }

  BdsStats total_stats() const;

 private:
  const MetaDataService& meta_;
  std::vector<std::unique_ptr<BdsInstance>> instances_;
};

}  // namespace orv
