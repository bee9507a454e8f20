#pragma once

// Query Execution Services: the distributed join algorithms (paper
// Sections 4.1, 4.2).
//
// Both algorithms *really execute* — chunk bytes are read, records move,
// hash tables are built and probed, and the joined rows are materialized
// and digested — while every disk, network and CPU operation is awaited on
// the simulated cluster's resources. The returned virtual elapsed time is
// what the paper's figures plot; the result digest lets tests prove both
// algorithms (and the reference join) produce identical row multisets.
//
// Cost-model correspondence (Section 5):
//  - Indexed Join compute nodes fetch-then-join sequentially, so per-node
//    time decomposes into Transfer + Cpu as the model assumes.
//  - Grace Hash receivers charge network + bucket write per batch
//    sequentially (their implementation's behaviour, which is what makes
//    the model's Transfer + Write additive), then a barrier, then the
//    bucket-join phase charges Read + Cpu.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bds/bds.hpp"
#include "cache/caching_service.hpp"
#include "cluster/cluster.hpp"
#include "graph/connectivity.hpp"
#include "join/hash_join.hpp"
#include "meta/metadata.hpp"
#include "sched/schedule.hpp"

namespace orv::obs {
class Calibrator;
}  // namespace orv::obs

namespace orv {

/// An equi-join view query: V = left ⊕_attrs right [WHERE ranges].
struct JoinQuery {
  TableId left_table = 0;
  TableId right_table = 0;
  std::vector<std::string> join_attrs;
  std::vector<AttrRange> ranges;  // optional selection
};

struct QesOptions {
  /// Fig. 8: work factor k repeats the hash build/probe charges k times
  /// (k = 2 models half the computing power).
  double cpu_work_factor = 1.0;

  /// Indexed Join knobs.
  ComponentAssign assign = ComponentAssign::RoundRobin;
  PairOrder pair_order = PairOrder::Lexicographic;

  /// Pipelined Indexed Join: each compute node runs a prefetcher coroutine
  /// that walks the scheduled pair list up to this many pairs ahead of the
  /// join loop, issuing BDS fetches and *pinning* the results in the
  /// Caching Service so eviction cannot undo a prefetch before use. The
  /// join loop consumes ready pairs from a bounded channel, so Transfer
  /// overlaps Build/Probe and per-node time approaches max(Transfer, Cpu)
  /// instead of their sum. 0 (default) keeps the serial fetch-then-join
  /// path and the additive cost model.
  std::size_t prefetch_lookahead = 0;

  /// Pipelined fault-free prefetch fetches batch adjacent upcoming chunk
  /// reads of the same storage node into a single multi-chunk disk
  /// reservation (one seek per run instead of per chunk). Ignored when the
  /// cluster has a fault plan: per-id fetches keep retry/backoff simple.
  bool coalesce_fetches = true;

  /// Grace Hash knobs.
  std::size_t batch_bytes = 64 * 1024;  // record batch shipped per message
  /// Target in-memory size of one bucket pair; 0 derives it from the
  /// cluster's memory size (buckets must fit in memory, Section 4.2).
  std::uint64_t bucket_pair_bytes = 0;
  /// Pipelined Grace Hash: double-buffer the on-disk bucket spills (write
  /// the batch for bucket k while partitioning k+1) and issue the next
  /// bucket's scratch read while the CPU joins the current one, so each
  /// phase pays max(Transfer, Write) / max(Read, Cpu) instead of the sum.
  bool gh_double_buffer = false;

  /// True when any overlap pipeline is enabled; the QPS then prices the
  /// overlap of the enabled pipelines.
  bool pipelined() const { return prefetch_lookahead > 0 || gh_double_buffer; }

  /// QPS integration: when set, the planner costs plans with the online
  /// calibrator's learned hardware parameters (the harness feeds the
  /// calibrator one observation per executed query via
  /// cost/calibration.hpp's make_observation). Default null — the paper's
  /// prior-parameter plans and every committed baseline stay
  /// byte-identical. Not owned; must outlive the planner calls that read
  /// it.
  obs::Calibrator* calibrator = nullptr;

  std::uint64_t seed = 0;  // for randomized ablation strategies

  /// Optional per-result-fragment hook, invoked at the producing compute
  /// node with each pair/bucket join output (before it is discarded). The
  /// distributed DDS layer uses it for node-side aggregation and for
  /// materializing query results.
  std::function<void(std::size_t node, const SubTable& fragment)> result_sink;
};

/// Execution outcome plus enough accounting to validate the cost models.
struct QesResult {
  double elapsed = 0;  // virtual seconds (what the paper's figures plot)

  std::uint64_t result_tuples = 0;
  std::uint64_t result_fingerprint = 0;  // order-independent digest

  JoinStats join_stats;

  // Phase decomposition (virtual seconds).
  double partition_phase = 0;  // GH: transfer + bucket write
  double join_phase = 0;       // GH: bucket read + build/probe

  // Resource totals across the run.
  double network_bytes = 0;
  double storage_disk_read_bytes = 0;
  double scratch_write_bytes = 0;
  double scratch_read_bytes = 0;
  /// Locality split of the transfer traffic (colocated clusters): bytes
  /// that crossed the switch vs bytes served over a node-local bus. On a
  /// non-colocated cluster local_transfer_bytes is 0.
  double cross_switch_bytes = 0;
  double local_transfer_bytes = 0;

  /// Per-compute-node work accounting, the diagnosis engine's skew feed:
  /// how long each node was busy with the query, how many work items it
  /// processed (IJ: pairs joined; GH: rows received), and how many bytes
  /// it pulled (IJ: sub-table fetches; GH: h1 batch ingress).
  struct NodeWork {
    std::size_t node = 0;
    double busy_seconds = 0;
    std::uint64_t items = 0;
    double bytes = 0;
  };
  std::vector<NodeWork> node_work;

  // IJ cache behaviour, aggregated over compute nodes.
  CachingService::Stats cache_stats;
  std::uint64_t subtable_fetches = 0;
  std::uint64_t hash_tables_built = 0;

  // Pipelining accounting (zero on serial runs).
  std::uint64_t prefetch_issued = 0;  // sub-table fetches issued ahead
  std::uint64_t prefetch_wasted = 0;  // prefetched pins released unconsumed
  /// Fraction of prefetch Transfer time hidden behind compute: 1 means the
  /// join loop never waited on a fetch, 0 means no overlap (serial).
  double overlap_ratio = 0;

  // Network message accounting (GH fills these; zero elsewhere). Logical
  // h1 batch messages are what the cost model counts; physical frames are
  // switch operations, and the two differ exactly when the cluster has a
  // message aggregator (ClusterSpec::aggregation).
  std::uint64_t h1_messages_sent = 0;
  std::uint64_t net_frames_sent = 0;

  // Fault recovery accounting (all zero on a fault-free run).
  std::uint64_t fetch_retries = 0;       // BDS fetch attempts beyond the first
  std::uint64_t pairs_reassigned = 0;    // IJ: orphaned pairs re-run elsewhere
  std::uint64_t rows_repartitioned = 0;  // GH: rows re-routed after a death
  std::uint64_t compute_nodes_lost = 0;  // fail-stop compute crashes observed
  /// The run finished correctly but leaned on recovery (retries, node
  /// deaths); mirrored to the query.degraded obs counter.
  bool degraded = false;

  std::string to_string() const;
};

/// Page-level Indexed Join (Section 4.1): schedules connectivity-graph
/// components over compute-node QES instances; sub-tables are fetched from
/// BDS instances, cached (LRU, the cluster's memory size per node), and
/// joined in memory. Another cache size or policy, or caches shared across
/// queries, run through QesSession (qes/session.hpp).
QesResult run_indexed_join(Cluster& cluster, BdsService& bds,
                           const MetaDataService& meta,
                           const ConnectivityGraph& graph,
                           const JoinQuery& query,
                           const QesOptions& options = {});

/// Grace Hash join (Section 4.2, network-free bucket-join variant):
/// storage-node QES instances stream records through h1 to compute nodes,
/// which partition them through h2 into scratch-disk buckets, then join
/// bucket pairs independently.
QesResult run_grace_hash(Cluster& cluster, BdsService& bds,
                         const MetaDataService& meta, const JoinQuery& query,
                         const QesOptions& options = {});

/// Reference result (no simulation): concatenates all matching sub-tables
/// and runs one in-memory hash join. Tests compare both QES against this.
struct ReferenceResult {
  std::uint64_t result_tuples = 0;
  std::uint64_t result_fingerprint = 0;
};
ReferenceResult reference_join(const MetaDataService& meta,
                               const std::vector<std::shared_ptr<ChunkStore>>&
                                   stores,
                               const JoinQuery& query);

/// Second, independent oracle: same extraction/filter path as
/// reference_join, but the join itself is a brute-force nested loop with
/// no hashing in common with the QES implementations. The differential
/// tests require IJ == GH == nested-loop on the same inputs.
ReferenceResult nested_loop_reference(
    const MetaDataService& meta,
    const std::vector<std::shared_ptr<ChunkStore>>& stores,
    const JoinQuery& query);

}  // namespace orv
