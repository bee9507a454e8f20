#pragma once

// Cost models for the Indexed Join and Grace Hash algorithms (paper
// Section 5, parameters in Table 1).
//
//   Total_IJ = Transfer + BuildHT + Lookup
//   Transfer = T (RS_R + RS_S) / min(Net_bw(n_s, n_j), readIO_bw * n_s)
//   BuildHT  = alpha_build  * T / n_j
//   Lookup   = alpha_lookup * n_e * c_S / n_j
//
//   Total_GH = Transfer + Write + Read + Cpu
//   Write    = T (RS_R + RS_S) / (writeIO_bw * n_j)
//   Read     = T (RS_R + RS_S) / (readIO_bw  * n_j)
//   Cpu      = (alpha_build + alpha_lookup) * T / n_j
//
// In shared-filesystem mode (Fig. 9) a single NFS server replaces the n_s
// local disks and the n_j scratch disks, so the aggregate I/O bandwidth
// terms lose their node multipliers.
//
// Pipelined pricing (QesOptions::pipelined()): when the executor overlaps
// fetch with compute, serial sums become max-of-stages plus a pipeline-fill
// term — the first work unit cannot overlap with anything, so the shorter
// stage is paid once for it:
//
//   Total_IJ_pipe = max(Transfer, Cpu) + min(Transfer, Cpu) / units
//     with units = pairs per joiner = max(1, n_e / n_j)
//   Total_GH_pipe = max(Transfer, Write) + min(...)/batches   (phase 1)
//                 + max(Read, Cpu)       + min(...)/buckets   (phase 2)
//
// The overlap is carried in CostBreakdown::overlap so the per-stage terms
// stay comparable with the serial models.

#include <cstdint>
#include <string>

#include "cluster/cluster.hpp"
#include "datagen/dataset_spec.hpp"

namespace orv {

enum class Algorithm { IndexedJoin, GraceHash };

const char* algorithm_name(Algorithm a);

/// Table 1: dataset and system parameters.
struct CostParams {
  // Dataset parameters.
  double T = 0;     // tuples per table
  double c_R = 0;   // tuples per left sub-table
  double c_S = 0;   // tuples per right sub-table
  double n_e = 0;   // edges in the connectivity graph
  double RS_R = 0;  // left record size, bytes
  double RS_S = 0;  // right record size, bytes

  // System parameters.
  double net_bw = 0;        // aggregate Net_bw(n_s, n_j), bytes/s
  double read_io_bw = 0;    // per-disk, bytes/s
  double write_io_bw = 0;   // per-disk, bytes/s
  double n_s = 0;           // storage nodes
  double n_j = 0;           // joiner nodes
  double alpha_build = 0;   // s per tuple
  double alpha_lookup = 0;  // s per tuple

  bool shared_filesystem = false;

  // Locality extension (colocated clusters, src/place). local_fraction is
  // the fraction of IJ transfer bytes that move over a node-local bus
  // instead of NIC + switch; local_bw is one bus's bandwidth. The planner
  // derives local_fraction from the predicted placement-affinity schedule
  // (schedule_local_fraction). GH always shuffles through the switch, so
  // only the IJ transfer term reads these; at local_fraction = 0 or
  // local_bw = 0 the model reduces exactly to the paper's formula.
  double local_fraction = 0;
  double local_bw = 0;

  // Pipelining parameters. Defaults mirror QesOptions and price the
  // serial executor: IJ overlap is keyed off prefetch_lookahead (0 =
  // serial), GH overlap off gh_double_buffer.
  double memory_bytes = 0;       // per-joiner memory, sizes GH buckets
  double batch_bytes = 64 * 1024;       // GH record batch per message
  double bucket_pair_bytes = 0;  // 0 derives from memory_bytes / 2
  double prefetch_lookahead = 0;  // IJ channel depth (0 = serial)
  bool gh_double_buffer = false;  // GH spill/read double-buffering

  // The paper's cache-miss extension ("it would not be difficult to
  // extend it for cache misses, as that will only involve re-retrieving
  // some sub-tables"): IJ's transfer term scales by this re-fetch factor —
  // total sub-table fetches the schedule incurs under the cache, divided
  // by the minimum (each needed sub-table copy fetched once). It comes
  // from Schedule::fetches_with_lru or from a QES run's measured fetches;
  // at least 1, and 1 prices a cache that never misses.
  double refetch_factor = 1;

  // Per-message fixed overhead (seconds per message, the Grappa-style
  // gamma term the calibrator can estimate): senders pay it in parallel,
  // so it adds msg_overhead * n_messages / n_s to the transfer term. At
  // the default 0 every model reproduces the paper's formulas exactly.
  double msg_overhead = 0;

  // Logical messages combined per physical network frame — the flush
  // threshold of the installed net::MessageAggregator, which the planner
  // reads at plan time. The per-message overhead is paid per *frame*, so
  // the msg term divides by this. 1 (default) prices the unaggregated
  // network.
  double agg_flush_batches = 1;

  bool operator==(const CostParams&) const = default;

  double m_S() const { return T / c_S; }  // number of right sub-tables
  double edge_ratio() const { return n_e * c_R * c_S / (T * T); }

  /// Assembles parameters from a cluster spec and dataset stats.
  /// `cpu_factor` scales CPU speed (Fig. 8: factor < 1 models a slower CPU
  /// by repeating hash operations 1/factor times).
  static CostParams from(const ClusterSpec& cluster,
                         const ConnectivityStats& data,
                         std::size_t record_size_left,
                         std::size_t record_size_right,
                         double cpu_factor = 1.0);

  std::string to_string() const;
};

struct CostBreakdown {
  double transfer = 0;
  double write = 0;   // GH only
  double read = 0;    // GH only
  double cpu_build = 0;
  double cpu_lookup = 0;
  /// Time hidden by fetch/compute overlap; the serial models leave it 0.
  double overlap = 0;

  double cpu() const { return cpu_build + cpu_lookup; }
  double total() const {
    return transfer + write + read + cpu_build + cpu_lookup - overlap;
  }
  std::string to_string() const;
};

/// Logical h1 batch messages the GH partition phase ships: one per
/// batch_bytes of shuffled records — the same derivation run_grace_hash's
/// Partitioner uses for its flush threshold (the executor sends slightly
/// more because each sender's final per-destination flush may be partial).
double gh_h1_messages(const CostParams& p);

/// Physical frames those messages cross the switch in: the message count
/// divided by agg_flush_batches. Equal to gh_h1_messages at the default
/// threshold of 1 (no aggregation).
double gh_h1_frames(const CostParams& p);

/// GH phase-2 buckets per joiner: floor(per_node_bytes / target) + 1, where
/// the target is `bucket_pair_bytes` when positive, else half the joiner's
/// memory (Section 4.2: a bucket pair must fit in memory). run_grace_hash
/// and the GH cost model's double-buffer overlap both use it.
double gh_bucket_count(double per_node_bytes, double bucket_pair_bytes,
                       double memory_bytes);

/// Logical IJ fetch replies: one per sub-table fetch, m_R + m_S minimum.
double ij_fetch_messages(const CostParams& p);

/// Prices one algorithm under `p` (Section 5, plus the extensions the
/// params carry).
///
/// Indexed Join with prefetch_lookahead L > 0: the prefetcher hides
/// transfer behind build/probe, so per-node time approaches
/// max(Transfer, Cpu) plus a fill term of min(Transfer, Cpu) spread over
/// the per-joiner pair count. The bounded channel limits how well bursty
/// per-pair transfer demand (0–2 fetches per pair, depending on cache
/// hits) smooths against compute, so the hidden time is further scaled by
/// the finite-window factor L / (L + 1).
///
/// Grace Hash with gh_double_buffer: phase 1 double-buffers bucket spills
/// against the network ingress (max(Transfer, Write)), phase 2 overlaps
/// the next bucket's scratch read with the current bucket's build/probe
/// (max(Read, Cpu)). Fill terms use the per-joiner batch and bucket counts
/// derived exactly as run_grace_hash derives them.
///
/// Stage terms never depend on the pipelining knobs; the saving lands in
/// `overlap` (0 for the serial executor).
CostBreakdown cost(Algorithm a, const CostParams& p);

/// The n_e * c_S value at which the two totals cross (holding everything
/// else fixed). IJ wins below, GH above. Derivation (Section 6.2, with
/// readIO = writeIO = IO):
///   alpha_lookup * n_e * c_S / n_j  =  2 T (RS_R+RS_S) / (IO n_j)
///                                      + (alpha_lookup) * T / n_j
/// plus the build terms, which cancel.
double crossover_ne_cs(const CostParams& p);

/// Section 6.2's threshold on IO_bw / F: IJ preferred while
/// IO_bw/F < 2 (RS_R+RS_S) / (gamma_lookup (n_e/m_S - 1)).
double io_per_flop_threshold(const CostParams& p, double gamma_lookup);

}  // namespace orv
