#include "cost/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace orv {

CostParams CostParams::from(const ClusterSpec& cluster,
                            const ConnectivityStats& data,
                            std::size_t record_size_left,
                            std::size_t record_size_right,
                            double cpu_factor) {
  ORV_REQUIRE(cpu_factor > 0, "cpu_factor must be positive");
  CostParams p;
  p.T = static_cast<double>(data.T);
  p.c_R = static_cast<double>(data.c_R);
  p.c_S = static_cast<double>(data.c_S);
  p.n_e = static_cast<double>(data.num_edges);
  p.RS_R = static_cast<double>(record_size_left);
  p.RS_S = static_cast<double>(record_size_right);

  const auto& hw = cluster.hw;
  p.n_s = static_cast<double>(cluster.num_storage);
  p.n_j = static_cast<double>(cluster.num_compute);
  // Aggregate network bandwidth between the storage and compute sides of
  // the switch: limited by either side's NICs or the backplane.
  p.net_bw = std::min({hw.nic_bw * p.n_s, hw.nic_bw * p.n_j, hw.switch_bw});
  p.read_io_bw = hw.disk_read_bw;
  p.write_io_bw = hw.disk_write_bw;
  p.alpha_build = hw.alpha_build() / cpu_factor;
  p.alpha_lookup = hw.alpha_lookup() / cpu_factor;
  p.shared_filesystem = cluster.shared_filesystem;
  p.local_bw = cluster.colocated ? hw.local_bus_bw : 0.0;
  p.memory_bytes = static_cast<double>(hw.memory_bytes);
  // The spec-sheet gamma: the simulated storage NICs charge this per
  // frame, so plans price it from the start (0 on the default profiles;
  // the calibrator can still refine it from observed runs).
  p.msg_overhead = hw.net_msg_overhead;
  if (cluster.aggregation) {
    p.agg_flush_batches =
        static_cast<double>(cluster.aggregation->flush_batches);
  }
  return p;
}

namespace {

/// Aggregate read bandwidth feeding the transfer phase: n_s local disks, or
/// the single NFS server in shared-filesystem mode.
double aggregate_read_bw(const CostParams& p) {
  return p.shared_filesystem ? p.read_io_bw : p.read_io_bw * p.n_s;
}

double total_bytes(const CostParams& p) { return p.T * (p.RS_R + p.RS_S); }

double transfer_cost(const CostParams& p) {
  return total_bytes(p) / std::min(p.net_bw, aggregate_read_bw(p));
}

/// IJ transfer with the locality split: remote bytes ride the switch at
/// net_bw while local bytes ride n_j independent local buses; the disks
/// feed both streams. The paths drain concurrently, so the phase lasts as
/// long as its slowest path. At local_fraction = 0 the max reduces to
/// total / min(net_bw, aggregate_read_bw) — the paper's formula.
double ij_transfer_cost(const CostParams& p) {
  const double f = std::clamp(p.local_fraction, 0.0, 1.0);
  if (f <= 0 || p.local_bw <= 0) return transfer_cost(p);
  const double bytes = total_bytes(p);
  const double disk = bytes / aggregate_read_bw(p);
  const double remote = bytes * (1.0 - f) / p.net_bw;
  const double local = bytes * f / (p.local_bw * p.n_j);
  return std::max({disk, remote, local});
}

/// Grappa-style per-message overhead: n_messages fixed costs paid by the
/// n_s senders in parallel. Strictly additive on top of the bandwidth
/// term and exactly 0 at the default msg_overhead = 0, so the paper's
/// formulas are untouched unless the calibrator estimated a gamma.
double message_overhead_cost(const CostParams& p, double n_messages) {
  if (p.msg_overhead <= 0 || n_messages <= 0 || p.n_s <= 0) return 0;
  return p.msg_overhead * n_messages / p.n_s;
}

}  // namespace

double gh_h1_messages(const CostParams& p) {
  return total_bytes(p) / std::max(1.0, p.batch_bytes);
}

double gh_h1_frames(const CostParams& p) {
  return gh_h1_messages(p) / std::max(1.0, p.agg_flush_batches);
}

double gh_bucket_count(double per_node_bytes, double bucket_pair_bytes,
                       double memory_bytes) {
  const double target =
      bucket_pair_bytes > 0 ? bucket_pair_bytes : memory_bytes / 2;
  return target > 0 ? std::floor(per_node_bytes / target) + 1 : 1;
}

double ij_fetch_messages(const CostParams& p) {
  if (p.c_R <= 0 || p.c_S <= 0) return 0;
  return p.T / p.c_R + p.T / p.c_S;
}

namespace {

/// Overlap saved when two serial stages of cost a and b run pipelined over
/// `units` work items: serial a + b becomes max(a, b) + min(a, b) / units
/// (the fill term — the first item's shorter stage cannot hide behind
/// anything), so the saving is min(a, b) * (1 - 1/units).
double stage_overlap(double a, double b, double units) {
  const double u = std::max(1.0, units);
  return std::min(a, b) * (1.0 - 1.0 / u);
}

CostBreakdown indexed_join_cost(const CostParams& p) {
  CostBreakdown c;
  c.transfer = ij_transfer_cost(p);
  if (p.msg_overhead > 0 && p.c_R > 0 && p.c_S > 0) {
    // One request/response per sub-table fetch; the overhead is paid per
    // frame, i.e. per agg_flush_batches co-destined replies.
    c.transfer += message_overhead_cost(
        p, ij_fetch_messages(p) / std::max(1.0, p.agg_flush_batches));
  }
  c.transfer *= p.refetch_factor;
  c.cpu_build = p.alpha_build * p.T / p.n_j;
  c.cpu_lookup = p.alpha_lookup * p.n_e * p.c_S / p.n_j;
  if (p.prefetch_lookahead > 0) {
    // Each joiner processes ~n_e / n_j scheduled pairs; the prefetcher
    // keeps the pair stream's transfer hidden behind build/probe of
    // earlier pairs. A depth-L channel can only smooth fetch bursts over
    // an L-pair window, so the achievable overlap scales by L / (L + 1),
    // asymptotically full as L grows.
    const double L = p.prefetch_lookahead;
    c.overlap =
        L / (L + 1.0) * stage_overlap(c.transfer, c.cpu(), p.n_e / p.n_j);
  }
  return c;
}

CostBreakdown grace_hash_cost(const CostParams& p) {
  CostBreakdown c;
  c.transfer = transfer_cost(p);
  if (p.msg_overhead > 0 && p.batch_bytes > 0) {
    // One h1 batch message per batch_bytes of shuffled records, paid per
    // frame of agg_flush_batches messages.
    c.transfer += message_overhead_cost(p, gh_h1_frames(p));
  }
  // Bucket spill and re-read: n_j scratch disks, or the single shared
  // server (every bucket write/read funnels through it — Fig. 9).
  const double write_agg =
      p.shared_filesystem ? p.write_io_bw : p.write_io_bw * p.n_j;
  const double read_agg =
      p.shared_filesystem ? p.read_io_bw : p.read_io_bw * p.n_j;
  c.write = total_bytes(p) / write_agg;
  c.read = total_bytes(p) / read_agg;
  c.cpu_build = p.alpha_build * p.T / p.n_j;
  c.cpu_lookup = p.alpha_lookup * p.T / p.n_j;
  if (p.gh_double_buffer) {
    // Phase 1: the spill for batch k is written while batch k+1 streams
    // in. Per-receiver batch count shares the h1 message derivation with
    // the message term and run_grace_hash.
    const double n_batches = gh_h1_messages(p) / p.n_j;
    c.overlap = stage_overlap(c.transfer, c.write, n_batches);
    // Phase 2: bucket k+1's scratch read is issued while bucket k joins.
    const double n_buckets = gh_bucket_count(
        total_bytes(p) / p.n_j, p.bucket_pair_bytes, p.memory_bytes);
    c.overlap += stage_overlap(c.read, c.cpu(), n_buckets);
  }
  return c;
}

}  // namespace

const char* algorithm_name(Algorithm a) {
  return a == Algorithm::IndexedJoin ? "IndexedJoin" : "GraceHash";
}

CostBreakdown cost(Algorithm a, const CostParams& p) {
  ORV_REQUIRE(p.refetch_factor >= 1.0, "re-fetch factor is at least 1");
  return a == Algorithm::IndexedJoin ? indexed_join_cost(p)
                                     : grace_hash_cost(p);
}

double crossover_ne_cs(const CostParams& p) {
  // alpha_lookup x / n_j = Write + Read + alpha_lookup T / n_j
  // (build terms equal on both sides; transfer equal).
  const CostBreakdown gh = cost(Algorithm::GraceHash, p);
  return (gh.write + gh.read + p.alpha_lookup * p.T / p.n_j) * p.n_j /
         p.alpha_lookup;
}

double io_per_flop_threshold(const CostParams& p, double gamma_lookup) {
  const double degree_excess = p.n_e / p.m_S() - 1.0;
  ORV_REQUIRE(degree_excess > 0,
              "threshold undefined when average right degree <= 1 (IJ "
              "always preferred)");
  return 2.0 * (p.RS_R + p.RS_S) / (gamma_lookup * degree_excess);
}

std::string CostParams::to_string() const {
  return strformat(
      "T=%.3g c_R=%.3g c_S=%.3g n_e=%.3g RS=(%g,%g) net=%.3g io=(%.3g,%.3g) "
      "n_s=%g n_j=%g alpha=(%.3g,%.3g)%s",
      T, c_R, c_S, n_e, RS_R, RS_S, net_bw, read_io_bw, write_io_bw, n_s, n_j,
      alpha_build, alpha_lookup, shared_filesystem ? " sharedfs" : "") +
      (local_bw > 0
           ? strformat(" local=(f=%.2f,bw=%.3g)", local_fraction, local_bw)
           : "");
}

std::string CostBreakdown::to_string() const {
  std::string s = strformat(
      "total=%.3fs (transfer=%.3f write=%.3f read=%.3f build=%.3f "
      "lookup=%.3f",
      total(), transfer, write, read, cpu_build, cpu_lookup);
  if (overlap > 0) s += strformat(" overlap=-%.3f", overlap);
  return s + ")";
}

}  // namespace orv
