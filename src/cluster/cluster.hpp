#pragma once

// Simulated coupled storage/compute cluster (paper Section 4).
//
// Storage nodes hold local disks with the data chunks; compute (joiner)
// nodes have memory for caching and scratch disks for out-of-core
// operations; a switch connects everything. In shared-filesystem mode
// (Fig. 9) a single NFS server resource serves every node's I/O and
// compute nodes have no local disks.
//
// A ClusterSpec may also carry a fault plan and a message-aggregation
// config; the Cluster then owns the FaultInjector on its engine and the
// MessageAggregator over its storage->compute flows, and every executor
// reads them from the cluster it runs on.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/hardware.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace orv {

namespace net {

class MessageAggregator;

struct AggregatorConfig {
  /// Logical messages per frame before a size flush. 1 sends every message
  /// in its own frame (the unaggregated message pattern, one reservation
  /// per batch).
  std::size_t flush_batches = 8;

  /// Virtual seconds the oldest buffered message may wait before a timeout
  /// flush. Bounds the latency a half-full frame can add.
  double flush_timeout = 1e-3;
};

}  // namespace net

/// One physical spindle with distinct read/write bandwidths.
///
/// `stream_switch_seek` models head thrashing on a *shared* server
/// (Fig. 9): a seek is charged whenever the spindle transitions between
/// reading and writing, or between bucket-write streams of different
/// client nodes. Sequential reads are assumed elevator/readahead-friendly
/// and never pay the switch penalty among themselves.
class Disk {
 public:
  Disk(sim::Engine& engine, std::string name, double read_bw, double write_bw,
       double seek, double stream_switch_seek = 0.0);

  /// Awaitable chunk read of `bytes` on behalf of `client`.
  auto read(double bytes, std::uint32_t client = 0) {
    return spindle_.use_duration(read_duration(bytes, client));
  }

  /// Awaitable write of `bytes` on behalf of `client`.
  auto write(double bytes, std::uint32_t client = 0) {
    return spindle_.use_duration(write_duration(bytes, client));
  }

  /// Non-awaiting FCFS reservations, for callers that pipeline the disk
  /// with other resources (streamed chunk shipping).
  sim::Time reserve_read(double bytes, std::uint32_t client = 0) {
    return spindle_.reserve_duration(read_duration(bytes, client));
  }
  sim::Time reserve_write(double bytes, std::uint32_t client = 0) {
    return spindle_.reserve_duration(write_duration(bytes, client));
  }

  double read_bw() const { return read_bw_; }
  double write_bw() const { return write_bw_; }
  double bytes_read() const { return bytes_read_; }
  double bytes_written() const { return bytes_written_; }
  double busy_time() const { return spindle_.busy_time(); }
  std::uint64_t stream_switches() const { return stream_switches_; }
  const std::string& name() const { return spindle_.name(); }

 private:
  double read_duration(double bytes, std::uint32_t client) {
    bytes_read_ += bytes;
    return bytes / read_bw_ + switch_penalty(false, client);
  }
  double write_duration(double bytes, std::uint32_t client) {
    bytes_written_ += bytes;
    return bytes / write_bw_ + switch_penalty(true, client);
  }
  double switch_penalty(bool writing, std::uint32_t client);

  sim::Resource spindle_;
  double read_bw_;
  double write_bw_;
  double stream_switch_seek_;
  double bytes_read_ = 0;
  double bytes_written_ = 0;
  bool last_was_write_ = false;
  std::uint32_t last_writer_ = 0xffffffffu;
  std::uint64_t stream_switches_ = 0;
};

struct ClusterSpec {
  std::size_t num_storage = 5;
  std::size_t num_compute = 5;
  HardwareProfile hw = HardwareProfile::paper_2006();

  /// Fig. 9: one shared NFS server serves all I/O; no local scratch disks.
  bool shared_filesystem = false;

  /// Converged deployment: compute node j is co-located with storage node
  /// j mod n_s, and a transfer between a co-located pair moves over the
  /// node's local bus (hw.local_bus_bw) instead of NIC + switch + NIC.
  /// Placement-aware scheduling (ComponentAssign::PlacementAffinity over a
  /// GraphPartitioned layout) exists to maximize such local transfers.
  /// Off by default: the paper's testbed keeps storage and compute apart.
  bool colocated = false;

  /// What goes wrong while the cluster runs. Unset: nothing is injected.
  std::optional<fault::FaultPlan> faults;

  /// Combine storage->compute messages into frames (net/aggregator.hpp).
  /// Unset: every message is its own frame.
  std::optional<net::AggregatorConfig> aggregation;
};

class Cluster {
 public:
  Cluster(sim::Engine& engine, ClusterSpec spec);
  ~Cluster();
  /// The aggregator holds a reference to its cluster.
  Cluster(Cluster&&) = delete;

  sim::Engine& engine() { return engine_; }
  const ClusterSpec& spec() const { return spec_; }

  /// The injector evaluating spec().faults, or null without a plan.
  fault::FaultInjector* faults() const { return faults_.get(); }

  /// The aggregator built from spec().aggregation, or null without one.
  net::MessageAggregator* aggregator() const { return aggregator_.get(); }

  std::size_t num_storage() const { return spec_.num_storage; }
  std::size_t num_compute() const { return spec_.num_compute; }

  /// The disk holding storage node i's chunks (the shared NFS server in
  /// shared-filesystem mode).
  Disk& storage_disk(std::size_t i);

  /// Compute node j's scratch disk (the shared NFS server in
  /// shared-filesystem mode).
  Disk& compute_disk(std::size_t j);

  /// Totals over the cluster's *distinct* disks, summed storage disks by
  /// index, then compute disks: in shared-filesystem mode the one NFS
  /// server holds both the data and every scratch file, and counts once.
  struct DiskTotals {
    double storage_read = 0;     // bytes read from the storage-side disks
    double scratch_written = 0;  // bytes written to scratch disks
    double scratch_read = 0;     // bytes read back from scratch disks
    double storage_busy = 0;     // busy seconds of the storage-side disks
  };
  DiskTotals disk_totals() const;

  /// Busy seconds of every NIC and compute CPU, by node index, and of the
  /// switch: the one reading the occupancy sampler and the workload
  /// monitor take their deltas from.
  struct BusyTimes {
    std::vector<double> storage_nic;
    std::vector<double> compute_nic;
    std::vector<double> compute_cpu;
    double network_switch = 0;
  };
  BusyTimes busy_times() const;

  /// Compute node j's CPU (rate = hw.cpu_ops_per_sec, in operations/s).
  sim::Resource& compute_cpu(std::size_t j);

  /// Storage node i's CPU (extraction and hashing work on storage nodes).
  sim::Resource& storage_cpu(std::size_t i);

  /// True iff a storage->compute transfer between i and j stays inside one
  /// physical node (colocated mode, pairing j mod n_s — the same predicate
  /// as place::colocated_pair).
  bool is_local(std::size_t i, std::size_t j) const {
    return spec_.colocated && spec_.num_storage > 0 &&
           i == j % spec_.num_storage;
  }

  /// Awaitable transfer of `bytes` from storage node i to compute node j:
  /// parallel reservation over source NIC, switch, destination NIC — or the
  /// node-local bus when the pair is colocated.
  auto transfer_storage_to_compute(std::size_t i, std::size_t j,
                                   double bytes) {
    net_bytes_ += bytes;
    if (is_local(i, j)) {
      local_bytes_ += bytes;
      sim::Resource* path[1] = {local_bus(j)};
      return sim::transfer(engine_, std::span<sim::Resource* const>(path, 1),
                           bytes);
    }
    switch_bytes_ += bytes;
    sim::Resource* path[3] = {storage_nic(i), &switch_, compute_nic(j)};
    return sim::transfer(engine_, std::span<sim::Resource* const>(path, 3),
                         bytes);
  }

  /// Non-awaiting reservation of the storage->compute network path.
  sim::Time reserve_transfer(std::size_t i, std::size_t j, double bytes) {
    net_bytes_ += bytes;
    if (is_local(i, j)) {
      local_bytes_ += bytes;
      sim::Resource* path[1] = {local_bus(j)};
      return sim::reserve_all(std::span<sim::Resource* const>(path, 1), bytes);
    }
    switch_bytes_ += bytes;
    sim::Resource* path[3] = {storage_nic(i), &switch_, compute_nic(j)};
    return sim::reserve_all(std::span<sim::Resource* const>(path, 3), bytes);
  }

  /// Awaitable egress charge (source NIC + switch) without the destination
  /// NIC: lets a sender pace itself while the receiver separately accounts
  /// ingress — avoids convoy coupling when many flows interleave.
  auto storage_egress(std::size_t i, double bytes) {
    sim::Resource* path[2] = {storage_nic(i), &switch_};
    net_bytes_ += bytes;
    switch_bytes_ += bytes;
    return sim::transfer(engine_, std::span<sim::Resource* const>(path, 2),
                         bytes);
  }

  /// Awaitable ingress charge on a compute node's NIC.
  auto compute_ingress(std::size_t j, double bytes) {
    sim::Resource* path[1] = {compute_nic(j)};
    return sim::transfer(engine_, std::span<sim::Resource* const>(path, 1),
                         bytes);
  }

  sim::Resource* storage_nic(std::size_t i);
  sim::Resource* compute_nic(std::size_t j);
  sim::Resource& network_switch() { return switch_; }

  /// Compute node j's intra-node bus (colocated mode only).
  sim::Resource* local_bus(std::size_t j);

  double network_bytes() const { return net_bytes_; }
  /// Bytes that crossed the switch (storage->compute remote transfers plus
  /// shuffle egress). switch_bytes() + local_bytes() need not equal
  /// network_bytes(): ingress-only charges count toward neither.
  double switch_bytes() const { return switch_bytes_; }
  /// Bytes moved over a colocated pair's local bus.
  double local_bytes() const { return local_bytes_; }

  /// Per-compute-node cache capacity in bytes.
  std::uint64_t memory_bytes() const { return spec_.hw.memory_bytes; }

  /// Human-readable per-resource utilization over the engine's lifetime
  /// [0, now]: busy fraction of every disk, NIC, CPU and the switch.
  /// Debugging/reporting aid for single-run engines.
  std::string utilization_report() const;

 private:
  sim::Engine& engine_;
  ClusterSpec spec_;
  std::vector<std::unique_ptr<Disk>> storage_disks_;
  std::vector<std::unique_ptr<Disk>> compute_disks_;
  std::unique_ptr<Disk> nfs_;  // shared-filesystem mode only
  std::vector<std::unique_ptr<sim::Resource>> storage_cpus_;
  std::vector<std::unique_ptr<sim::Resource>> compute_cpus_;
  std::vector<std::unique_ptr<sim::Resource>> storage_nics_;
  std::vector<std::unique_ptr<sim::Resource>> compute_nics_;
  std::vector<std::unique_ptr<sim::Resource>> local_buses_;  // colocated only
  sim::Resource switch_;
  double net_bytes_ = 0;
  double switch_bytes_ = 0;
  double local_bytes_ = 0;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<net::MessageAggregator> aggregator_;
};

}  // namespace orv
