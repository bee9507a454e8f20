#include "cluster/cluster.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "net/aggregator.hpp"

namespace orv {

Disk::Disk(sim::Engine& engine, std::string name, double read_bw,
           double write_bw, double seek, double stream_switch_seek)
    : spindle_(engine, std::move(name), 1.0, seek),
      read_bw_(read_bw),
      write_bw_(write_bw),
      stream_switch_seek_(stream_switch_seek) {
  ORV_REQUIRE(read_bw > 0 && write_bw > 0, "disk bandwidths must be positive");
}

double Disk::switch_penalty(bool writing, std::uint32_t client) {
  if (stream_switch_seek_ <= 0) return 0.0;
  bool switched = false;
  if (writing != last_was_write_) {
    switched = true;  // read <-> write transition moves the head
  } else if (writing && client != last_writer_) {
    switched = true;  // a different node's bucket file
  }
  last_was_write_ = writing;
  if (writing) last_writer_ = client;
  if (!switched) return 0.0;
  ++stream_switches_;
  return stream_switch_seek_;
}

Cluster::Cluster(sim::Engine& engine, ClusterSpec spec)
    : engine_(engine),
      spec_(spec),
      switch_(engine, "switch", spec.hw.switch_bw) {
  ORV_REQUIRE(spec_.num_storage >= 1, "need at least one storage node");
  ORV_REQUIRE(spec_.num_compute >= 1, "need at least one compute node");
  const auto& hw = spec_.hw;

  if (spec_.shared_filesystem) {
    nfs_ = std::make_unique<Disk>(engine_, "nfs", hw.disk_read_bw,
                                  hw.disk_write_bw, hw.disk_seek,
                                  hw.shared_stream_switch_seek);
  } else {
    for (std::size_t i = 0; i < spec_.num_storage; ++i) {
      storage_disks_.push_back(std::make_unique<Disk>(
          engine_, strformat("sdisk%zu", i), hw.disk_read_bw,
          hw.disk_write_bw, hw.disk_seek));
    }
    for (std::size_t j = 0; j < spec_.num_compute; ++j) {
      compute_disks_.push_back(std::make_unique<Disk>(
          engine_, strformat("cdisk%zu", j), hw.disk_read_bw,
          hw.disk_write_bw, hw.disk_seek));
    }
  }

  for (std::size_t i = 0; i < spec_.num_storage; ++i) {
    storage_cpus_.push_back(std::make_unique<sim::Resource>(
        engine_, strformat("scpu%zu", i), hw.cpu_ops_per_sec));
    // Storage NICs carry the per-frame overhead (hw.net_msg_overhead):
    // senders pay it once per egress reservation, i.e. once per frame, so
    // aggregating logical messages into fewer frames amortizes it.
    storage_nics_.push_back(std::make_unique<sim::Resource>(
        engine_, strformat("snic%zu", i), hw.nic_bw, hw.net_msg_overhead));
  }
  for (std::size_t j = 0; j < spec_.num_compute; ++j) {
    compute_cpus_.push_back(std::make_unique<sim::Resource>(
        engine_, strformat("ccpu%zu", j), hw.cpu_ops_per_sec));
    compute_nics_.push_back(std::make_unique<sim::Resource>(
        engine_, strformat("cnic%zu", j), hw.nic_bw));
  }
  if (spec_.colocated) {
    ORV_REQUIRE(hw.local_bus_bw > 0,
                "colocated mode needs a positive local bus bandwidth");
    for (std::size_t j = 0; j < spec_.num_compute; ++j) {
      local_buses_.push_back(std::make_unique<sim::Resource>(
          engine_, strformat("lbus%zu", j), hw.local_bus_bw));
    }
  }
  if (spec_.faults) {
    faults_ = std::make_unique<fault::FaultInjector>(engine_, *spec_.faults);
  }
  if (spec_.aggregation) {
    aggregator_ =
        std::make_unique<net::MessageAggregator>(*this, *spec_.aggregation);
  }
}

Cluster::~Cluster() = default;

Disk& Cluster::storage_disk(std::size_t i) {
  if (spec_.shared_filesystem) return *nfs_;
  ORV_REQUIRE(i < storage_disks_.size(), "storage node index out of range");
  return *storage_disks_[i];
}

Disk& Cluster::compute_disk(std::size_t j) {
  if (spec_.shared_filesystem) return *nfs_;
  ORV_REQUIRE(j < compute_disks_.size(), "compute node index out of range");
  return *compute_disks_[j];
}

Cluster::DiskTotals Cluster::disk_totals() const {
  DiskTotals t;
  if (nfs_) {
    t.storage_read = t.scratch_read = nfs_->bytes_read();
    t.scratch_written = nfs_->bytes_written();
    t.storage_busy = nfs_->busy_time();
    return t;
  }
  for (const auto& d : storage_disks_) {
    t.storage_read += d->bytes_read();
    t.storage_busy += d->busy_time();
  }
  for (const auto& d : compute_disks_) {
    t.scratch_written += d->bytes_written();
    t.scratch_read += d->bytes_read();
  }
  return t;
}

Cluster::BusyTimes Cluster::busy_times() const {
  BusyTimes t;
  for (const auto& r : storage_nics_) t.storage_nic.push_back(r->busy_time());
  for (const auto& r : compute_nics_) t.compute_nic.push_back(r->busy_time());
  for (const auto& r : compute_cpus_) t.compute_cpu.push_back(r->busy_time());
  t.network_switch = switch_.busy_time();
  return t;
}

sim::Resource& Cluster::compute_cpu(std::size_t j) {
  ORV_REQUIRE(j < compute_cpus_.size(), "compute node index out of range");
  return *compute_cpus_[j];
}

sim::Resource& Cluster::storage_cpu(std::size_t i) {
  ORV_REQUIRE(i < storage_cpus_.size(), "storage node index out of range");
  return *storage_cpus_[i];
}

std::string Cluster::utilization_report() const {
  const double window = engine_.now();
  if (window <= 0) return "(no elapsed time)\n";
  std::string out;
  auto line = [&](const std::string& name, double busy) {
    out += strformat("  %-10s %6.1f%% busy\n", name.c_str(),
                     100.0 * busy / window);
  };
  if (spec_.shared_filesystem) {
    line(nfs_->name(), nfs_->busy_time());
  } else {
    for (const auto& d : storage_disks_) line(d->name(), d->busy_time());
    for (const auto& d : compute_disks_) line(d->name(), d->busy_time());
  }
  for (const auto& r : storage_cpus_) line(r->name(), r->busy_time());
  for (const auto& r : compute_cpus_) line(r->name(), r->busy_time());
  for (const auto& r : storage_nics_) line(r->name(), r->busy_time());
  for (const auto& r : compute_nics_) line(r->name(), r->busy_time());
  for (const auto& r : local_buses_) line(r->name(), r->busy_time());
  line(switch_.name(), switch_.busy_time());
  return out;
}

sim::Resource* Cluster::storage_nic(std::size_t i) {
  ORV_REQUIRE(i < storage_nics_.size(), "storage node index out of range");
  return storage_nics_[i].get();
}

sim::Resource* Cluster::compute_nic(std::size_t j) {
  ORV_REQUIRE(j < compute_nics_.size(), "compute node index out of range");
  return compute_nics_[j].get();
}

sim::Resource* Cluster::local_bus(std::size_t j) {
  ORV_REQUIRE(spec_.colocated, "local buses exist only in colocated mode");
  ORV_REQUIRE(j < local_buses_.size(), "compute node index out of range");
  return local_buses_[j].get();
}

}  // namespace orv
