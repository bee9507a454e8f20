#pragma once

// Sim-time occupancy sampler (tentpole part 3): a coroutine that wakes at
// fixed virtual intervals and records resource occupancy — storage disk,
// NIC and switch busy-time deltas — plus whatever gauge probes the running
// join registered (cache bytes, pin counts, prefetch-channel depth) into
// the ObsContext's time series. The joins only spawn it when an ObsContext
// with a positive sample_interval is installed, so default runs schedule
// no extra events and stay event-for-event identical.

#include <array>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace orv {

/// Gauge probes registered by a join while their referents are alive.
struct ProbeSet {
  std::vector<std::pair<std::string, std::function<double()>>> entries;
};

/// RAII registration: probes added through a guard are removed when the
/// guard leaves scope, before the cache / channel they read is destroyed.
class ProbeGuard {
 public:
  explicit ProbeGuard(ProbeSet& set) : set_(set) {}
  ProbeGuard(const ProbeGuard&) = delete;
  ProbeGuard& operator=(const ProbeGuard&) = delete;
  ~ProbeGuard() {
    for (const std::string& name : names_) {
      auto& e = set_.entries;
      for (std::size_t i = 0; i < e.size(); ++i) {
        if (e[i].first == name) {
          e.erase(e.begin() + i);
          break;
        }
      }
    }
  }

  void add(std::string name, std::function<double()> probe) {
    names_.push_back(name);
    set_.entries.emplace_back(std::move(name), std::move(probe));
  }

 private:
  ProbeSet& set_;
  std::vector<std::string> names_;
};

/// Samples until `*done` (set by the query's supervisor on every exit
/// path — a sampler that outlives its done flag would keep the engine
/// alive forever). Occupancy is the busy-time delta over the interval;
/// Resource accrues busy time at reservation, so a burst of reservations
/// shows up as a spike in the interval it was booked in.
inline sim::Task<> occupancy_sampler(Cluster& cluster, obs::ObsContext* ctx,
                                     const ProbeSet& probes,
                                     const bool* done) {
  auto& engine = cluster.engine();
  const double dt = ctx->sample_interval;
  auto totals = [&] {
    const Cluster::BusyTimes b = cluster.busy_times();
    return std::array<double, 4>{
        cluster.disk_totals().storage_busy,
        std::accumulate(b.storage_nic.begin(), b.storage_nic.end(), 0.0),
        std::accumulate(b.compute_nic.begin(), b.compute_nic.end(), 0.0),
        b.network_switch};
  };
  static constexpr const char* kNames[4] = {
      "occupancy.storage_disk", "occupancy.storage_nic",
      "occupancy.compute_nic", "occupancy.switch"};
  std::array<double, 4> prev = totals();
  while (!*done) {
    co_await engine.sleep(dt);
    const double now = engine.now();
    const std::array<double, 4> cur = totals();
    for (std::size_t k = 0; k < cur.size(); ++k) {
      ctx->add_sample(kNames[k], now, (cur[k] - prev[k]) / dt);
    }
    prev = cur;
    for (const auto& [name, probe] : probes.entries) {
      ctx->add_sample(name, now, probe());
    }
  }
}

}  // namespace orv
